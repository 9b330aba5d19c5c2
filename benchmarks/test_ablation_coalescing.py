"""Ablation A4 — memory coalescing under vertex orderings (paper Fig. 2).

The paper distributes vertices so that consecutive threads read
consecutive addresses.  Whether a thread's *neighbor* accesses also
coalesce depends on the labeling's locality.  Partitioning isomorphic
copies of a graph under RCM / BFS / identity / random orderings shows the
transaction-count difference the coalescing model charges.
"""

from __future__ import annotations

import pytest

from repro.api import make_partitioner
from repro.graphs import bfs_order, load_dataset, permute, random_order, rcm_order


@pytest.fixture(scope="module")
def graphs_by_order():
    g = load_dataset("delaunay", scale=0.008)
    return {
        "identity": g,
        "rcm": permute(g, rcm_order(g), name="delaunay-rcm"),
        "bfs": permute(g, bfs_order(g), name="delaunay-bfs"),
        "random": permute(g, random_order(g, seed=3), name="delaunay-rnd"),
    }


def _match_kernel_stats(result):
    stats = result.extras["device_stats"]
    k = stats.kernels.get("coarsen.match_resolve")
    assert k is not None
    return k


@pytest.mark.parametrize("order", ["identity", "rcm", "bfs", "random"])
def test_coalescing_by_order(graphs_by_order, order):
    g = graphs_by_order[order]
    p = make_partitioner("gp-metis")
    res = p.partition(g, 32)
    k = _match_kernel_stats(res)
    print(
        f"\n{order}: match kernel {k.memory_transactions:.0f} txns, "
        f"coalescing efficiency {k.coalescing_efficiency:.3f}"
    )
    assert res.quality(g).imbalance <= 1.031


def test_locality_orders_beat_random(graphs_by_order):
    txns = {}
    for order, g in graphs_by_order.items():
        res = make_partitioner("gp-metis").partition(g, 32)
        txns[order] = _match_kernel_stats(res).memory_transactions
    # Bandwidth-friendly orderings issue fewer transactions than a random
    # labeling of the same graph.
    assert txns["rcm"] < txns["random"]
    assert txns["bfs"] < txns["random"]
