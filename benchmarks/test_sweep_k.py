"""Extension bench — partition-count sweep.

The paper fixes k = 64; this sweep shows how cut, balance, and the GPU
pipeline's behaviour move with k (the initial-partitioning threshold
scales with k, so high k shifts work toward the CPU stage).
"""

from __future__ import annotations

import pytest

from repro.api import make_partitioner
from repro.graphs import load_dataset, validate_partition

KS = [4, 16, 64, 256]


@pytest.fixture(scope="module")
def graph():
    return load_dataset("delaunay", scale=0.015)


@pytest.mark.parametrize("k", KS)
def test_k_sweep(graph, k):
    p = make_partitioner("gp-metis")
    res = p.partition(graph, k)
    validate_partition(graph, res.part, k, ubfactor=1.05)
    q = res.quality(graph)
    print(
        f"\nk={k}: cut={q.cut} imbalance={q.imbalance:.3f} "
        f"gpu_levels={res.extras['gpu_levels']} "
        f"cpu_levels={res.extras['cpu_levels']} "
        f"modeled={res.modeled_seconds * 1e3:.2f} ms"
    )


def test_cut_grows_with_k(graph):
    cuts = {}
    for k in (4, 64):
        cuts[k] = make_partitioner("gp-metis").partition(graph, k).quality(graph).cut
    assert cuts[64] > cuts[4]


def test_high_k_shifts_work_to_cpu(graph):
    """coarsen_target = 20k grows with k, so fewer levels stay on the GPU."""
    lo = make_partitioner("gp-metis").partition(graph, 4)
    hi = make_partitioner("gp-metis").partition(graph, 256)
    assert hi.extras["gpu_levels"] <= lo.extras["gpu_levels"]
