"""Ablation A3 — the GPU<->CPU switch threshold (paper Sec. III, Fig. 1).

"The coarsening continues ... until reaching a threshold, beyond which
coarsening is faster on the CPU than on the GPU due to the lack of
sufficient parallel tasks."  Sweeping the threshold shows the trade-off:
too low keeps launch-overhead-bound small levels on the GPU; too high
wastes the GPU on none of the levels.
"""

from __future__ import annotations

import pytest

from repro.api import make_partitioner
from repro.gpmetis import GPMetisOptions, breakeven_estimate, gpu_stop_size
from repro.graphs import load_dataset
from repro.runtime.machine import PAPER_MACHINE

THRESHOLDS = [1024, 4096, 16384, 65536]


@pytest.fixture(scope="module")
def graph():
    return load_dataset("hugebubble", scale=0.003)


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_threshold_sweep(graph, threshold):
    p = make_partitioner("gp-metis", gpu_threshold_min=threshold)
    res = p.partition(graph, 64)
    print(
        f"\nthreshold={threshold}: modeled {res.modeled_seconds * 1e3:.2f} ms, "
        f"gpu levels {res.extras['gpu_levels']}, cpu levels {res.extras['cpu_levels']}"
    )
    assert res.quality(graph).imbalance <= 1.031


def test_more_gpu_levels_with_lower_threshold(graph):
    lo = make_partitioner("gp-metis", gpu_threshold_min=1024).partition(graph, 64)
    hi = make_partitioner("gp-metis", gpu_threshold_min=65536).partition(graph, 64)
    assert lo.extras["gpu_levels"] >= hi.extras["gpu_levels"]


def test_threshold_policy_consistency():
    opts = GPMetisOptions(gpu_threshold_min=5000, gpu_threshold_factor=8)
    # The switch size never drops below the initial-partitioning target.
    assert gpu_stop_size(opts, k=64) >= opts.coarsen_target(64)
    # At k=1024 the GPU threshold (8 * 1024) is below the target, so the
    # target floor is what binds.
    assert opts.gpu_threshold(1024) < opts.coarsen_target(1024)
    assert gpu_stop_size(opts, k=1024) == opts.coarsen_target(1024)


def test_breakeven_estimate_is_finite_and_positive():
    n = breakeven_estimate(PAPER_MACHINE.gpu, PAPER_MACHINE.cpu.edge_ops_per_sec, 6.0)
    print(f"\nanalytic GPU break-even size: {n:.0f} vertices")
    assert 0 < n < 10_000_000
