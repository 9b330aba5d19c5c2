"""Extension bench — strong scaling of the parallel CPU partitioners.

The paper evaluates at a fixed 8 threads / 8 ranks; this sweep shows the
curves those points sit on, and the limiters the machine models encode:
mt-metis saturates at the core count (oversubscription past 8), the
message-passing systems flatten on alpha-beta communication costs.
"""

from __future__ import annotations

import pytest

from repro.bench import render_scaling, run_scaling_study
from repro.graphs import load_dataset

METHODS = ["mt-metis", "parmetis", "pt-scotch", "jostle"]
COUNTS = (1, 2, 4, 8, 16)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("delaunay", scale=0.008)


@pytest.mark.parametrize("method", METHODS)
def test_strong_scaling(graph, method):
    study = run_scaling_study(method, graph, 16, processor_counts=COUNTS)
    print("\n" + render_scaling([study]))
    # Monotone non-trivial speedup up to the core count.
    assert study.efficiency_at(1) == pytest.approx(1.0)
    assert study.max_speedup > 1.2


def test_mtmetis_saturates_at_core_count(graph):
    study = run_scaling_study("mt-metis", graph, 16, processor_counts=(8, 16))
    t8 = study.points[0].modeled_seconds
    t16 = study.points[1].modeled_seconds
    # 16 threads on 8 cores cannot beat 8 threads by much (if at all).
    assert t16 >= 0.85 * t8


def test_mpi_scales_worse_than_threads(graph):
    mt = run_scaling_study("mt-metis", graph, 16, processor_counts=(1, 8))
    pm = run_scaling_study("parmetis", graph, 16, processor_counts=(1, 8))
    assert mt.points[-1].speedup > pm.points[-1].speedup
