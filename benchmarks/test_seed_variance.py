"""Extension bench — seed sensitivity.

The paper reports "the minimum runtime of three experiments"; this bench
quantifies what that hides: the cut and modeled-time spread across seeds
for each partitioner, and how much min-of-3 improves on a single run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import run_method_on_graph
from repro.graphs import load_dataset

SEEDS = [1, 2, 3, 4, 5]
METHODS = ["metis", "mt-metis", "gp-metis"]


@pytest.fixture(scope="module")
def graph():
    return load_dataset("usa_roads", scale=0.001)


@pytest.mark.parametrize("method", METHODS)
def test_seed_spread(graph, method):
    results = [run_method_on_graph(method, graph, 16, seed=s) for s in SEEDS]
    cuts = np.array([r.quality(graph).cut for r in results], dtype=np.float64)
    times = np.array([r.modeled_seconds for r in results])
    print(
        f"\n{method}: cut mean={cuts.mean():.0f} cv={cuts.std() / cuts.mean():.3f} "
        f"time cv={times.std() / times.mean():.3f}"
    )
    # Quality spread across seeds stays bounded for every method (road
    # networks with tiny cuts are the most seed-sensitive family).
    assert cuts.max() <= 2.0 * cuts.min()


def test_min_of_three_protocol(graph):
    """run_method_on_graph(repeats=3) returns the fastest of three —
    never slower than a single seeded run."""
    single = run_method_on_graph("gp-metis", graph, 16, seed=1)
    best3 = run_method_on_graph("gp-metis", graph, 16, repeats=3, seed=1)
    assert best3.modeled_seconds <= single.modeled_seconds
