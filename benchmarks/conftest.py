"""Shared fixtures for the benchmark suite.

The full evaluation grid (four graphs x four partitioners) runs once per
session; individual table/figure benches render and assert against it.
Each bench calls the partitioner once, directly: the interesting numbers
are the *modeled* seconds, which are deterministic, so statistical
repetition buys nothing.
"""

from __future__ import annotations

import pytest

from repro.bench import ExperimentConfig, run_experiment
from repro.graphs import load_dataset

#: Smaller-than-default scales for per-call timing benches.
BENCH_SCALES = {
    "ldoor": 0.004,
    "delaunay": 0.008,
    "hugebubble": 0.001,
    "usa_roads": 0.001,
}


@pytest.fixture(scope="session")
def experiment():
    """The full paper evaluation grid at the default bench scales."""
    return run_experiment(ExperimentConfig())


@pytest.fixture(scope="session")
def small_graphs():
    """Smaller analogues for repeated-timing benches."""
    return {
        name: load_dataset(name, scale=scale) for name, scale in BENCH_SCALES.items()
    }
