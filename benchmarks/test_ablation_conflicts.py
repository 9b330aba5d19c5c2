"""Ablation A6 — lock-free matching conflicts vs concurrency (Sec. III.D).

"In the coarsening and un-coarsening phases of GP-metis, thousands of
threads are working concurrently, making the conflict rate much higher in
comparison to mt-metis, which only runs a few threads."

Sweeping the lockstep batch width (= concurrent thread count) shows the
conflict count growing with concurrency while the matching stays valid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpmetis.kernels.matching import consecutive_batches
from repro.graphs import load_dataset
from repro.mtmetis.matching import lockfree_match
from repro.serial.matching import match_is_valid

WIDTHS = [2, 8, 64, 1024, 16384]


@pytest.fixture(scope="module")
def graph():
    return load_dataset("delaunay", scale=0.01)


def _match_with_width(graph, width):
    rng = np.random.default_rng(11)
    return lockfree_match(
        graph, consecutive_batches(graph.num_vertices, width), scheme="hem", rng=rng
    )


@pytest.mark.parametrize("width", WIDTHS)
def test_conflicts_at_width(graph, width):
    match, stats = _match_with_width(graph, width)
    print(
        f"\nwidth={width}: conflicts={stats.conflicts} pairs={stats.pairs} "
        f"self={stats.self_matches}"
    )
    assert match_is_valid(graph, match)


def test_conflicts_grow_with_concurrency(graph):
    conflicts = {}
    for w in WIDTHS:
        _, stats = _match_with_width(graph, w)
        conflicts[w] = stats.conflicts
    assert conflicts[WIDTHS[-1]] > conflicts[WIDTHS[0]]
    # Monotone within noise: the widest batch has the global maximum.
    assert conflicts[WIDTHS[-1]] == max(conflicts.values())


def test_quality_degrades_gracefully(graph):
    """More conflicts mean more self-matches, but the matching never
    collapses: even at full concurrency most vertices pair up."""
    _, serial_like = _match_with_width(graph, 2)
    _, massive = _match_with_width(graph, 16384)
    assert massive.pairs >= 0.7 * serial_like.pairs
