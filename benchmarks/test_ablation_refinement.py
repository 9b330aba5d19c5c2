"""Ablation A5 — refinement pass budget (paper Sec. III.C).

"The refinement at each level repeats for a specified number of passes
to improve the edge-cut ... However, it can be terminated earlier if no
move is committed in the current pass."
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import make_partitioner
from repro.graphs import load_dataset
from repro.mtmetis.refinement import refine_level
from repro.serial import SerialMetis, SerialOptions

PASSES = [1, 2, 4, 8]


@pytest.fixture(scope="module")
def graph():
    return load_dataset("delaunay", scale=0.008)


@pytest.mark.parametrize("passes", PASSES)
def test_pass_budget_sweep(graph, passes):
    p = make_partitioner("gp-metis", refine_passes=passes)
    res = p.partition(graph, 32)
    print(f"\npasses={passes}: cut={res.quality(graph).cut}")
    assert res.quality(graph).imbalance <= 1.031


def test_more_passes_do_not_hurt_much(graph):
    cuts = {}
    for passes in (1, 8):
        res = make_partitioner("gp-metis", refine_passes=passes).partition(graph, 32)
        cuts[passes] = res.quality(graph).cut
    assert cuts[8] <= 1.1 * cuts[1]


def test_early_exit_when_no_moves(graph):
    """A refined level stops proposing once converged: the last recorded
    sub-iteration of a long budget commits nothing."""
    base = SerialMetis(SerialOptions()).partition(graph, 8)
    part = base.part.copy()
    _, stats = refine_level(graph, part, 8, ubfactor=1.03, max_passes=50)
    # Far fewer than 50*2 sub-iterations actually ran.
    assert len(stats) < 30
    assert stats[-1].committed == 0 or stats[-2].committed == 0


def test_refinement_improves_projected_cut(graph):
    """Across the uncoarsening ladder, refinement reduces the cut it was
    given at (nearly) every level."""
    res = SerialMetis().partition(graph, 32)
    worsened = [
        r for r in res.trace.refinements if r.cut_after > r.cut_before
    ]
    assert not worsened
