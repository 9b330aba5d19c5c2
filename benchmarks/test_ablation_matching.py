"""Ablation A1 — matching scheme (HEM vs RM vs LEM), paper Sec. II.A.1.

"Heavy edge matching exhibits the best results ... The rationale behind
this policy is to minimize the weight of the edges in the coarser graph."
We verify HEM's coarser graphs carry less edge weight than RM/LEM's and
that the end-to-end cut is at least as good on a weighted graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import load_dataset
from repro.serial import SerialMetis, SerialOptions, contract, sequential_match


@pytest.fixture(scope="module")
def weighted_graph():
    return load_dataset("usa_roads", scale=0.002)  # distance-weighted


@pytest.mark.parametrize("scheme", ["hem", "rm", "lem"])
def test_matching_scheme_coarse_weight(weighted_graph, scheme):
    g = weighted_graph
    rng = np.random.default_rng(7)
    mres = sequential_match(g, scheme, rng)
    coarse, _ = contract(g, mres.match)
    ratio = coarse.total_edge_weight / g.total_edge_weight
    print(f"\n{scheme}: coarse edge weight ratio {ratio:.4f}, pairs {mres.pairs}")
    assert 0.0 < ratio <= 1.0


def test_hem_beats_rm_on_coarse_weight(weighted_graph):
    g = weighted_graph
    results = {}
    for scheme in ("hem", "rm", "lem"):
        mres = sequential_match(g, scheme, np.random.default_rng(7))
        coarse, _ = contract(g, mres.match)
        results[scheme] = coarse.total_edge_weight
    # HEM collapses the heaviest edges away, leaving the least weight.
    assert results["hem"] <= results["rm"]
    assert results["hem"] <= results["lem"]


def test_hem_cut_at_least_as_good_end_to_end(weighted_graph):
    g = weighted_graph
    cuts = {}
    for scheme in ("hem", "rm"):
        res = SerialMetis(SerialOptions(matching=scheme)).partition(g, 16)
        cuts[scheme] = res.quality(g).cut
    print(f"\nend-to-end cut: hem={cuts['hem']} rm={cuts['rm']}")
    # HEM should not be dramatically worse; typically it is better.
    assert cuts["hem"] <= 1.2 * cuts["rm"]
