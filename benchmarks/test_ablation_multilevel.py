"""Ablation A7 — why multilevel? (paper Sec. II's premise).

"Multilevel techniques for graph partitioning show great improvements in
the quality of partitions and partitioning speed as compared to other
techniques [4, 5]."  Compares the multilevel partitioners against
spectral recursive bisection and the trivial baselines on both axes.
"""

from __future__ import annotations

import pytest

from repro.api import make_partitioner
from repro.graphs import load_dataset

METHODS = ["metis", "gp-metis", "spectral", "random", "block"]


@pytest.fixture(scope="module")
def graph():
    return load_dataset("delaunay", scale=0.006)


@pytest.mark.parametrize("method", METHODS)
def test_method_cut_and_time(graph, method):
    p = make_partitioner(method)
    res = p.partition(graph, 32)
    q = res.quality(graph)
    print(
        f"\n{method}: cut={q.cut} imbalance={q.imbalance:.3f} "
        f"modeled={res.modeled_seconds * 1e3:.3f} ms"
    )
    assert q.cut >= 0


def test_multilevel_beats_spectral_on_both_axes(graph):
    ml = make_partitioner("metis").partition(graph, 32)
    sp = make_partitioner("spectral").partition(graph, 32)
    # Quality: multilevel at least competitive (usually better).
    assert ml.quality(graph).cut <= 1.2 * sp.quality(graph).cut
    # Speed: multilevel much faster than ~60 Lanczos sweeps per split.
    assert ml.modeled_seconds < sp.modeled_seconds


def test_everything_beats_random(graph):
    rand_cut = make_partitioner("random").partition(graph, 32).quality(graph).cut
    for method in ("metis", "gp-metis", "spectral"):
        cut = make_partitioner(method).partition(graph, 32).quality(graph).cut
        assert cut < 0.5 * rand_cut, method
