"""Experiment F5 — Fig. 5: speedup of the parallel partitioners over Metis.

Benchmarks each partitioner on each (small) analogue, renders the Fig. 5
bars from the session experiment, and asserts the paper's qualitative
claims via :func:`repro.bench.check_paper_shape`.
"""

from __future__ import annotations

import pytest

from repro.api import make_partitioner
from repro.bench import check_paper_shape, fig5_series, render_fig5

METHODS = ("metis", "parmetis", "mt-metis", "gp-metis")


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("dataset", ("ldoor", "usa_roads"))
def test_fig5_partitioner_timing(small_graphs, method, dataset):
    """Wall-clock of one partitioner run (modeled seconds go to Fig. 5)."""
    g = small_graphs[dataset]
    p = make_partitioner(method)
    res = p.partition(g, 64)
    assert res.quality(g).imbalance <= 1.031


def test_fig5_shape(experiment):
    """The Fig. 5 claims hold under the paper-scale model."""
    text = render_fig5(experiment)
    print("\n" + text)
    checks = check_paper_shape(experiment)
    failed = [c for c in checks if not c.holds]
    assert not failed, "\n".join(f"{c.claim}: {c.detail}" for c in failed)


def test_fig5_all_speedups_above_one(experiment):
    series = fig5_series(experiment)
    for method, per_ds in series.items():
        for ds, speedup in per_ds.items():
            assert speedup > 1.0, f"{method} on {ds}: {speedup:.2f}x"
