"""Extension bench — the Sec. II background systems, side by side.

The paper's Sec. II describes four parallel partitioners in detail:
ParMetis, PT-Scotch, parallel Jostle, and mt-metis.  All four are
implemented here; this bench runs them (plus serial Metis and GP-metis)
on one graph and reports the landscape GP-metis entered in 2016.
"""

from __future__ import annotations

import pytest

from repro.api import make_partitioner
from repro.graphs import load_dataset, validate_partition

SYSTEMS = ["metis", "gmetis", "parmetis", "pt-scotch", "jostle", "mt-metis", "gp-metis"]


@pytest.fixture(scope="module")
def graph():
    return load_dataset("delaunay", scale=0.008)


@pytest.mark.parametrize("method", SYSTEMS)
def test_background_system(graph, method):
    p = make_partitioner(method)
    res = p.partition(graph, 64)
    validate_partition(graph, res.part, 64, ubfactor=1.031)
    q = res.quality(graph)
    print(
        f"\n{method}: cut={q.cut} imbalance={q.imbalance:.3f} "
        f"modeled={res.modeled_seconds * 1e3:.2f} ms"
    )


def test_landscape_ordering(graph):
    """The 2016 landscape: every parallel system beats serial Metis; the
    shared-memory and hybrid systems beat the message-passing ones."""
    times = {
        m: make_partitioner(m).partition(graph, 64).modeled_seconds for m in SYSTEMS
    }
    for m in SYSTEMS[1:]:
        assert times[m] < times["metis"], m
    mp_best = min(times["parmetis"], times["pt-scotch"], times["jostle"])
    assert times["mt-metis"] < mp_best or times["gp-metis"] < mp_best


def test_quality_band(graph):
    """All six produce cuts within a factor ~1.4 of each other."""
    cuts = {m: make_partitioner(m).partition(graph, 64).quality(graph).cut
            for m in SYSTEMS}
    lo, hi = min(cuts.values()), max(cuts.values())
    assert hi <= 1.4 * lo, cuts
