"""Experiment T1 — Table I: the four input graphs.

Regenerates the Table I rows (paper sizes vs generated-analogue sizes)
and runs the generator of each family.  The structural acceptance
criterion is the |E|/|V| ratio: each analogue must match its original's
average degree within 15 %.
"""

from __future__ import annotations

import pytest

from repro.bench import render_table1, table1_rows
from repro.graphs import load_dataset
from repro.graphs.datasets import PAPER_DATASETS


@pytest.mark.parametrize("name", list(PAPER_DATASETS))
def test_table1_generator(name):
    g = load_dataset(name, scale=0.002)
    g.validate()
    spec = PAPER_DATASETS[name]
    paper_deg = 2 * spec.paper_edges / spec.paper_vertices
    bench_deg = 2 * g.num_edges / g.num_vertices
    assert abs(bench_deg - paper_deg) / paper_deg < 0.15, (
        f"{name}: degree {bench_deg:.2f} vs paper {paper_deg:.2f}"
    )


def test_table1_render(experiment):
    text = render_table1(experiment)
    print("\n" + text)
    rows = table1_rows(experiment)
    assert len(rows) == 4
    # Table I order: ldoor, delaunay, hugebubble, usa_roads.
    assert [r["graph"] for r in rows] == list(PAPER_DATASETS)
