"""Experiment T3 — Table III: edge-cut ratio relative to serial Metis.

Unlike the runtimes, these numbers are *pure algorithm output* — no
machine model involved.  The paper's claim: "GP-metis is able to produce
partitions of comparable quality to mt-metis and ParMetis", with some
degradation from the finer-grain (more conflict-prone) implementation.
"""

from __future__ import annotations

from repro.bench import render_table3, table3_rows
from repro.graphs.metrics import validate_partition


def test_table3_render(experiment):
    text = render_table3(experiment)
    print("\n" + text)
    for row in table3_rows(experiment):
        for m in ("parmetis", "mt-metis", "gp-metis"):
            assert 0.7 <= row[m] <= 1.25, f"{m} on {row['graph']}: {row[m]:.3f}"


def test_table3_partitions_valid(experiment):
    """Every reported cut comes from a valid, balanced 64-way partition."""
    for (ds, m), run in experiment.runs.items():
        g = experiment.graphs[ds]
        validate_partition(g, run.result.part, experiment.config.k, ubfactor=1.031)


def test_table3_conflict_quality_link(experiment):
    """The finer-grain GP-metis sees (far) more matching conflicts than
    8-thread mt-metis — the paper's explanation for quality differences."""
    for ds in experiment.config.datasets:
        gp = experiment.run(ds, "gp-metis").result.trace
        mt = experiment.run(ds, "mt-metis").result.trace
        gp_conflicts = sum(r.conflicts for r in gp.levels if r.engine == "gpu")
        if gp_conflicts == 0:
            continue  # graph too small to exercise GPU levels
        assert gp_conflicts >= mt.total_conflicts, ds
