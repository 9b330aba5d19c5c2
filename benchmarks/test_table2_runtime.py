"""Experiment T2 — Table II: absolute runtimes of the parallel partitioners.

The paper's Table II reports seconds on its testbed (including CPU-GPU
transfer time for GP-metis, excluding file I/O).  We report the machine
models' paper-scale seconds and assert the orderings the text states.
"""

from __future__ import annotations

from repro.bench import render_table2, table2_rows


def test_table2_render(experiment):
    text = render_table2(experiment)
    print("\n" + text)
    rows = table2_rows(experiment)
    assert len(rows) == 4
    for row in rows:
        # Every parallel runtime beats the serial baseline.
        for m in ("parmetis", "mt-metis", "gp-metis"):
            assert row[m] < row["metis"], f"{m} on {row['graph']}"
        # GP-metis beats ParMetis on every input (Sec. IV).
        assert row["gp-metis"] < row["parmetis"], row["graph"]


def test_table2_gpmetis_includes_transfers(experiment):
    """GP-metis's time includes the CPU<->GPU transfers (Table II note)."""
    for ds in experiment.config.datasets:
        run = experiment.run(ds, "gp-metis")
        transfer = run.result.clock.seconds_for(phase="transfer")
        assert transfer > 0.0, ds
        stats = run.result.extras["device_stats"]
        assert stats.h2d_transfers >= 4  # the four CSR arrays at minimum
        assert stats.d2h_transfers >= 4


def test_table2_io_excluded(experiment):
    """No phase named anything I/O-like appears in the ledger (the paper
    excludes file I/O from all timings; so do the simulators)."""
    for (ds, m), run in experiment.runs.items():
        for phase in run.result.clock.seconds_by_phase():
            assert "io" not in phase.lower(), (ds, m, phase)
