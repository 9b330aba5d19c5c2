"""Unit tests for report generation and memory planning."""

import pytest

from repro.bench import (
    ExperimentConfig,
    markdown_report,
    run_experiment,
    write_report,
)
from repro.gpmetis import GPMetisOptions, plan_device_memory
from repro.graphs.generators import delaunay
from repro.runtime.machine import GpuSpec


@pytest.fixture(scope="module")
def mini_results():
    cfg = ExperimentConfig(
        k=4, datasets=("usa_roads",), scales={"usa_roads": 0.0003}
    )
    return run_experiment(cfg)


class TestReport:
    def test_markdown_structure(self, mini_results):
        doc = markdown_report(mini_results, title="T")
        assert doc.startswith("# T")
        for heading in ("Table I", "Fig. 5", "Table II", "Table III",
                        "Paper-shape checks", "CSV"):
            assert heading in doc

    def test_tables_have_rows(self, mini_results):
        doc = markdown_report(mini_results)
        assert doc.count("| usa_roads |") >= 3  # one row per table

    def test_write_report(self, mini_results, tmp_path):
        path = tmp_path / "report.md"
        write_report(mini_results, path)
        text = path.read_text()
        assert "usa_roads" in text
        assert "Experiment report" in text


class TestMemoryPlanning:
    def test_small_graph_fits(self):
        g = delaunay(2000, seed=1)
        plan = plan_device_memory(g, 16)
        assert plan.fits
        assert plan.recommended_devices == 1
        assert plan.total_bytes >= plan.input_bytes

    def test_paper_scale_roads_fits_titan(self):
        """Sanity: the paper ran USA roads (24M vertices) on one 6 GB
        Titan, so the plan for a same-shape graph must fit."""
        import numpy as np

        from repro.graphs.csr import CSRGraph

        # Build a CSR *shape* proxy without materialising 24M vertices:
        # the planner only reads num_vertices / num_directed_edges.
        class Shape:
            num_vertices = 23_947_347
            num_directed_edges = 2 * 28_947_347

        plan = plan_device_memory(Shape(), 64)  # type: ignore[arg-type]
        assert plan.fits, f"{plan.total_bytes / 2**30:.2f} GiB > 6 GiB"

    def test_tiny_device_needs_multiple(self):
        g = delaunay(5000, seed=1)
        plan = plan_device_memory(g, 16, gpu=GpuSpec(memory_bytes=1 << 20))
        assert not plan.fits
        assert plan.recommended_devices > 1

    def test_no_gpu_levels_when_below_threshold(self):
        g = delaunay(300, seed=1)
        plan = plan_device_memory(g, 4, opts=GPMetisOptions())
        assert plan.predicted_gpu_levels == 0
        assert plan.ladder_bytes == 0

    def test_hash_table_accounting(self):
        g = delaunay(20_000, seed=1)
        hash_plan = plan_device_memory(g, 16, opts=GPMetisOptions(merge_strategy="hash"))
        sort_plan = plan_device_memory(g, 16, opts=GPMetisOptions(merge_strategy="sort"))
        assert hash_plan.hash_table_bytes > 0
        assert sort_plan.hash_table_bytes == 0


class TestCliReport:
    def test_bench_output_flag(self, tmp_path, monkeypatch):
        from repro import cli

        out = tmp_path / "r.md"

        # Patch the default scales down so the CLI bench finishes fast.
        monkeypatch.setattr(
            cli, "DEFAULT_SCALES",
            {"ldoor": 0.002, "delaunay": 0.002, "hugebubble": 0.0004,
             "usa_roads": 0.0004},
        )
        rc = cli.main(["bench", "-k", "8", "-o", str(out)])
        assert out.exists()
        assert "Table III" in out.read_text()
        assert rc in (0, 1)  # shape checks may not hold at toy scales
