"""Overlap-aware hardware accounting: exposed PCIe time, the phase
slice-sum invariant under concurrency, and per-stream trace lanes.

The async-streams schedule makes kernel and transfer spans overlap in
wall time, so the hw layer must report *unions* (busy slices) plus an
``overlapped`` slice that makes the arithmetic exact:
``gpu + pcie + cpu - overlapped == phase seconds``.  These tests pin the
interval arithmetic directly and then assert the invariant holds for a
real run of every engine in the registry.
"""

import pytest

import repro
from repro.api import available_methods
from repro.graphs import generators
from repro.obs import Profiler
from repro.obs.export import chrome_trace
from repro.obs.hw import exposed_span_seconds, validate_hw_section
from repro.obs.schema import validate_chrome_trace
from repro.runtime.clock import SimClock


def _spans(profiler, category):
    return list(profiler.root.find_category(category))


def _profiler_with(kernels, transfers):
    """A profiler holding synthetic spans at exact [start, end) windows."""
    p = Profiler(SimClock(), engine="test", graph="g", k=2, seed=0)
    for i, (s, e) in enumerate(kernels):
        p.add_span(f"k{i}", s, e, category="kernel")
    for i, (s, e) in enumerate(transfers):
        p.add_span(f"t{i}", s, e, category="transfer", stream="copy")
    return p


class TestExposedSpanSeconds:
    def test_no_cover_everything_exposed(self):
        p = _profiler_with([], [(0.0, 1.0), (2.0, 3.0)])
        exposed = exposed_span_seconds(
            _spans(p, "transfer"), _spans(p, "kernel"))
        assert exposed == pytest.approx(2.0)

    def test_full_cover_nothing_exposed(self):
        p = _profiler_with([(0.0, 4.0)], [(1.0, 2.0), (2.5, 3.0)])
        exposed = exposed_span_seconds(
            _spans(p, "transfer"), _spans(p, "kernel"))
        assert exposed == pytest.approx(0.0)

    def test_partial_cover(self):
        # transfer [0,2), kernel [1,3): exposed half of the transfer.
        p = _profiler_with([(1.0, 3.0)], [(0.0, 2.0)])
        exposed = exposed_span_seconds(
            _spans(p, "transfer"), _spans(p, "kernel"))
        assert exposed == pytest.approx(1.0)

    def test_overlapping_spans_counted_once(self):
        # Two transfers on the same window must not double-count.
        p = _profiler_with([], [(0.0, 1.0), (0.5, 1.5)])
        exposed = exposed_span_seconds(
            _spans(p, "transfer"), _spans(p, "kernel"))
        assert exposed == pytest.approx(1.5)

    def test_empty_spans(self):
        assert exposed_span_seconds([], []) == 0.0


@pytest.fixture(scope="module")
def grid():
    return generators.grid2d(60, 60)


class TestInvariantAcrossEngines:
    @pytest.mark.parametrize("method", available_methods())
    def test_hw_section_validates(self, grid, method):
        result = repro.partition(grid, 4, method=method, seed=3)
        hw = getattr(result.profiler, "hw", None)
        assert hw is not None, f"{method} attached no hw section"
        validate_hw_section(hw)  # raises on any broken slice sum

    @pytest.mark.parametrize("method", available_methods())
    def test_phase_slices_sum_exactly(self, grid, method):
        result = repro.partition(grid, 4, method=method, seed=3)
        for row in result.profiler.hw["phases"]:
            parts = (row["gpu_seconds"] + row["pcie_seconds"]
                     + row["cpu_seconds"] - row["overlapped_seconds"])
            assert parts == pytest.approx(row["seconds"], abs=1e-9)
            assert row["overlapped_seconds"] <= min(
                row["gpu_seconds"], row["pcie_seconds"]) + 1e-9


class TestOverlapFields:
    @pytest.fixture(scope="class")
    def pair(self):
        g = generators.grid2d(80, 80)
        on = repro.partition(g, 8, method="gp-metis", seed=3,
                             gpu_threshold_min=2048, async_streams=True)
        off = repro.partition(g, 8, method="gp-metis", seed=3,
                              gpu_threshold_min=2048, async_streams=False)
        return on, off

    def test_serial_schedule_fully_exposed(self, pair):
        _, off = pair
        pcie = off.profiler.hw["pcie"]
        assert pcie["exposed_seconds"] == pytest.approx(pcie["seconds"])
        assert pcie["overlap_ratio"] == pytest.approx(0.0)

    def test_async_schedule_hides_transfer_time(self, pair):
        on, off = pair
        p_on, p_off = on.profiler.hw["pcie"], off.profiler.hw["pcie"]
        assert p_on["seconds"] == pytest.approx(p_off["seconds"])  # same bytes
        assert p_on["exposed_seconds"] < p_off["exposed_seconds"]
        assert 0.0 < p_on["overlap_ratio"] <= 1.0

    def test_some_phase_records_overlap(self, pair):
        on, _ = pair
        assert any(row["overlapped_seconds"] > 0.0
                   for row in on.profiler.hw["phases"])

    def test_gpu_peak_bytes_reported(self, pair):
        on, _ = pair
        assert on.profiler.hw["gpu"]["peak_bytes"] > 0

    def test_chrome_trace_gets_stream_lanes(self, pair):
        on, _ = pair
        doc = chrome_trace(on.profiler)
        validate_chrome_trace(doc)
        lanes = {e["args"]["name"]: e["tid"] for e in doc["traceEvents"]
                 if e.get("name") == "thread_name"}
        # Kernels run on the host lane; the one named stream is the copy
        # stream that downloads the last coarse level.
        assert "stream:copy" in lanes and "stream:compute" not in lanes
        # Stream-tagged slices actually live on their lane.
        copy_tids = {e["tid"] for e in doc["traceEvents"]
                     if e.get("ph") == "X"
                     and e.get("args", {}).get("stream") == "copy"}
        assert copy_tids == {lanes["stream:copy"]}

    def test_serial_trace_has_no_stream_lanes(self, pair):
        _, off = pair
        doc = chrome_trace(off.profiler)
        lanes = [e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("name") == "thread_name"]
        assert not any(name.startswith("stream:") for name in lanes)
