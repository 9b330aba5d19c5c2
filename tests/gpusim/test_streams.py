"""Unit tests for async copies on named streams of the simulated device.

The model is eager-data / deferred-time: an async copy moves its bytes
at enqueue (so results never depend on the schedule) while the PCIe cost
lands on the stream's track, to be folded into wall time only at a
synchronize.  A stream command starts at ``max(track end, host now)``:
after the work already queued on its stream and after everything the
host issued before it, kernels included.
"""

import numpy as np
import pytest

from repro.exceptions import TransferError
from repro.faults import FaultPlan, FaultSpec, attach_injector
from repro.gpusim import Device, d2h, h2d
from repro.gpusim.streams import d2h_async, h2d_async
from repro.obs.spans import Profiler
from repro.runtime.clock import SimClock
from repro.runtime.machine import PAPER_MACHINE

NET = PAPER_MACHINE.interconnect


@pytest.fixture
def clock():
    c = SimClock()
    c.set_phase("test")
    return c


@pytest.fixture
def dev(clock):
    return Device(PAPER_MACHINE.gpu, clock)


class TestAsyncCopies:
    def test_h2d_data_lands_at_enqueue(self, dev):
        host = np.arange(1000, dtype=np.int64)
        s = dev.stream("copy")
        darr = h2d_async(s, host, NET)
        np.testing.assert_array_equal(darr.data, host)
        assert s.cursor > 0.0
        assert dev.clock.total_seconds == 0.0  # host did not block

    def test_d2h_roundtrip(self, dev):
        host = np.arange(500, dtype=np.int64)
        s = dev.stream("copy")
        out = d2h_async(s, h2d_async(s, host, NET), NET)
        np.testing.assert_array_equal(out, host)

    def test_copies_serialize_on_one_stream(self, dev):
        s = dev.stream("copy")
        h2d_async(s, np.zeros(1000, dtype=np.int64), NET)
        first = s.cursor
        h2d_async(s, np.zeros(1000, dtype=np.int64), NET)
        assert s.cursor == pytest.approx(2 * first)

    def test_synchronize_folds_into_wall(self, dev):
        s = dev.stream("copy")
        h2d_async(s, np.zeros(4000, dtype=np.int64), NET)
        end = s.cursor
        dev.clock.sync_tracks()
        assert dev.clock.total_seconds == pytest.approx(end)

    def test_stats_counted(self, dev):
        s = dev.stream("copy")
        darr = h2d_async(s, np.zeros(100, dtype=np.int64), NET)
        d2h_async(s, darr, NET)
        assert dev.stats.h2d_transfers == 1
        assert dev.stats.d2h_transfers == 1
        assert dev.stats.h2d_bytes == dev.stats.d2h_bytes == 800


class TestKernelsOnStreams:
    def test_kernel_lands_on_host_stream(self, dev):
        with dev.kernel("k", 256) as k:
            a = dev.alloc(256, np.int64)
            k.stream_write(a, np.ones(256, dtype=np.int64))
        assert dev.clock.total_seconds > 0.0  # the launch is synchronous
        assert dev.host_stream.cursor == dev.clock.total_seconds
        assert all(e.track == "" for e in dev.clock.events)

    def test_copy_enqueues_after_issued_kernel(self, dev):
        # A download of a kernel's output needs no event: the copy
        # cannot start before the host issued it, i.e. after the kernel.
        a = dev.alloc(2048, np.int64)
        with dev.kernel("k", 2048) as k:
            k.stream_write(a, np.arange(2048, dtype=np.int64))
        kernel_end = dev.clock.now
        s = dev.stream("copy")
        d2h_async(s, a, NET)
        copy_events = [e for e in dev.clock.events if e.track == s.track]
        assert copy_events[0].start == pytest.approx(kernel_end)
        assert dev.clock.now == kernel_end  # the host did not block


class TestInjectedAsyncFaults:
    def _plan(self):
        return FaultPlan(specs=(
            FaultSpec("transfer.h2d", "fail", probability=1.0, max_fires=1),
        ))

    def test_transient_fail_retries_on_track(self, clock, dev):
        attach_injector(clock, self._plan())
        host = np.arange(1000, dtype=np.int64)
        darr = h2d_async(dev.stream("copy"), host, NET)
        np.testing.assert_array_equal(darr.data, host)  # retry recovered
        # The burned first attempt plus the successful copy both sit on
        # the track: strictly more than one clean copy's time.
        clock.sync_tracks()
        assert clock.total_seconds > NET.pcie_seconds(8000)

    def test_exhausted_retries_escape_at_enqueue(self, clock, dev):
        attach_injector(clock, FaultPlan(specs=(
            FaultSpec("transfer.h2d", "fail", probability=1.0, max_fires=0),
        )))
        with pytest.raises(TransferError):
            h2d_async(dev.stream("copy"), np.zeros(10, dtype=np.int64), NET)

    def test_deterministic_schedule(self):
        def run():
            c = SimClock()
            c.set_phase("t")
            attach_injector(c, self._plan())
            d = Device(PAPER_MACHINE.gpu, c)
            h2d_async(d.stream("copy"), np.arange(64, dtype=np.int64), NET)
            c.sync_tracks()
            return c.total_seconds

        assert run() == run()


class TestSyncAsyncParity:
    """The host-stream copy and a ``stream("copy")`` copy are one
    implementation: under the same fault plan they fire the same faults,
    count the same stats and charge the same busy time, with the same
    retry/transfer spans.  Only the ``stream`` span attribute differs."""

    def _copy(self, direction, kind, on_stream):
        clock = SimClock()
        clock.set_phase("t")
        injector = attach_injector(clock, FaultPlan(specs=(
            FaultSpec(f"transfer.{direction}", kind, probability=1.0, max_fires=2),
        )))
        profiler = Profiler(clock)
        dev = Device(PAPER_MACHINE.gpu, clock)
        host = np.arange(1000, dtype=np.int64)
        stream = dev.stream("copy")
        if direction == "h2d":
            out = (h2d_async(stream, host, NET).data if on_stream
                   else h2d(dev, host, NET).data)
        else:
            darr = dev.adopt(host.copy())
            out = d2h_async(stream, darr, NET) if on_stream else d2h(darr, NET)
        clock.sync_tracks()
        np.testing.assert_array_equal(out, host)  # both retries recovered
        spans = [
            (span.name, span.end - span.start,
             {k: v for k, v in span.attrs.items() if k != "stream"},
             span.attrs.get("stream"))
            for span, _ in profiler.root.walk()
            if span.category in ("retry", "transfer")
        ]
        # A fault event is stamped with the host time it fired at, which
        # an async copy does not move; everything else must match.
        events = [(e.site, e.kind, e.detail, e.category) for e in injector.events]
        return events, dev.stats, clock.busy_seconds, spans

    @pytest.mark.parametrize("direction", ["h2d", "d2h"])
    @pytest.mark.parametrize("kind", ["fail", "corrupt"])
    def test_host_and_copy_stream_agree(self, direction, kind):
        sync = self._copy(direction, kind, on_stream=False)
        overlapped = self._copy(direction, kind, on_stream=True)
        assert overlapped[0] == sync[0]
        assert [e[1] for e in sync[0]].count("retry") == 2
        assert overlapped[1] == sync[1]
        assert overlapped[2] == sync[2]
        sync_spans, stream_spans = sync[3], overlapped[3]
        assert [s[:3] for s in stream_spans] == [s[:3] for s in sync_spans]
        assert {s[3] for s in sync_spans} == {None}
        assert {s[3] for s in stream_spans} == {"copy"}
