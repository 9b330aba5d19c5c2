"""CUDA-style streams for the simulated device.

Real GP-metis implementations hide PCIe traffic behind kernel execution
with ``cudaMemcpyAsync`` on a copy stream.  This module gives the
simulator that vocabulary:

- :class:`Stream` — an in-order command queue on one track of the shared
  :class:`SimClock` timeline.  Every :class:`~repro.gpusim.Device` owns a
  *host stream* (the empty track): work on it lands on the host cursor,
  which is the serial schedule, and every kernel runs there.  A named
  stream's work occupies its own track, starting at
  ``max(track end, host now)`` — after everything the host issued before
  it — so it advances in parallel with the host and wall time is the
  busy-union of the tracks once :meth:`SimClock.sync_tracks` (or a phase
  change) folds them in, never the serial sum.
- :func:`h2d_async` / :func:`d2h_async` — ``cudaMemcpyAsync``: the one
  copy implementation of :mod:`repro.gpusim.transfer` (alpha-beta PCIe
  model, fault sites, end-to-end corruption verify, retries) run on the
  given stream.  Injected faults fire *at enqueue time* in the same
  order as the serial schedule, so a fault plan that fails the third
  copy fails it identically with overlap on or off; retries burn the
  stream's time (the DMA engine backs off, the host does not block).

GP-metis uses one named stream: with ``async_streams`` on, the last
coarsening level's arrays download on a ``"copy"`` stream while that
level's own contraction kernels still run on the host stream.

The simulation itself stays eager — data moves when the call is made —
only the *accounting* is deferred onto the track.  That keeps partition
vectors byte-identical between the overlapped and serial schedules,
which is exactly the differential oracle ``make overlap-smoke`` checks.
"""

from __future__ import annotations

import numpy as np

from ..runtime.machine import InterconnectSpec
from .memory import DeviceArray
from .transfer import reliable_copy

__all__ = ["Stream", "h2d_async", "d2h_async"]


class Stream:
    """An in-order command queue on a simulated device.

    The empty ``name`` is the device's host stream: its track is the
    host cursor itself, so it charges serially and never needs a sync.
    """

    def __init__(self, device, name: str = ""):
        self.device = device
        self.name = name
        self.track = f"stream:{name}" if name else ""
        #: Extra profiler-span attributes: real streams get their own
        #: Chrome-trace lane, the host stream stays on the host lane.
        self.span_attrs = {"stream": name} if name else {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream({self.name!r}, cursor={self.cursor:.6f})"

    @property
    def cursor(self) -> float:
        """Where the next command enqueued on this stream would start."""
        return self.device.clock.track_end(self.track)

    def charge(
        self, category: str, seconds: float, count: float = 0.0, detail: str = ""
    ) -> tuple[float, float]:
        """Charge one command to this stream; returns its interval."""
        return self.device.clock.charge(category, seconds, count, detail, track=self.track)


def h2d_async(
    stream: Stream, host: np.ndarray, net: InterconnectSpec, label: str = ""
) -> DeviceArray:
    """``cudaMemcpyAsync`` host->device on ``stream``; returns the device
    array.  Transient injected faults retry on the stream; the final
    error escapes at the enqueue call site, exactly where the serial
    schedule's would, so degradation ladders need no special casing.
    """
    return reliable_copy(stream, "h2d", host, net, label)


def d2h_async(
    stream: Stream, darr: DeviceArray, net: InterconnectSpec, label: str = ""
) -> np.ndarray:
    """``cudaMemcpyAsync`` device->host on ``stream``; returns the host
    copy (data moves eagerly, only the time lands on the stream's
    track).  See :func:`h2d_async` for the fault contract."""
    return reliable_copy(stream, "d2h", darr, net, label)
