"""CUDA-style streams for the simulated device.

Real GP-metis implementations hide PCIe traffic behind kernel execution
with ``cudaMemcpyAsync`` on a copy stream while kernels run on a compute
stream.  This module gives the simulator the same vocabulary:

- :class:`Stream` — an in-order command queue on one track of the shared
  :class:`SimClock` timeline.  Every :class:`~repro.gpusim.Device` owns a
  *host stream* (the empty track): work on it lands on the host cursor,
  which is the serial schedule.  A named stream's work occupies its own
  track, starting at ``max(track end, host now)``; concurrent streams
  therefore advance in parallel and wall time is the busy-union of the
  tracks (mirroring how ``ThreadPoolSim`` folds CPU threads), never the
  serial sum.
- :class:`Event` — a marker recorded on a stream.  Other streams
  :meth:`~Stream.wait` on it (``cudaStreamWaitEvent``) and the host
  :meth:`~Event.synchronize`\\ s on it, which advances the host cursor
  without charging anything — the waiting time is already covered by the
  producing stream's events.
- :func:`h2d_async` / :func:`d2h_async` — ``cudaMemcpyAsync``: the one
  copy implementation of :mod:`repro.gpusim.transfer` (alpha-beta PCIe
  model, fault sites, end-to-end corruption verify, retries) run on the
  given stream.  Injected faults fire *at enqueue time* in the same
  order as the serial schedule, so a fault plan that fails the third H2D
  copy fails it identically with overlap on or off; retries burn the
  stream's time (the DMA engine backs off, the host does not block).

The simulation itself stays eager — data moves when the call is made —
only the *accounting* is deferred onto the track.  That keeps partition
vectors byte-identical between the overlapped and serial schedules,
which is exactly the differential oracle ``make overlap-smoke`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..runtime.machine import InterconnectSpec
from .memory import DeviceArray
from .transfer import reliable_copy

__all__ = ["Event", "Stream", "h2d_async", "d2h_async"]


@dataclass(frozen=True)
class Event:
    """A point on a stream's timeline (``cudaEventRecord``)."""

    stream: "Stream"
    time: float

    def synchronize(self) -> None:
        """Block the host until the event completes (no charge: the wait
        is covered by the producing stream's own events)."""
        self.stream.device.clock.wait_until(self.time)


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

    def record(self) -> Event:
        """Record an event that completes with the work queued so far."""
        return Event(self, self.cursor)

    def wait(self, event: Event) -> None:
        """``cudaStreamWaitEvent``: later work on this stream starts no
        earlier than ``event`` (idle gap, nothing charged).  On the host
        stream this is a host-side wait."""
        clock = self.device.clock
        if self.track:
            clock.advance_track(self.track, event.time)
        else:
            clock.wait_until(event.time)

    def synchronize(self) -> None:
        """``cudaStreamSynchronize``: fold this stream into wall time (a
        no-op on the host stream, which never enters the clock's tracks)."""
        self.device.clock.sync_tracks([self.track])


def h2d_async(
    stream: Stream,
    host: np.ndarray,
    net: InterconnectSpec,
    label: str = "",
    after: tuple[Event, ...] = (),
) -> tuple[DeviceArray, Event]:
    """``cudaMemcpyAsync`` host->device on ``stream``.

    ``after`` events gate the copy (``cudaStreamWaitEvent`` first).
    Returns the device array plus an event that completes when the copy
    does; consumers on other streams wait on it before touching the
    array.  Transient injected faults retry on the stream; the final
    error escapes at the enqueue call site, exactly where the serial
    schedule's would, so degradation ladders need no special casing.
    """
    for event in after:
        stream.wait(event)
    return reliable_copy(stream, "h2d", host, net, label), stream.record()


def d2h_async(
    stream: Stream,
    darr: DeviceArray,
    net: InterconnectSpec,
    label: str = "",
    after: tuple[Event, ...] = (),
) -> tuple[np.ndarray, Event]:
    """``cudaMemcpyAsync`` device->host on ``stream``; see
    :func:`h2d_async` for the fault/event contract.  The host must
    :meth:`~Event.synchronize` on the returned event before reading the
    buffer (the hybrid engine does, right before first use)."""
    for event in after:
        stream.wait(event)
    return reliable_copy(stream, "d2h", darr, net, label), stream.record()
