"""Simulated-time accounting.

Every simulated engine (CPU, thread pool, MPI cluster, GPU) charges its
work to a :class:`SimClock` as *cost events*.  An event carries a phase
(coarsening / initpart / uncoarsening / transfer), a category (compute,
memory, launch, barrier, message, ...), a scalar ``seconds`` cost, and the
raw ``count`` it was derived from.  Keeping the raw counts lets the
benchmark harness re-evaluate the model at a different problem scale
(paper-scale extrapolation, see DESIGN.md Sec. 2) without re-running the
algorithm.

Categories are tagged as either *volume* (grow linearly with graph size:
memory traffic, per-edge compute) or *overhead* (grow with the number of
levels/passes: kernel launches, barriers, message latencies).  The
extrapolation scales the two groups by different factors.

One timeline, a host stream and named tracks: the clock keeps a *host
cursor* plus one end cursor per named asynchronous track (a simulated
CUDA stream).  :meth:`~SimClock.charge` is the single entry point.  With
the default empty ``track`` it charges the host stream: the event lands
at the host cursor and advances it, which is the serial sum-of-events
clock.  With a named track it places the event at that track's enqueue
point, ``max(track end, host now)``, *without* advancing the host, so
concurrent streams advance on parallel timelines and
:attr:`~SimClock.total_seconds` (the wall clock) becomes the busy-union
of the host and the tracks once they are synchronized — the max of
overlapping spans, mirroring how ``ThreadPoolSim`` folds CPU threads,
never the serial sum.  :attr:`~SimClock.busy_seconds` keeps the serial
sum for utilization math and for the phase/category shares.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Iterable

__all__ = [
    "CostEvent",
    "SimClock",
    "VOLUME_CATEGORIES",
    "OVERHEAD_CATEGORIES",
    "KNOWN_CATEGORIES",
]

#: Categories whose seconds scale with data volume.
VOLUME_CATEGORIES = frozenset(
    {"compute", "memory", "transfer_bytes", "message_bytes", "atomic", "sort", "hash"}
)
#: Categories whose seconds scale with the number of steps/levels/passes.
OVERHEAD_CATEGORIES = frozenset(
    {"launch", "barrier", "message_latency", "transfer_latency", "sync"}
)
#: Every category must belong to exactly one scaling group; ``charge``
#: rejects anything else so a typo cannot silently skew extrapolation.
KNOWN_CATEGORIES = VOLUME_CATEGORIES | OVERHEAD_CATEGORIES


@dataclass(frozen=True)
class CostEvent:
    """One charge against the simulated clock.

    ``track`` is empty for host-stream charges; charges on a named track
    (:meth:`SimClock.charge` with ``track=``) carry the stream's track name
    and an explicit ``start`` on the shared timeline (host events keep the
    ``-1.0`` sentinel — their position is implied by accumulation order).
    """

    phase: str
    category: str
    seconds: float
    count: float = 0.0
    detail: str = ""
    track: str = ""
    start: float = -1.0


@dataclass
class SimClock:
    """Accumulates simulated seconds, broken down by phase and category."""

    events: list[CostEvent] = field(default_factory=list)
    _phase: str = "setup"
    #: Optional :class:`repro.obs.Profiler` observing this clock.  Set by
    #: the profiler itself; ``set_phase`` notifies it so every engine that
    #: labels phases gets a run -> phase span tree without extra wiring.
    profiler: object | None = None
    #: Optional :class:`repro.faults.FaultInjector`.  Substrates that share
    #: this clock (device, thread pool, MPI layer, transfers) discover it
    #: here — the same pattern as ``profiler`` — so fault sites need no
    #: extra plumbing through the engine call chains.
    injector: object | None = None
    #: Optional :class:`repro.runtime.hwcount.HwCounters`.  Attached by the
    #: profiler (same discovery pattern again); CPU/MPI substrates record
    #: hardware-utilization counters here alongside their cost charges.
    hw: object | None = None
    #: Host-timeline cursor.  Equals the sum of host-event seconds for a
    #: purely serial run; async tracks can run ahead of it until synced.
    _now: float = 0.0
    #: End cursor of each named async track (simulated stream); the host
    #: stream's cursor is ``_now`` and never enters this dict.
    _tracks: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def set_phase(self, phase: str) -> None:
        """Set the phase label charged by subsequent events.

        A phase boundary is a synchronization point: any async track still
        running is folded into the wall clock first, so phase spans always
        contain the async work charged within them.
        """
        self.sync_tracks()
        self._phase = phase
        if self.profiler is not None:
            self.profiler.on_phase(phase)

    @property
    def phase(self) -> str:
        return self._phase

    def charge(
        self,
        category: str,
        seconds: float,
        count: float = 0.0,
        detail: str = "",
        track: str = "",
    ) -> tuple[float, float]:
        """Record a cost event in the current phase; return its interval.

        The empty ``track`` is the host stream: the event starts at the
        host cursor and advances it.  A named track is an asynchronous
        stream: the event starts at :meth:`track_end` — a stream command
        cannot begin before the commands already queued on its stream,
        nor before the host issued it — and only the track's end cursor
        moves.  ``category`` must belong to :data:`VOLUME_CATEGORIES` or
        :data:`OVERHEAD_CATEGORIES`; an unknown category would silently
        land in neither scaling group of :meth:`extrapolated_seconds`.
        """
        if seconds < 0:
            raise ValueError(f"negative cost: {seconds}")
        if category not in KNOWN_CATEGORIES:
            raise ValueError(
                f"unknown cost category {category!r}; known categories: "
                f"{', '.join(sorted(KNOWN_CATEGORIES))}"
            )
        if not track:
            start = self._now
            self._now = end = start + seconds
            self.events.append(CostEvent(self._phase, category, seconds, count, detail))
            return start, end
        start = self.track_end(track)
        self._tracks[track] = end = start + seconds
        self.events.append(
            CostEvent(self._phase, category, seconds, count, detail, track, start)
        )
        return start, end

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The host-timeline cursor (excludes unsynced async tracks)."""
        return self._now

    def track_end(self, track: str) -> float:
        """Where the next command enqueued on ``track`` would start."""
        return max(self._tracks.get(track, 0.0), self._now)

    def sync_tracks(self) -> None:
        """Fold async track time into the wall clock (device synchronize).

        Advances the host cursor to the end of every track without
        charging any event: the waiting time is already covered by the
        tracks' own events, so wall time becomes the busy-union, never
        the serial sum.
        """
        for end in self._tracks.values():
            self._now = max(self._now, end)

    @property
    def total_seconds(self) -> float:
        """Wall-clock seconds: the host cursor.

        Identical to :attr:`busy_seconds` for serial runs; under async
        overlap it is the busy-union of the host and stream tracks (after
        the owning engine synchronizes), which is what phase spans,
        ledger totals and the benchmark tables report.
        """
        return self._now

    @property
    def busy_seconds(self) -> float:
        """Serial sum of every charge — the pre-overlap measure, used for
        utilization ratios and extrapolation."""
        return sum(e.seconds for e in self.events)

    def seconds_by_phase(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for e in self.events:
            out[e.phase] += e.seconds
        return dict(out)

    def seconds_by_category(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for e in self.events:
            out[e.category] += e.seconds
        return dict(out)

    def seconds_for(self, phase: str | None = None, category: str | None = None) -> float:
        return sum(
            e.seconds
            for e in self.events
            if (phase is None or e.phase == phase)
            and (category is None or e.category == category)
        )

    def counts_by_category(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for e in self.events:
            out[e.category] += e.count
        return dict(out)

    # ------------------------------------------------------------------
    def extrapolated_seconds(
        self, volume_factor: float, overhead_factor: float | None = None
    ) -> float:
        """Re-evaluate total time as if the problem were ``volume_factor``
        times larger.

        Volume-scaling categories (memory traffic, compute) multiply by
        ``volume_factor``; overhead categories (launches, barriers, message
        latencies) multiply by ``overhead_factor``, which defaults to the
        ratio of coarsening-level counts, approximately
        ``1 + log2(volume_factor) / 20`` (levels grow logarithmically and a
        run has ~20 of them at bench scale).
        """
        if volume_factor <= 0:
            raise ValueError("volume_factor must be positive")
        if overhead_factor is None:
            import math

            overhead_factor = max(1.0, 1.0 + math.log2(volume_factor) / 20.0)
        total = 0.0
        for e in self.events:
            if e.category in VOLUME_CATEGORIES:
                total += e.seconds * volume_factor
            elif e.category in OVERHEAD_CATEGORIES:
                total += e.seconds * overhead_factor
            else:
                total += e.seconds * volume_factor  # conservative default
        # Busy time extrapolates per category; the overlap already won at
        # bench scale carries over as a constant wall/busy ratio (streams
        # hide the same *fraction* of the transfer stream at any scale).
        busy = self.busy_seconds
        wall = self.total_seconds
        if busy > 0.0 and wall < busy:
            total *= wall / busy
        return total

    def merge(self, others: Iterable["SimClock"]) -> None:
        """Absorb events from other clocks (used when sub-engines finish).

        The absorbed run executes after everything already on this clock:
        its async events are rebased by the current wall time and its wall
        seconds extend this clock's cursor.
        """
        for other in others:
            offset = self._now
            for e in other.events:
                if e.track and e.start >= 0.0:
                    self.events.append(replace(e, start=e.start + offset))
                else:
                    self.events.append(e)
            other_tracks = getattr(other, "_tracks", {})
            other_wall = max(
                other.total_seconds, max(other_tracks.values(), default=0.0)
            )
            self._now += other_wall
            for track, end in other_tracks.items():
                self._tracks[track] = max(
                    self._tracks.get(track, 0.0), end + offset
                )

    def breakdown(self, by: str | None = None) -> str | dict[str, float]:
        """Phase/category shares of the charged (busy) time.

        With ``by="phase"`` or ``by="category"``, returns percent shares
        of :attr:`busy_seconds` (values summing to 100 when any time was
        charged; under overlap the wall clock is smaller than the sum of
        the events, so it cannot be the denominator).  With no
        argument, returns the human-readable phase table for reports.
        """
        if by is not None:
            if by == "phase":
                seconds = self.seconds_by_phase()
            elif by == "category":
                seconds = self.seconds_by_category()
            else:
                raise ValueError(f"breakdown by must be 'phase' or 'category', got {by!r}")
            total = self.busy_seconds
            if total <= 0:
                return {key: 0.0 for key in seconds}
            return {key: 100.0 * value / total for key, value in seconds.items()}
        lines = [f"total modeled time: {self.total_seconds:.6f} s"]
        for phase, secs in sorted(self.seconds_by_phase().items()):
            lines.append(f"  {phase:<16s} {secs:.6f} s")
        return "\n".join(lines)
