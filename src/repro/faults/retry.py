"""Retry with exponential backoff over simulated time.

The first rung of every engine's degradation ladder: transient faults
(failed/corrupt PCIe copies, dropped messages) are retried a bounded
number of times, each attempt separated by an exponentially growing
backoff that is *charged to the simulated clock* — recovering from
faults costs modeled time, exactly like the real system it stands for.

When the injector's recovery switch is off, or the retry budget runs
out, the last exception propagates and the caller moves to the next
rung (shrink the GPU working set, fall back to the CPU path, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ReproError

__all__ = ["RetryPolicy", "with_retry"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff (defaults: 3 retries, 0.1 ms doubling)."""

    max_retries: int = 3
    backoff_seconds: float = 1e-4
    backoff_factor: float = 2.0

    def backoff(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        return self.backoff_seconds * self.backoff_factor ** (attempt - 1)


def with_retry(
    fn,
    clock,
    site: str,
    policy: RetryPolicy | None = None,
    retryable: tuple[type[BaseException], ...] = (ReproError,),
    detail: str = "",
    stream=None,
):
    """Run ``fn`` retrying injected transient faults under ``policy``.

    Retries happen only while the clock carries an injector whose
    recovery switch is on; without one, the first exception propagates
    untouched (the fault-free fast path adds no try/except overhead
    beyond this wrapper).  Backoff is charged under the ``sync`` category
    and every retry is recorded as a recovery event.

    ``stream`` (a :class:`~repro.gpusim.streams.Stream`) is the timeline
    the retries run on: the failed attempts' time and the backoff burn
    that stream's track, not the host's.  The default is the host
    timeline.
    """
    injector = getattr(clock, "injector", None)
    if injector is None:
        return fn()
    policy = policy or RetryPolicy()
    track = getattr(stream, "track", "")
    lane = getattr(stream, "span_attrs", {})
    attempt = 0
    while True:
        t0 = clock.track_end(track)
        try:
            return fn()
        except retryable as exc:
            if not injector.recover:
                raise
            attempt += 1
            if attempt > policy.max_retries:
                raise
            prof = getattr(clock, "profiler", None)
            # The failed attempt's own charges (e.g. the PCIe latency a
            # failed copy burned) are retry cost, not useful transfer
            # time: cover them with a retry-category span so latency
            # attribution can move them into the ``retry`` bucket.
            t1 = clock.track_end(track)
            if prof is not None and t1 > t0:
                prof.add_span(
                    f"retry {site} attempt", t0, t1, category="retry",
                    attempt=attempt, max_retries=policy.max_retries, **lane,
                )
            # The backoff charge as a span, so retries show up in the
            # run's trace (and in request critical paths) with the same
            # trace context as the work being retried.
            start, end = clock.charge(
                "sync", policy.backoff(attempt), count=1.0,
                detail=f"retry backoff {site}" + (f" {detail}" if detail else ""),
                track=track,
            )
            if prof is not None:
                prof.add_span(
                    f"retry {site}", start, end, category="retry",
                    attempt=attempt, max_retries=policy.max_retries, **lane,
                )
            injector.record_recovery(
                site, "retry",
                f"attempt {attempt}/{policy.max_retries}: {exc}",
            )
