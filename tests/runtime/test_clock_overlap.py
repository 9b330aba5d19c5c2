"""Busy-union properties of the SimClock's asynchronous tracks.

The async-streams schedule charges stream work via ``charge(...,
track=...)`` on named tracks; wall time is the busy-union of the host
timeline and every track, never the serial sum.  These tests pin the algebra the overlap
win rests on:

* ``wall <= serial sum`` — overlap can only hide time, never create it;
* ``wall >= max component`` — no track's work can finish before itself;
* the host cursor never moves on a track charge, only on ``sync_tracks``
  (or a ``set_phase``, which syncs first so phase spans contain their
  async work).
"""

import random

import pytest

from repro.runtime.clock import SimClock


def _clock():
    c = SimClock()
    c.set_phase("test")
    return c


class TestChargeAt:
    """Charges on named tracks: ``SimClock.charge(..., track=...)``."""

    def test_does_not_advance_host(self):
        c = _clock()
        c.charge("transfer_bytes", 0.5, track="stream:copy")
        assert c.total_seconds == 0.0
        assert c.track_end("stream:copy") == pytest.approx(0.5)

    def test_returns_interval(self):
        c = _clock()
        start, end = c.charge("transfer_bytes", 0.25, track="stream:copy")
        assert (start, end) == (0.0, pytest.approx(0.25))
        start, end = c.charge("transfer_bytes", 0.25, track="stream:copy")
        assert start == pytest.approx(0.25)  # in-order queue

    def test_enqueue_point_is_max_of_track_and_host(self):
        c = _clock()
        c.charge("compute", 1.0)  # host at 1.0
        start, _ = c.charge("transfer_bytes", 0.1, track="stream:copy")
        assert start == pytest.approx(1.0)  # cannot start before issued

    def test_empty_track_is_the_host_stream(self):
        c = _clock()
        c.charge("compute", 0.5, track="stream:k")
        start, end = c.charge("compute", 0.25, track="")
        assert (start, end) == (0.0, pytest.approx(0.25))  # host cursor
        assert c.total_seconds == pytest.approx(0.25)
        assert c.events[-1].track == "" and c.events[-1].start == -1.0
        assert set(c._tracks) == {"stream:k"}  # the host never enters

    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError, match="unknown cost category"):
            _clock().charge("warp_shuffle", 0.1, track="stream:k")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _clock().charge("compute", -0.1, track="stream:k")


class TestSyncAndWait:
    def test_sync_tracks_advances_host_to_max_end(self):
        c = _clock()
        c.charge("compute", 0.5, track="stream:a")
        c.charge("transfer_bytes", 0.3, track="stream:b")
        c.sync_tracks()
        assert c.total_seconds == pytest.approx(0.5)

    def test_set_phase_syncs_tracks(self):
        # Phase spans must contain their async work, so a phase change
        # folds every outstanding track into the wall clock first.
        c = _clock()
        c.charge("compute", 0.7, track="stream:a")
        c.set_phase("next")
        assert c.total_seconds == pytest.approx(0.7)


class TestBusyUnionProperties:
    def test_overlap_never_exceeds_serial_sum(self):
        c = _clock()
        c.charge("compute", 0.2)
        c.charge("transfer_bytes", 0.4, track="stream:copy")
        c.charge("compute", 0.3, track="stream:kern")
        c.sync_tracks()
        assert c.total_seconds <= c.busy_seconds + 1e-12
        assert c.total_seconds == pytest.approx(0.2 + 0.4)  # union, not sum

    def test_wall_at_least_max_component(self):
        c = _clock()
        c.charge("compute", 0.1)
        c.charge("transfer_bytes", 0.8, track="stream:copy")
        c.sync_tracks()
        assert c.total_seconds >= 0.8

    def test_disjoint_tracks_still_bounded(self):
        # Back-to-back same-track work serializes on its own queue.
        c = _clock()
        for _ in range(5):
            c.charge("compute", 0.1, track="stream:k")
        c.sync_tracks()
        assert c.total_seconds == pytest.approx(0.5)
        assert c.busy_seconds == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_schedules_hold_both_bounds(self, seed):
        rng = random.Random(seed)
        c = _clock()
        per_track: dict[str, float] = {"host": 0.0}
        for _ in range(60):
            roll = rng.random()
            if roll < 0.3:
                s = rng.uniform(0.0, 0.1)
                c.charge("compute", s)
                per_track["host"] += s
            elif roll < 0.9:
                track = f"stream:{rng.randrange(3)}"
                s = rng.uniform(0.0, 0.1)
                c.charge("transfer_bytes", s, track=track)
                per_track[track] = per_track.get(track, 0.0) + s
            else:
                c.sync_tracks()
        c.sync_tracks()
        serial_sum = sum(per_track.values())
        assert c.total_seconds <= serial_sum + 1e-9
        assert c.total_seconds >= max(per_track.values()) - 1e-9
        assert c.busy_seconds == pytest.approx(serial_sum)


class TestMergeWithTracks:
    def test_merge_rebases_track_events(self):
        outer = _clock()
        outer.charge("compute", 1.0)
        inner = SimClock()
        inner.set_phase("inner")
        inner.charge("compute", 0.5, track="stream:k")
        inner.sync_tracks()
        outer.merge([inner])
        # The absorbed stream work lands after the outer cursor, not at 0.
        assert outer.total_seconds == pytest.approx(1.5)
        track_events = [e for e in outer.events if e.track]
        assert track_events and min(e.start for e in track_events) >= 1.0

    def test_merge_counts_unsynced_track_tail(self):
        outer = _clock()
        inner = SimClock()
        inner.set_phase("inner")
        inner.charge("compute", 0.5, track="stream:k")  # never synced
        outer.merge([inner])
        assert outer.total_seconds == pytest.approx(0.5)
