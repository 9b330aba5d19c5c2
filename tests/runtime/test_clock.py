"""Unit tests for the simulated clock / cost ledger."""

import pytest

from repro.runtime.clock import OVERHEAD_CATEGORIES, VOLUME_CATEGORIES, SimClock


class TestCharging:
    def test_accumulates(self, clock):
        clock.charge("compute", 0.5)
        clock.charge("memory", 0.25)
        assert clock.total_seconds == pytest.approx(0.75)

    def test_phase_attribution(self):
        c = SimClock()
        c.set_phase("a")
        c.charge("compute", 1.0)
        c.set_phase("b")
        c.charge("compute", 2.0)
        assert c.seconds_by_phase() == {"a": 1.0, "b": 2.0}
        assert c.seconds_for(phase="b") == 2.0
        assert c.seconds_for(category="compute") == 3.0

    def test_negative_rejected(self, clock):
        with pytest.raises(ValueError):
            clock.charge("compute", -1.0)

    def test_counts(self, clock):
        clock.charge("memory", 0.1, count=128)
        clock.charge("memory", 0.1, count=64)
        assert clock.counts_by_category()["memory"] == 192

    def test_merge(self, clock):
        other = SimClock()
        other.set_phase("x")
        other.charge("launch", 0.3)
        clock.merge([other])
        assert clock.total_seconds == pytest.approx(0.3)

    def test_breakdown_text(self, clock):
        clock.charge("compute", 1.5)
        assert "1.5" in clock.breakdown()

    def test_unknown_category_rejected(self, clock):
        with pytest.raises(ValueError, match="unknown cost category"):
            clock.charge("warp_shuffle", 0.1)


class TestBreakdownShares:
    def test_by_phase_percent_shares(self):
        c = SimClock()
        c.set_phase("coarsening")
        c.charge("compute", 3.0)
        c.set_phase("initpart")
        c.charge("compute", 1.0)
        shares = c.breakdown(by="phase")
        assert shares == {"coarsening": 75.0, "initpart": 25.0}
        assert sum(shares.values()) == pytest.approx(100.0)

    def test_by_category_percent_shares(self, clock):
        clock.charge("compute", 1.0)
        clock.charge("memory", 1.0)
        clock.charge("launch", 2.0)
        shares = clock.breakdown(by="category")
        assert shares["launch"] == pytest.approx(50.0)
        assert shares["compute"] == pytest.approx(25.0)

    @pytest.mark.parametrize("by", ["phase", "category"])
    def test_shares_sum_to_100_under_overlap(self, by):
        # Overlap makes wall time smaller than the sum of the events, so
        # shares of the charged (busy) time are what sums to 100.
        c = SimClock()
        c.set_phase("coarsening-gpu")
        c.charge("transfer_bytes", 1.0, track="stream:copy")
        c.charge("compute", 2.0)  # host, overlapping the copy
        c.sync_tracks()
        assert (c.total_seconds, c.busy_seconds) == (2.0, 3.0)
        assert sum(c.breakdown(by=by).values()) == pytest.approx(100.0)

    def test_empty_clock_all_zero(self):
        assert SimClock().breakdown(by="phase") == {}
        c = SimClock()
        c.set_phase("p")
        c.charge("compute", 0.0)
        assert c.breakdown(by="phase") == {"p": 0.0}

    def test_unknown_by_rejected(self, clock):
        with pytest.raises(ValueError, match="breakdown by"):
            clock.breakdown(by="kernel")


class TestExtrapolation:
    def test_volume_scales_linearly(self, clock):
        clock.charge("memory", 1.0)
        assert clock.extrapolated_seconds(10.0, overhead_factor=1.0) == pytest.approx(10.0)

    def test_overhead_scales_by_levels(self, clock):
        clock.charge("launch", 1.0)
        assert clock.extrapolated_seconds(1000.0, overhead_factor=2.0) == pytest.approx(2.0)

    def test_default_overhead_factor_is_logarithmic(self, clock):
        clock.charge("launch", 1.0)
        t = clock.extrapolated_seconds(1024.0)
        assert 1.0 < t < 2.0  # 1 + log2(1024)/20 = 1.5

    def test_identity_at_factor_one(self, clock):
        clock.charge("memory", 0.5)
        clock.charge("launch", 0.5)
        assert clock.extrapolated_seconds(1.0) == pytest.approx(1.0)

    def test_invalid_factor(self, clock):
        with pytest.raises(ValueError):
            clock.extrapolated_seconds(0.0)

    def test_category_sets_disjoint(self):
        assert not (VOLUME_CATEGORIES & OVERHEAD_CATEGORIES)
