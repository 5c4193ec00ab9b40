"""Tests for the simulated clock and cost profile."""

from dataclasses import fields

import pytest

from repro.common.clock import CostProfile, SimClock


class TestAdvance:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)


class TestParallelRegion:
    def test_parallel_takes_max_of_tracks(self):
        clock = SimClock()
        with clock.parallel():
            clock.charge("remote", 5.0)
            clock.charge("local", 2.0)
        assert clock.now == 5.0

    def test_parallel_accumulates_per_track(self):
        clock = SimClock()
        with clock.parallel():
            clock.charge("remote", 1.0)
            clock.charge("remote", 1.0)
            clock.charge("local", 1.5)
        assert clock.now == 2.0

    def test_plain_advance_inside_region_is_local_track(self):
        clock = SimClock()
        with clock.parallel():
            clock.advance(4.0)
            clock.charge("remote", 1.0)
        assert clock.now == 4.0

    def test_empty_region_adds_nothing(self):
        clock = SimClock()
        with clock.parallel():
            pass
        assert clock.now == 0.0

    def test_regions_do_not_nest(self):
        clock = SimClock()
        with clock.parallel():
            with pytest.raises(RuntimeError):
                with clock.parallel():
                    pass

    def test_sequential_after_parallel(self):
        clock = SimClock()
        with clock.parallel():
            clock.charge("remote", 3.0)
        clock.advance(1.0)
        assert clock.now == 4.0

    def test_charge_outside_region_is_sequential(self):
        clock = SimClock()
        clock.charge("anything", 2.0)
        assert clock.now == 2.0

    def test_tracks_readable_inside_region(self):
        clock = SimClock()
        with clock.parallel() as region:
            clock.charge("remote", 1.0)
            assert region.tracks == {"remote": 1.0}


class TestCostProfile:
    def test_remote_dominates_local(self):
        profile = CostProfile()
        assert profile.remote_latency > profile.transfer_per_tuple > profile.cache_per_tuple

    def test_scaled(self):
        profile = CostProfile().scaled(2.0)
        base = CostProfile()
        assert profile.remote_latency == 2 * base.remote_latency
        assert profile.cache_per_tuple == 2 * base.cache_per_tuple

    @pytest.mark.parametrize("unit", [f.name for f in fields(CostProfile)])
    def test_a_negative_unit_cost_is_rejected(self, unit):
        with pytest.raises(ValueError, match=unit):
            CostProfile(**{unit: -1.0})

    def test_scaled_inherits_the_check(self):
        with pytest.raises(ValueError):
            CostProfile().scaled(-1.0)
        assert CostProfile().scaled(0.0).remote_latency == 0.0
