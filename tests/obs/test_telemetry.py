"""The metrics sampler: cadence, delta correctness, determinism, and the
JSONL round trip.

The load-bearing property is **sample-then-diff equals direct deltas**:
however a run's counter increments are interleaved with cadence
boundaries, summing a series' per-sample deltas must reproduce exactly
the diff of the final ledger against the ledger at attach time — sampling
is a change of representation, never a change of information.  A
hypothesis suite drives random increment/advance schedules through that
invariant.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.obs.telemetry import (
    MetricsSampler,
    TelemetrySample,
    dump_series,
    load_series,
)


def make() -> tuple[Metrics, SimClock, MetricsSampler]:
    metrics = Metrics()
    clock = SimClock()
    sampler = MetricsSampler(metrics, clock, interval=1.0)
    return metrics, clock, sampler


class TestCadence:
    def test_not_due_before_the_first_boundary(self):
        metrics, clock, sampler = make()
        metrics.incr("x")
        clock.advance(0.5)
        assert sampler.maybe_sample() is None
        assert sampler.samples == []

    def test_due_at_the_boundary(self):
        metrics, clock, sampler = make()
        clock.advance(1.0)
        sample = sampler.maybe_sample()
        assert sample is not None
        assert sample.due == 1.0
        assert sample.time == 1.0

    def test_one_sample_per_call_even_across_many_boundaries(self):
        metrics, clock, sampler = make()
        metrics.incr("x", 7)
        clock.advance(5.3)  # five boundaries crossed in one burst
        sample = sampler.maybe_sample()
        assert sample is not None
        assert sample.due == 1.0  # the first boundary that fell due
        assert sample.time == 5.3  # ...but taken at the actual time
        assert sampler.maybe_sample() is None  # cadence resumed after now
        clock.advance(0.8)  # now at 6.1 > boundary 6.0
        follow = sampler.maybe_sample()
        assert follow is not None and follow.due == 6.0

    def test_zero_or_negative_interval_is_rejected(self):
        metrics, clock, _ = make()
        with pytest.raises(ValueError):
            MetricsSampler(metrics, clock, interval=0.0)
        with pytest.raises(ValueError):
            MetricsSampler(metrics, clock, interval=-1.0)


class TestDeltas:
    def test_deltas_are_per_interval_not_cumulative(self):
        metrics, clock, sampler = make()
        metrics.incr("x", 3)
        clock.advance(1.0)
        first = sampler.maybe_sample()
        metrics.incr("x", 2)
        clock.advance(1.0)
        second = sampler.maybe_sample()
        assert first.deltas == {"x": 3}
        assert second.deltas == {"x": 2}

    def test_gauges_are_levels_not_deltas(self):
        metrics, clock, sampler = make()
        metrics.gauge_max("queue_high_water", 4)
        clock.advance(1.0)
        first = sampler.maybe_sample()
        clock.advance(1.0)
        second = sampler.maybe_sample()  # unchanged gauge still reported
        assert first.gauges == {"queue_high_water": 4}
        assert second.gauges == {"queue_high_water": 4}
        assert "queue_high_water" not in second.deltas

    def test_scope_blocks_cover_child_ledgers(self):
        metrics, clock, sampler = make()
        metrics.scope("alice").incr("hits", 2)
        metrics.scope("bob").incr("hits", 1)
        clock.advance(1.0)
        sample = sampler.maybe_sample()
        assert sample.scopes["alice"]["deltas"] == {"hits": 2}
        assert sample.scopes["bob"]["deltas"] == {"hits": 1}
        # Child increments propagated to the root ledger too.
        assert sample.deltas == {"hits": 3}

    def test_sampling_never_mutates_the_ledger_or_clock(self):
        metrics, clock, sampler = make()
        metrics.incr("x", 5)
        metrics.observe("lat", 0.25)
        clock.advance(2.0)
        before = (metrics.snapshot(), metrics.histogram_summaries(), clock.now)
        sampler.maybe_sample()
        after = (metrics.snapshot(), metrics.histogram_summaries(), clock.now)
        assert after == before


class TestSeries:
    def run_series(self) -> MetricsSampler:
        metrics, clock, sampler = make()
        for step in range(5):
            metrics.incr("x", step)
            metrics.observe("lat", 0.1 * (step + 1))
            metrics.scope("s").incr("y")
            clock.advance(0.7)
            sampler.maybe_sample()
        return sampler

    def test_round_trip_is_exact(self):
        sampler = self.run_series()
        text = sampler.to_jsonl()
        header, samples = load_series(text)
        assert header == sampler.header()
        assert dump_series(header, samples) == text
        assert [s.to_record() for s in samples] == [
            s.to_record() for s in sampler.samples
        ]

    def test_same_schedule_is_byte_identical(self):
        first, second = self.run_series(), self.run_series()
        assert first.to_jsonl() == second.to_jsonl()
        assert first.fingerprint() == second.fingerprint()

    def test_load_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_series('{"neither": 1}\n')

    def test_sample_record_shape(self):
        sample = TelemetrySample(index=0, time=1.5, due=1.0, deltas={"x": 1})
        record = sample.to_record()
        assert record["sample"] == 0
        assert record["t"] == 1.5
        assert record["due"] == 1.0
        assert TelemetrySample.from_record(record).to_record() == record


#: One schedule step: (counter index, increment, sim-time advance).
STEPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=10),
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    ),
    max_size=30,
)


class TestSampleThenDiff:
    @given(steps=STEPS)
    @settings(max_examples=200, deadline=None)
    def test_summed_deltas_equal_the_direct_counter_diff(self, steps):
        metrics = Metrics()
        clock = SimClock()
        attach_state = metrics.snapshot()
        sampler = MetricsSampler(metrics, clock, interval=1.0)
        for counter, amount, advance in steps:
            if amount:
                metrics.incr(f"c{counter}", amount)
            if advance:
                clock.advance(advance)
            sampler.maybe_sample()
        clock.advance(1.0)  # past one more boundary: flush the tail interval
        assert sampler.maybe_sample() is not None

        summed: dict[str, float] = {}
        for sample in sampler.samples:
            for name, delta in sample.deltas.items():
                summed[name] = summed.get(name, 0) + delta
        direct = metrics.diff(attach_state)
        assert summed == {k: v for k, v in direct.items() if v}
