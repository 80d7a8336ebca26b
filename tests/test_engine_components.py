"""Unit tests for engine building blocks: buffers, matches, metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import (
    EngineMetrics,
    LatencyHistogram,
    Match,
    PartialMatch,
    VariableBuffer,
)
from repro.events import Event


def ev(type_name="A", ts=0.0, seq=0, **attrs):
    return Event(type_name, ts, attrs, seq=seq)


class TestVariableBuffer:
    def test_type_admission(self):
        buffer = VariableBuffer("a", "A")
        assert buffer.offer(ev("A", seq=0))
        assert not buffer.offer(ev("B", seq=1))
        assert len(buffer) == 1

    def test_unary_filter(self):
        buffer = VariableBuffer("a", "A", lambda e: e["x"] > 0)
        assert buffer.offer(ev("A", x=1))
        assert not buffer.offer(ev("A", x=-1))

    def test_prune_by_timestamp(self):
        buffer = VariableBuffer("a", "A")
        for i in range(5):
            buffer.offer(ev("A", ts=float(i), seq=i))
        buffer.prune(3.0)
        assert [e.seq for e in buffer] == [3, 4]

    def test_events_before_trigger(self):
        buffer = VariableBuffer("a", "A")
        for i in range(5):
            buffer.offer(ev("A", ts=float(i), seq=i))
        assert [e.seq for e in buffer.events_before(3)] == [0, 1, 2]

    def test_remove_seq(self):
        buffer = VariableBuffer("a", "A")
        for i in range(3):
            buffer.offer(ev("A", ts=float(i), seq=i))
        buffer.remove_seq(1)
        assert [e.seq for e in buffer] == [0, 2]


class TestPartialMatch:
    def test_singleton(self):
        pm = PartialMatch.singleton("a", ev(ts=2.0, seq=5))
        assert pm.trigger_seq == 5
        assert pm.min_ts == pm.max_ts == 2.0
        assert pm.event_seqs() == frozenset({5})

    def test_extended_updates_span(self):
        pm = PartialMatch.singleton("a", ev(ts=2.0, seq=0))
        pm2 = pm.extended("b", ev("B", ts=5.0, seq=3))
        assert pm2.min_ts == 2.0 and pm2.max_ts == 5.0
        assert pm2.trigger_seq == 3
        assert pm.event_seqs() == frozenset({0})  # original untouched

    def test_kleene_tuple(self):
        pm = PartialMatch.kleene_singleton("b", ev("B", ts=1.0, seq=0))
        pm2 = pm.kleene_extended("b", ev("B", ts=2.0, seq=4))
        assert pm2.bindings["b"][1].seq == 4
        assert pm2.event_seqs() == frozenset({0, 4})
        assert pm2.contains_seq(4)

    def test_merged(self):
        left = PartialMatch.singleton("a", ev(ts=1.0, seq=0))
        right = PartialMatch.singleton("b", ev("B", ts=4.0, seq=2))
        merged = left.merged(right, trigger_seq=2)
        assert set(merged.bindings) == {"a", "b"}
        assert merged.min_ts == 1.0 and merged.max_ts == 4.0

    def test_window_checks(self):
        pm = PartialMatch.singleton("a", ev(ts=1.0, seq=0))
        assert pm.span_with(ev("B", ts=5.0, seq=1), window=4.0)
        assert not pm.span_with(ev("B", ts=5.1, seq=1), window=4.0)


class TestMatch:
    def test_latency_from_last_event(self):
        pm = PartialMatch.singleton("a", ev(ts=1.0, seq=0)).extended(
            "b", ev("B", ts=3.0, seq=1)
        )
        match = Match(pm, detection_ts=4.5)
        assert match.latency == pytest.approx(1.5)
        assert match["a"].seq == 0

    def test_key_is_engine_independent(self):
        events = {"a": ev(seq=0), "b": ev("B", ts=1.0, seq=1)}
        pm1 = PartialMatch.singleton("a", events["a"]).extended(
            "b", events["b"]
        )
        pm2 = PartialMatch.singleton("b", events["b"]).extended(
            "a", events["a"], trigger_seq=1
        )
        assert Match(pm1, 2.0).key() == Match(pm2, 9.0).key()

    def test_kleene_key_sorted(self):
        pm = PartialMatch.kleene_singleton("b", ev("B", seq=2))
        pm = pm.kleene_extended("b", ev("B", ts=1.0, seq=5))
        assert ("b", (2, 5)) in Match(pm, 1.0).key()


class TestEngineMetrics:
    def test_peaks(self):
        metrics = EngineMetrics()
        metrics.note_state(5, 10)
        metrics.note_state(3, 20)
        assert metrics.peak_partial_matches == 5
        assert metrics.peak_buffered_events == 20
        assert metrics.peak_memory_units == 25

    def test_latency_summary(self):
        metrics = EngineMetrics()
        for value in (1.0, 2.0, 3.0):
            metrics.note_match(value)
        assert metrics.matches_emitted == 3
        assert metrics.mean_latency == pytest.approx(2.0)
        assert metrics.max_latency == 3.0

    def test_merge_adds_counters_and_peaks(self):
        first = EngineMetrics(events_processed=10)
        first.note_state(4, 6)
        first.note_match(1.0)
        second = EngineMetrics(events_processed=10)
        second.note_state(2, 1)
        merged = first.merge(second)
        assert merged.matches_emitted == 1
        assert merged.peak_partial_matches == 6
        assert merged.peak_memory_units == 13
        assert merged.events_processed == 20

    def test_summary_keys(self):
        summary = EngineMetrics().summary()
        assert {"events", "matches", "peak_pm", "peak_memory"} <= set(summary)
        assert {
            "selectivity_observations",
            "migrations",
            "pm_migrated",
            "matches_saved_by_migration",
        } <= set(summary)
        assert {
            "range_probes",
            "range_hits",
            "predicate_kernel_calls",
        } <= set(summary)

    def test_merge_adds_range_and_kernel_counters(self):
        first = EngineMetrics(
            range_probes=10, range_hits=7, predicate_kernel_calls=100
        )
        second = EngineMetrics(
            range_probes=5, range_hits=1, predicate_kernel_calls=40
        )
        merged = first.merge(second)
        assert merged.range_probes == 15
        assert merged.range_hits == 8
        assert merged.predicate_kernel_calls == 140
        sequential = first.merge(second, concurrent=False)
        # Counters add under the sequential (peak-max) rule too.
        assert sequential.range_probes == 15
        assert sequential.predicate_kernel_calls == 140

    def test_merge_aggregates_migration_and_selectivity_counters(self):
        first = EngineMetrics(
            selectivity_observations=7,
            migrations=1,
            pm_migrated=5,
            matches_saved_by_migration=2,
        )
        second = EngineMetrics(
            selectivity_observations=3,
            migrations=2,
            pm_migrated=4,
            matches_saved_by_migration=1,
        )
        merged = first.merge(second)
        assert merged.selectivity_observations == 10
        assert merged.migrations == 3
        assert merged.pm_migrated == 9
        assert merged.matches_saved_by_migration == 3

    def test_sequential_merge_takes_peak_max(self):
        first = EngineMetrics(events_processed=10)
        first.note_state(4, 6)
        second = EngineMetrics(events_processed=5)
        second.note_state(2, 9)
        merged = first.merge(second, concurrent=False)
        # Sequential engine generations never coexist: peaks take the
        # max, segment event counts add.
        assert merged.peak_partial_matches == 4
        assert merged.peak_buffered_events == 9
        assert merged.events_processed == 15

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_declared_merge_matches_hand_written_oracle(self, data):
        """``merge`` is one loop over the declared instrument kinds;
        it must agree field by field with the explicit constructor it
        replaced, in every merge mode."""
        from repro.engines.instruments import INSTRUMENTS

        from .metrics_merge_oracle import merge_oracle

        latency = st.floats(0.0, 100.0, allow_nan=False)

        def draw_metrics() -> EngineMetrics:
            metrics = EngineMetrics()
            for entry in INSTRUMENTS:
                if entry.kind == "samples":
                    value = data.draw(st.lists(latency, max_size=5))
                elif entry.kind == "histogram":
                    value = LatencyHistogram.of(
                        data.draw(st.lists(latency, max_size=5))
                    )
                else:
                    value = data.draw(st.integers(0, 10**6))
                setattr(metrics, entry.name, value)
            return metrics

        first, second = draw_metrics(), draw_metrics()
        for concurrent in (False, True):
            got = first.merge(second, concurrent)
            want = merge_oracle(first, second, concurrent)
            for entry in INSTRUMENTS:
                mine = getattr(got, entry.name)
                oracle = getattr(want, entry.name)
                if entry.kind == "histogram":
                    mine, oracle = (
                        [getattr(h, slot) for slot in h.__slots__]
                        for h in (mine, oracle)
                    )
                assert mine == oracle, entry.name


class TestLatencyHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert len(histogram) == 0
        assert histogram.p50 == 0.0
        assert histogram.p99 == 0.0
        assert histogram.mean == 0.0
        assert histogram.to_dict()["count"] == 0

    def test_percentiles_within_bucket_error(self):
        values = [i / 1000.0 for i in range(1, 1001)]  # 1ms .. 1s
        histogram = LatencyHistogram.of(values)
        assert len(histogram) == 1000
        # Buckets grow by 1.2x, so any quantile is within ~20% of exact.
        for q, exact in ((0.50, 0.500), (0.95, 0.950), (0.99, 0.990)):
            got = histogram.percentile(q)
            assert exact / 1.25 <= got <= exact * 1.25
        assert histogram.min == pytest.approx(0.001)
        assert histogram.max == pytest.approx(1.0)
        assert histogram.mean == pytest.approx(sum(values) / 1000.0)

    def test_extremes_clamped_and_floored(self):
        histogram = LatencyHistogram.of([-1.0, 0.0, 1e-9])
        # Negative and sub-floor samples all land in bucket 0.
        assert histogram.counts == {0: 3}
        assert histogram.min == 0.0
        assert histogram.p99 <= 1e-9  # clamped to the exactly-tracked max

    def test_single_sample_percentiles_are_exact(self):
        histogram = LatencyHistogram.of([0.25])
        assert histogram.p50 == pytest.approx(0.25)
        assert histogram.p99 == pytest.approx(0.25)

    def test_merge_equals_union(self):
        left = LatencyHistogram.of([0.001 * i for i in range(1, 50)])
        right = LatencyHistogram.of([0.01 * i for i in range(1, 100)])
        union = LatencyHistogram.of(
            [0.001 * i for i in range(1, 50)]
            + [0.01 * i for i in range(1, 100)]
        )
        merged = left.merge(right)
        assert merged.counts == union.counts
        assert merged.count == union.count
        assert merged.total == pytest.approx(union.total)
        assert merged.min == union.min and merged.max == union.max
        for q in (0.5, 0.95, 0.99):
            assert merged.percentile(q) == union.percentile(q)
        # Merge does not mutate its inputs.
        assert left.count == 49 and right.count == 99

    def test_merge_with_empty_is_identity(self):
        histogram = LatencyHistogram.of([0.1, 0.2])
        merged = histogram.merge(LatencyHistogram())
        assert merged.counts == histogram.counts
        assert merged.min == histogram.min
        assert merged.max == histogram.max

    def test_metrics_merge_combines_histograms_both_modes(self):
        first = EngineMetrics()
        first.detection_latency.record(0.010)
        first.detection_latency.record(0.020)
        second = EngineMetrics()
        second.detection_latency.record(0.500)
        for kwargs in (
            {},  # concurrent (parallel workers)
            {"concurrent": False},  # sequential
        ):
            merged = first.merge(second, **kwargs)
            assert merged.detection_latency.count == 3
            assert merged.detection_latency.min == pytest.approx(0.010)
            assert merged.detection_latency.max == pytest.approx(0.500)
        # Inputs untouched.
        assert first.detection_latency.count == 2
        assert second.detection_latency.count == 1

    def test_metrics_summary_carries_histogram(self):
        metrics = EngineMetrics()
        metrics.detection_latency.record(0.004)
        summary = metrics.summary()["detection_latency"]
        assert summary["count"] == 1
        assert summary["p50"] == pytest.approx(0.004)

    def test_histogram_pickles(self):
        import pickle

        histogram = LatencyHistogram.of([0.001, 0.1, 2.0])
        clone = pickle.loads(pickle.dumps(histogram))
        assert clone.counts == histogram.counts
        assert clone.count == 3
        assert clone.p95 == histogram.p95
