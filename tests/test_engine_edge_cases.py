"""Edge-case and failure-injection tests for the engines."""

import pytest

from repro.engines import (
    NFAEngine,
    build_runtime,
    reference_match_keys,
)
from repro.events import Event, Stream
from repro.patterns import decompose, parse_pattern
from repro.plans import OrderPlan, TreePlan, enumerate_bushy_trees, enumerate_orders, join

from .conftest import make_stream


class TestSharedEventTypes:
    """One event type bound at two different pattern positions."""

    PATTERN = "PATTERN SEQ(A first, A second) WHERE first.x < second.x WITHIN 5"

    def test_event_not_reused_within_match(self):
        stream = Stream(
            [Event("A", 1.0, {"x": 1}), Event("A", 2.0, {"x": 5})]
        )
        d = decompose(parse_pattern(self.PATTERN))
        for order in enumerate_orders(d.positive_variables):
            matches = NFAEngine(d, order).run(stream)
            assert len(matches) == 1
            assert matches[0]["first"].seq != matches[0]["second"].seq

    def test_both_engines_agree(self):
        stream = make_stream(31, count=40, types="A")
        d = decompose(parse_pattern(self.PATTERN))
        expected = reference_match_keys(d, stream)
        assert expected, "workload should produce matches"
        for order in enumerate_orders(d.positive_variables):
            got = {m.key() for m in NFAEngine(d, order).run(stream)}
            assert got == expected
        for tree in enumerate_bushy_trees(d.positive_variables):
            got = {m.key() for m in build_runtime(d, tree).run(stream)}
            assert got == expected


class TestWindowBoundaries:
    def test_exactly_window_apart_included(self):
        # WITHIN W means max difference <= W (Section 2.1).
        stream = Stream([Event("A", 0.0), Event("B", 5.0)])
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        matches = NFAEngine(d, OrderPlan(("a", "b"))).run(stream)
        assert len(matches) == 1

    def test_just_over_window_excluded(self):
        stream = Stream([Event("A", 0.0), Event("B", 5.0001)])
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        assert NFAEngine(d, OrderPlan(("a", "b"))).run(stream) == []

    def test_equal_timestamps_fail_seq_order(self):
        stream = Stream([Event("A", 1.0), Event("B", 1.0)])
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        assert NFAEngine(d, OrderPlan(("a", "b"))).run(stream) == []

    def test_equal_timestamps_match_conjunction(self):
        stream = Stream([Event("A", 1.0), Event("B", 1.0)])
        d = decompose(parse_pattern("PATTERN AND(A a, B b) WITHIN 5"))
        assert len(NFAEngine(d, OrderPlan(("a", "b"))).run(stream)) == 1


class TestStreamsWithoutWork:
    def test_empty_stream(self):
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        engine = NFAEngine(d, OrderPlan(("a", "b")))
        assert engine.run(Stream()) == []
        assert engine.metrics.events_processed == 0

    def test_unrelated_types_ignored_cheaply(self):
        stream = Stream([Event("Z", float(i)) for i in range(50)])
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        engine = NFAEngine(d, OrderPlan(("a", "b")))
        assert engine.run(stream) == []
        assert engine.metrics.partial_matches_created == 0
        assert engine.metrics.peak_buffered_events == 0

    def test_only_first_type_present(self):
        stream = Stream([Event("A", float(i)) for i in range(10)])
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        engine = NFAEngine(d, OrderPlan(("a", "b")))
        assert engine.run(stream) == []
        # Partial matches accumulate but never complete; window pruning
        # keeps the live count bounded.
        assert engine.metrics.peak_partial_matches <= 10


class TestWindowPruning:
    def test_live_state_stays_bounded_on_long_streams(self):
        # 500 events, window 2: state must track the window, not the
        # stream.
        stream = make_stream(12, count=500, types="AB", step_low=0.2,
                             step_high=0.4)
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 2"))
        engine = NFAEngine(d, OrderPlan(("a", "b")))
        engine.run(stream)
        assert engine.metrics.peak_partial_matches < 30
        assert engine.metrics.peak_buffered_events < 30

    def test_tree_stores_pruned_too(self):
        stream = make_stream(13, count=500, types="AB", step_low=0.2,
                             step_high=0.4)
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 2"))
        engine = build_runtime(d, TreePlan(join("a", "b")))
        engine.run(stream)
        assert engine.metrics.peak_partial_matches < 40


class TestProcessIncrementally:
    def test_process_returns_only_new_matches(self):
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        engine = NFAEngine(d, OrderPlan(("a", "b")))
        stream = Stream(
            [Event("A", 1.0), Event("B", 2.0), Event("B", 3.0)]
        )
        per_event = [len(engine.process(e)) for e in stream]
        assert per_event == [0, 1, 1]

    def test_finalize_idempotent(self):
        d = decompose(parse_pattern("PATTERN SEQ(A a, C c, NOT(B b)) WITHIN 5"))
        engine = NFAEngine(d, OrderPlan(("a", "c")))
        for event in Stream([Event("A", 1.0), Event("C", 2.0)]):
            engine.process(event)
        first = engine.finalize()
        second = engine.finalize()
        assert len(first) == 1
        assert second == []


class TestTrailingNegationInterleaving:
    def test_pending_match_killed_by_late_forbidden_event(self):
        d = decompose(
            parse_pattern("PATTERN SEQ(A a, C c, NOT(B b)) WITHIN 5")
        )
        engine = NFAEngine(d, OrderPlan(("a", "c")))
        matches = []
        for event in Stream(
            [Event("A", 1.0), Event("C", 2.0), Event("B", 3.0),
             Event("A", 20.0)]
        ):
            matches.extend(engine.process(event))
        matches.extend(engine.finalize())
        assert matches == []

    def test_pending_survives_nonmatching_forbidden_event(self):
        d = decompose(
            parse_pattern(
                "PATTERN SEQ(A a, C c, NOT(B b)) WHERE b.x = a.x WITHIN 5"
            )
        )
        engine = NFAEngine(d, OrderPlan(("a", "c")))
        matches = []
        stream = Stream(
            [
                Event("A", 1.0, {"x": 1}),
                Event("C", 2.0, {"x": 1}),
                Event("B", 3.0, {"x": 2}),  # different x: no veto
                Event("A", 20.0, {"x": 9}),
            ]
        )
        for event in stream:
            matches.extend(engine.process(event))
        matches.extend(engine.finalize())
        assert len(matches) == 1

    def test_multiple_pending_with_different_deadlines(self):
        d = decompose(
            parse_pattern("PATTERN SEQ(A a, C c, NOT(B b)) WITHIN 5")
        )
        engine = NFAEngine(d, OrderPlan(("a", "c")))
        stream = Stream(
            [
                Event("A", 1.0),
                Event("C", 2.0),
                Event("A", 3.0),
                Event("C", 4.0),
                Event("Z", 30.0),
            ]
        )
        matches = []
        for event in stream:
            matches.extend(engine.process(event))
        matches.extend(engine.finalize())
        # (a@1,c@2), (a@1,c@4), (a@3,c@4) — all released, no B arrived.
        assert len(matches) == 3
        deadlines = sorted(m.detection_ts for m in matches)
        assert deadlines == [pytest.approx(6.0), pytest.approx(6.0),
                             pytest.approx(8.0)]


class TestDeterminism:
    def test_same_stream_same_metrics(self):
        stream = make_stream(21, count=100)
        d = decompose(
            parse_pattern("PATTERN SEQ(A a, B b, C c) WHERE a.x = c.x WITHIN 4")
        )
        runs = []
        for _ in range(2):
            engine = NFAEngine(d, OrderPlan(("c", "a", "b")))
            engine.run(stream)
            summary = engine.metrics.summary()
            summary.pop("mean_wall_latency")
            # Codegen counters depend on the process-global source cache
            # (the second run hits where the first generated), not on the
            # stream -- exclude them like wall-clock latency.
            summary.pop("kernels_generated", None)
            summary.pop("codegen_cache_hits", None)
            runs.append(summary)
        assert runs[0] == runs[1]
