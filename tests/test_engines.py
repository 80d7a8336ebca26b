"""Behavioural tests for the NFA and tree engines."""

import pytest

from repro.engines import (
    Match,
    NFAEngine,
    OutputProfiler,
    build_runtime,
    reference_match_keys,
)
from repro.errors import EngineError
from repro.events import Event, Stream
from repro.patterns import decompose, parse_pattern
from repro.plans import OrderPlan, TreePlan, join

from .conftest import make_stream


def run_nfa(pattern_text, stream, order=None, **kwargs):
    d = decompose(parse_pattern(pattern_text))
    plan = OrderPlan(order) if order else OrderPlan(d.positive_variables)
    engine = NFAEngine(d, plan, **kwargs)
    return engine, engine.run(stream)


class TestNFABasics:
    def test_simple_sequence_detection(self):
        stream = Stream(
            [
                Event("A", 1.0, {"x": 1}),
                Event("B", 2.0, {"x": 1}),
                Event("A", 3.0, {"x": 2}),
                Event("B", 4.0, {"x": 2}),
            ]
        )
        engine, matches = run_nfa(
            "PATTERN SEQ(A a, B b) WHERE a.x = b.x WITHIN 5", stream
        )
        assert len(matches) == 2
        assert all(m["a"].timestamp < m["b"].timestamp for m in matches)

    def test_window_excludes_distant_pairs(self):
        stream = Stream([Event("A", 0.0), Event("B", 10.0)])
        _, matches = run_nfa("PATTERN SEQ(A a, B b) WITHIN 5", stream)
        assert matches == []

    def test_sequence_order_enforced_under_reordered_plan(self):
        stream = Stream([Event("B", 1.0), Event("A", 2.0), Event("B", 3.0)])
        _, matches = run_nfa(
            "PATTERN SEQ(A a, B b) WITHIN 5", stream, order=("b", "a")
        )
        assert len(matches) == 1
        assert matches[0]["b"].timestamp == 3.0

    def test_plan_must_cover_positives(self):
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            NFAEngine(d, OrderPlan(("a",)))

    def test_single_variable_pattern(self):
        stream = Stream([Event("A", 1.0, {"x": 5}), Event("A", 2.0, {"x": -5})])
        _, matches = run_nfa(
            "PATTERN SEQ(A a, B b) WHERE a.x > 0 WITHIN 5",
            Stream([]),
        )
        assert matches == []
        d = decompose(
            parse_pattern("PATTERN AND(A a, A2 dummy) WHERE a.x > 0 WITHIN 5")
        )

    def test_unary_filter_applied(self):
        stream = Stream(
            [Event("A", 1.0, {"x": -1}), Event("B", 2.0, {"x": 0})]
        )
        _, matches = run_nfa(
            "PATTERN SEQ(A a, B b) WHERE a.x > 0 WITHIN 5", stream
        )
        assert matches == []

    def test_metrics_populated(self):
        stream = make_stream(1, count=50, types="AB")
        engine, matches = run_nfa("PATTERN SEQ(A a, B b) WITHIN 3", stream)
        metrics = engine.metrics
        assert metrics.events_processed == 50
        assert metrics.matches_emitted == len(matches)
        assert metrics.peak_partial_matches > 0
        assert metrics.partial_matches_created >= len(matches)

    def test_latency_zero_when_plan_order_is_temporal(self):
        stream = Stream([Event("A", 1.0), Event("B", 2.0)])
        _, matches = run_nfa("PATTERN SEQ(A a, B b) WITHIN 5", stream)
        assert matches[0].latency == 0.0

    def test_latency_positive_for_out_of_order_plan(self):
        # Plan waits for A-after-B bookkeeping: B arrives last in pattern
        # time but first in plan order; the match completes when the later
        # buffered pairing happens.
        stream = Stream([Event("A", 1.0), Event("B", 2.0), Event("A", 3.0)])
        _, matches = run_nfa(
            "PATTERN SEQ(A a, B b) WITHIN 5", stream, order=("b", "a")
        )
        # match (a@1, b@2) is only detected when a@3 arrives? No: pairing
        # happens when the b instance scans the buffer at creation, i.e.
        # at t=2. Latency stays 0 for that match.
        for match in matches:
            assert match.latency >= 0.0


class TestTreeBasics:
    def test_bushy_plan_detection(self):
        d = decompose(
            parse_pattern(
                "PATTERN SEQ(A a, B b, C c, D d) WHERE a.x = d.x WITHIN 10"
            )
        )
        plan = TreePlan(join(join("a", "d"), join("b", "c")))
        stream = make_stream(5, count=80, types="ABCD")
        engine = build_runtime(d, plan)
        matches = engine.run(stream)
        expected = reference_match_keys(d, stream)
        assert {m.key() for m in matches} == expected

    def test_tree_counts_leaf_instances_as_pms(self):
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        stream = Stream([Event("A", 1.0)])
        engine = build_runtime(d, TreePlan(join("a", "b")))
        engine.run(stream)
        assert engine.metrics.peak_partial_matches == 1

    def test_invalid_plan_rejected(self):
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            build_runtime(d, TreePlan(join("a", "z")))


class TestNegationBehaviour:
    def test_internal_negation_blocks(self):
        stream = Stream(
            [Event("A", 1.0), Event("B", 2.0), Event("C", 3.0)]
        )
        _, matches = run_nfa(
            "PATTERN SEQ(A a, NOT(B b), C c) WITHIN 5", stream
        )
        assert matches == []

    def test_internal_negation_outside_range_ok(self):
        stream = Stream(
            [Event("B", 0.5), Event("A", 1.0), Event("C", 3.0), Event("B", 4.0)]
        )
        _, matches = run_nfa(
            "PATTERN SEQ(A a, NOT(B b), C c) WITHIN 5", stream
        )
        assert len(matches) == 1

    def test_trailing_negation_blocks_until_window(self):
        stream = Stream(
            [Event("A", 1.0), Event("C", 2.0), Event("B", 3.0)]
        )
        _, matches = run_nfa(
            "PATTERN SEQ(A a, C c, NOT(B b)) WITHIN 5", stream
        )
        assert matches == []

    def test_trailing_negation_releases_after_window(self):
        stream = Stream(
            [Event("A", 1.0), Event("C", 2.0), Event("D", 99.0)]
        )
        _, matches = run_nfa(
            "PATTERN SEQ(A a, C c, NOT(B b)) WITHIN 5", stream
        )
        assert len(matches) == 1
        # Released when stream time passed the negation deadline (1+5).
        assert matches[0].detection_ts == pytest.approx(6.0)

    def test_trailing_negation_released_at_finalize(self):
        stream = Stream([Event("A", 1.0), Event("C", 2.0)])
        engine, matches = run_nfa(
            "PATTERN SEQ(A a, C c, NOT(B b)) WITHIN 5", stream
        )
        assert len(matches) == 1

    def test_bounded_negation_checked_below_the_root(self):
        """Section 5.3 placement: NOT(B nb) between ``a`` and ``c`` is
        checked at the lowest node covering both — ``join(a, c)`` of the
        plan ``((a, c), d)``, below the root — so violating instances
        never reach the root join.  The counts are pinned to the
        instance-based tree runtime's."""
        import dataclasses

        from repro import estimate_pattern_catalog, plan_pattern
        from repro.engines import build_engines

        pattern = parse_pattern(
            "PATTERN SEQ(A a, NOT(B nb), C c, D d) WITHIN 4"
        )
        stream = make_stream(5, count=120, types="ABCD")
        planned = plan_pattern(
            pattern, estimate_pattern_catalog(pattern, stream),
            algorithm="DP-B",
        )
        planned = [
            dataclasses.replace(
                planned[0], plan=TreePlan(join(join("a", "c"), "d"))
            )
        ]
        engine = build_engines(planned)
        matches = engine.run(stream)
        assert {m.key() for m in matches} == reference_match_keys(
            planned[0].decomposed, stream
        )
        assert len(matches) == 40
        assert engine.metrics.partial_matches_created == 177
        assert engine.metrics.peak_partial_matches == 19

    def test_negation_with_predicate_only_blocks_matching(self):
        stream = Stream(
            [
                Event("A", 1.0, {"x": 1}),
                Event("B", 2.0, {"x": 2}),  # x differs -> no veto
                Event("C", 3.0, {"x": 1}),
            ]
        )
        _, matches = run_nfa(
            "PATTERN SEQ(A a, NOT(B b), C c) WHERE b.x = a.x WITHIN 5",
            stream,
        )
        assert len(matches) == 1


class TestKleeneBehaviour:
    def test_subsets_generated(self):
        stream = Stream(
            [Event("A", 1.0), Event("B", 2.0), Event("B", 3.0), Event("C", 4.0)]
        )
        _, matches = run_nfa(
            "PATTERN SEQ(A a, KL(B b), C c) WITHIN 10", stream
        )
        # Subsets of {b1, b2}: {b1}, {b2}, {b1,b2} -> 3 matches.
        assert len(matches) == 3
        sizes = sorted(len(m["b"]) for m in matches)
        assert sizes == [1, 1, 2]

    def test_max_kleene_size_caps_tuples(self):
        stream = Stream(
            [Event("A", 0.0)]
            + [Event("B", 1.0 + i * 0.1) for i in range(5)]
            + [Event("C", 2.0)]
        )
        _, matches = run_nfa(
            "PATTERN SEQ(A a, KL(B b), C c) WITHIN 10",
            stream,
            max_kleene_size=2,
        )
        assert all(len(m["b"]) <= 2 for m in matches)
        # 5 singletons + C(5,2)=10 pairs
        assert len(matches) == 15

    def test_kleene_temporal_constraints(self):
        stream = Stream(
            [Event("B", 0.5), Event("A", 1.0), Event("B", 2.0), Event("C", 3.0)]
        )
        _, matches = run_nfa(
            "PATTERN SEQ(A a, KL(B b), C c) WITHIN 10", stream
        )
        # Only the B between A and C qualifies.
        assert len(matches) == 1
        assert matches[0]["b"][0].timestamp == 2.0


class TestSelectionStrategies:
    def test_unknown_selection_rejected(self):
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        with pytest.raises(EngineError):
            NFAEngine(d, OrderPlan(("a", "b")), selection="sometimes")

    def test_next_consumes_events(self):
        stream = Stream(
            [Event("A", 1.0), Event("A", 1.5), Event("B", 2.0), Event("B", 2.5)]
        )
        _, matches = run_nfa(
            "PATTERN SEQ(A a, B b) WITHIN 5", stream, selection="next"
        )
        # 2 disjoint matches instead of the 4 of skip-till-any.
        assert len(matches) == 2
        used = [m["a"].seq for m in matches] + [m["b"].seq for m in matches]
        assert len(used) == len(set(used))

    def test_any_generates_all_combinations(self):
        stream = Stream(
            [Event("A", 1.0), Event("A", 1.5), Event("B", 2.0), Event("B", 2.5)]
        )
        _, matches = run_nfa("PATTERN SEQ(A a, B b) WITHIN 5", stream)
        assert len(matches) == 4

    def test_next_match_counts_never_exceed_any(self):
        stream = make_stream(13, count=80, types="ABC")
        _, any_matches = run_nfa(
            "PATTERN SEQ(A a, B b, C c) WITHIN 4", stream
        )
        _, next_matches = run_nfa(
            "PATTERN SEQ(A a, B b, C c) WITHIN 4", stream, selection="next"
        )
        assert len(next_matches) <= len(any_matches)

    def test_tree_engine_supports_next(self):
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        stream = Stream(
            [Event("A", 1.0), Event("A", 1.5), Event("B", 2.0), Event("B", 2.5)]
        )
        engine = build_runtime(d, TreePlan(join("a", "b")), selection="next")
        matches = engine.run(stream)
        used = [m["a"].seq for m in matches] + [m["b"].seq for m in matches]
        assert len(used) == len(set(used))


class TestOutputProfiler:
    def test_most_frequent_last(self):
        stream = Stream(
            [Event("B", 1.0), Event("A", 2.0), Event("B", 3.0), Event("A", 4.0)]
        )
        d = decompose(parse_pattern("PATTERN AND(A a, B b) WITHIN 5"))
        engine = NFAEngine(d, OrderPlan(("a", "b")))
        profiler = OutputProfiler()
        profiler.observe_all(engine.run(stream))
        assert profiler.most_frequent_last() in ("a", "b")
        assert profiler.observed > 0
        distribution = profiler.last_distribution()
        assert sum(distribution.values()) == pytest.approx(1.0)

    def test_empty_profiler(self):
        profiler = OutputProfiler()
        assert profiler.most_frequent_last() is None
        assert profiler.most_frequent_order() is None
        assert profiler.last_distribution() == {}
