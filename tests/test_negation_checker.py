"""Unit tests for the negation machinery (Section 5.3)."""

import pytest

from repro.engines import NegationChecker, PartialMatch
from repro.engines.negation import PreparedSpec
from repro.events import Event
from repro.patterns import Attr, Comparison, ConditionSet
from repro.patterns.transformations import NegationSpec


def ev(type_name="B", ts=0.0, seq=0, **attrs):
    return Event(type_name, ts, attrs, seq=seq)


def pm_ab(ts_a=1.0, ts_c=5.0):
    pm = PartialMatch.singleton("a", Event("A", ts_a, {}, seq=0))
    return pm.extended("c", Event("C", ts_c, {}, seq=1))


class TestPreparedSpec:
    def test_required_includes_predicate_variables(self):
        spec = NegationSpec("b", "B", preceding=("a",), following=("c",))
        conditions = ConditionSet(
            [Comparison(Attr("b", "x"), "=", Attr("d", "x"))]
        )
        prepared = PreparedSpec(spec, conditions)
        assert prepared.required == {"a", "c", "d"}

    def test_trailing_flag(self):
        bounded = PreparedSpec(
            NegationSpec("b", "B", ("a",), ("c",)), ConditionSet()
        )
        trailing = PreparedSpec(
            NegationSpec("b", "B", ("a",), ()), ConditionSet()
        )
        assert not bounded.trailing
        assert trailing.trailing

    def test_admissible_range_bounded(self):
        prepared = PreparedSpec(
            NegationSpec("b", "B", ("a",), ("c",)), ConditionSet()
        )
        lo, lo_inc, hi, hi_inc = prepared.admissible_range(pm_ab(), 10.0)
        assert (lo, hi) == (1.0, 5.0)
        assert not lo_inc and not hi_inc

    def test_admissible_range_window_sides(self):
        prepared = PreparedSpec(NegationSpec("b", "B"), ConditionSet())
        lo, lo_inc, hi, hi_inc = prepared.admissible_range(pm_ab(), 10.0)
        assert lo == pytest.approx(5.0 - 10.0)
        assert hi == pytest.approx(1.0 + 10.0)
        assert lo_inc and hi_inc


class TestNegationChecker:
    def make(self, preceding=("a",), following=("c",), predicates=()):
        spec = NegationSpec("b", "B", preceding, following)
        checker = NegationChecker([spec], ConditionSet(predicates), 10.0)
        return checker, checker.prepared[0]

    def test_inactive_without_specs(self):
        checker = NegationChecker([], ConditionSet(), 5.0)
        assert not checker.active

    def test_offer_filters_by_type(self):
        checker, _ = self.make()
        assert checker.offer(ev("B", 2.0))
        assert not checker.offer(ev("Z", 2.0))
        assert checker.buffered_events() == 1

    def test_violation_inside_range(self):
        checker, prepared = self.make()
        checker.offer(ev("B", 3.0))
        assert checker.violated(prepared, pm_ab())

    def test_no_violation_outside_range(self):
        checker, prepared = self.make()
        checker.offer(ev("B", 0.5))
        checker.offer(ev("B", 5.5))
        assert not checker.violated(prepared, pm_ab())

    def test_boundaries_exclusive_for_seq_bounds(self):
        checker, prepared = self.make()
        checker.offer(ev("B", 1.0))  # equals preceding ts -> outside
        checker.offer(ev("B", 5.0))  # equals following ts -> outside
        assert not checker.violated(prepared, pm_ab())

    def test_predicates_must_hold(self):
        predicate = Comparison(Attr("b", "x"), "=", Attr("a", "x"))
        spec = NegationSpec("b", "B", ("a",), ("c",))
        checker = NegationChecker([spec], ConditionSet([predicate]), 10.0)
        prepared = checker.prepared[0]
        pm = PartialMatch.singleton("a", Event("A", 1.0, {"x": 7}, seq=0))
        pm = pm.extended("c", Event("C", 5.0, {"x": 0}, seq=1))
        checker.offer(Event("B", 3.0, {"x": 5}, seq=2))
        assert not checker.violated(prepared, pm)
        checker.offer(Event("B", 3.5, {"x": 7}, seq=3))
        assert checker.violated(prepared, pm)

    def test_candidate_event_checked_directly(self):
        checker, prepared = self.make()
        inside = ev("B", 2.0)
        outside = ev("B", 9.0)
        assert checker.violated(prepared, pm_ab(), candidate=inside)
        assert not checker.violated(prepared, pm_ab(), candidate=outside)

    def test_deadline_is_range_end(self):
        checker, prepared = self.make(following=())
        assert checker.deadline(prepared, pm_ab()) == pytest.approx(11.0)

    def test_prune_drops_expired(self):
        checker, _ = self.make()
        checker.offer(ev("B", 1.0))
        checker.offer(ev("B", 8.0))
        checker.prune(5.0)
        assert checker.buffered_events() == 1

    def test_unary_filter_on_negated_variable(self):
        unary = Comparison(Attr("b", "x"), ">", Attr("b", "x"))
        # b.x > b.x is always false: nothing is ever buffered.
        spec = NegationSpec("b", "B", ("a",), ("c",))
        checker = NegationChecker([spec], ConditionSet([unary]), 10.0)
        assert not checker.offer(ev("B", 2.0, x=1))

    def test_specs_checkable_with(self):
        checker, prepared = self.make()
        assert checker.specs_checkable_with(frozenset({"a"})) == []
        assert checker.specs_checkable_with(frozenset({"a", "c"})) == [
            prepared
        ]

    def test_kleene_binding_in_bounds(self):
        # Preceding variable bound to a tuple: range uses the max ts.
        spec = NegationSpec("b", "B", ("k",), ())
        checker = NegationChecker([spec], ConditionSet(), 10.0)
        prepared = checker.prepared[0]
        pm = PartialMatch.kleene_singleton("k", Event("K", 1.0, {}, seq=0))
        pm = pm.kleene_extended("k", Event("K", 3.0, {}, seq=1))
        lo, lo_inc, hi, _ = prepared.admissible_range(pm, 10.0)
        assert lo == pytest.approx(3.0)
        assert not lo_inc


class TestLeadingNegation:
    """Leading NOT regression: the forbidden range ``[max_ts − W,
    following)`` is final only on the complete match, so engines must
    defer the check to completion (they used to evaluate it at the
    lowest covering node with a partial max_ts and over-reject)."""

    PATTERN = "PATTERN SEQ(NOT(C c), A a, B b) WITHIN 10"

    def stream(self):
        from repro.events import Stream

        # C@0.5 precedes A@1.0; the match completes at B@11.0, so the
        # admissible range is [1.0, 1.0) — empty — and C cannot veto.
        return Stream([Event("C", 0.5), Event("A", 1.0), Event("B", 11.0)])

    def test_leading_specs_split_from_checkable(self):
        from repro.patterns import decompose, parse_pattern

        d = decompose(parse_pattern(self.PATTERN))
        checker = NegationChecker(
            d.negations, d.negation_conditions, d.window
        )
        assert checker.specs_checkable_with(frozenset({"a", "b"})) == []
        assert len(checker.leading_specs()) == 1

    def test_engines_agree_with_reference(self):
        from repro.engines import (
            NFAEngine,
            build_runtime,
            reference_match_keys,
        )
        from repro.patterns import decompose, parse_pattern
        from repro.plans import enumerate_bushy_trees, enumerate_orders

        stream = self.stream()
        d = decompose(parse_pattern(self.PATTERN))
        expected = reference_match_keys(d, stream)
        assert len(expected) == 1
        for order in enumerate_orders(d.positive_variables):
            assert {
                m.key() for m in NFAEngine(d, order).run(stream)
            } == expected
        for tree in enumerate_bushy_trees(d.positive_variables):
            assert {
                m.key() for m in build_runtime(d, tree).run(stream)
            } == expected
