"""Integration tests: planner pipeline, engine factory, disjunctions."""

import pytest

from repro.cost import HybridCostModel, NextMatchCostModel, ThroughputCostModel
from repro.engines import (
    EngineSnapshot,
    NFAEngine,
    build_engine,
    build_engines,
    reference_match_keys,
)
from repro.errors import OptimizerError
from repro.multiquery import DagEngine
from repro.optimizers import plan_pattern, resolve_cost_model, total_cost
from repro.optimizers.planner import replan
from repro.patterns import decompose, nested_to_dnf, parse_pattern
from repro.stats import StatisticsCatalog

from .conftest import make_stream


@pytest.fixture
def catalog(abc_catalog):
    return abc_catalog


class TestResolveCostModel:
    def test_default_is_throughput(self, catalog):
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        assert isinstance(resolve_cost_model(d), ThroughputCostModel)

    def test_next_uses_min_rate_model(self, catalog):
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        assert isinstance(
            resolve_cost_model(d, selection="next"), NextMatchCostModel
        )

    def test_alpha_wraps_hybrid(self):
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        model = resolve_cost_model(d, alpha=0.5)
        assert isinstance(model, HybridCostModel)
        assert model.latency.last_variable == "b"

    def test_alpha_on_conjunction_requires_hint(self):
        d = decompose(parse_pattern("PATTERN AND(A a, B b) WITHIN 5"))
        with pytest.raises(OptimizerError):
            resolve_cost_model(d, alpha=0.5)
        model = resolve_cost_model(d, alpha=0.5, last_variable="a")
        assert model.latency.last_variable == "a"

    def test_unknown_selection(self):
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        with pytest.raises(OptimizerError):
            resolve_cost_model(d, selection="never")


class TestPlanPattern:
    def test_simple_pattern_single_plan(self, catalog):
        pattern = parse_pattern(
            "PATTERN SEQ(A a, B b, C c) WHERE a.x = c.x WITHIN 5"
        )
        planned = plan_pattern(pattern, catalog, algorithm="DP-LD")
        assert len(planned) == 1
        assert planned[0].algorithm == "DP-LD"
        assert planned[0].cost > 0
        assert set(planned[0].plan.variables) == {"a", "b", "c"}

    def test_tree_algorithm_yields_tree_plan(self, catalog):
        pattern = parse_pattern("PATTERN SEQ(A a, B b, C c) WITHIN 5")
        planned = plan_pattern(pattern, catalog, algorithm="DP-B")
        assert planned[0].is_tree

    def test_nested_pattern_one_plan_per_disjunct(self, catalog):
        pattern = parse_pattern(
            "PATTERN OR(SEQ(A a, B b), SEQ(C c, D d)) WITHIN 5"
        )
        planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
        assert len(planned) == 2
        assert total_cost(planned) == pytest.approx(
            sum(p.cost for p in planned)
        )

    def test_optimizer_kwargs_forwarded(self, catalog):
        pattern = parse_pattern("PATTERN SEQ(A a, B b, C c) WITHIN 5")
        planned = plan_pattern(
            pattern, catalog, algorithm="II-RANDOM", seed=3, restarts=2
        )
        assert planned[0].algorithm == "II-RANDOM"


class TestEngineFactory:
    def test_order_plan_builds_nfa(self, catalog):
        pattern = parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5")
        planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
        assert isinstance(build_engine(planned[0]), NFAEngine)

    def test_tree_plan_builds_tree_engine(self, catalog):
        pattern = parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5")
        planned = plan_pattern(pattern, catalog, algorithm="ZSTREAM")
        engine = build_engine(planned[0])
        assert isinstance(engine, DagEngine)
        assert len(engine.plan.roots) == 1

    def test_disjunction_wrapped(self, catalog):
        pattern = parse_pattern(
            "PATTERN OR(SEQ(A a, B b), SEQ(C c, D d)) WITHIN 5"
        )
        planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
        engine = build_engines(planned)
        assert isinstance(engine, DagEngine)
        assert [root.query for root in engine.plan.roots] == [
            item.pattern.name for item in planned
        ]

    def test_empty_rejected(self):
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            build_engines([])

    def test_disjunction_snapshot_round_trip(self, catalog):
        """export_state / build_engines(seed=...) across a disjunction."""
        pattern = parse_pattern(
            "PATTERN OR(SEQ(A a, B b), SEQ(C c, D d)) WITHIN 5"
        )
        planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
        stream = list(make_stream(seed=4, count=60, types="ABCD"))
        donor = build_engines(planned)
        for event in stream[:30]:
            donor.process(event)
        snapshot = donor.export_state()
        assert isinstance(snapshot, EngineSnapshot)
        assert len(snapshot.consumed) == 2  # one set per disjunct
        seeded = build_engines(planned, seed=snapshot)
        donor_tail, seeded_tail = [], []
        for event in stream[30:]:
            donor_tail.extend(donor.process(event))
            seeded_tail.extend(seeded.process(event))
        assert {m.key() for m in seeded_tail} == {
            m.key() for m in donor_tail
        }


#: ``OR(SEQ(A a, B b, C c), AND(A e, C d)) WHERE a.x = c.x`` under the
#: consuming strategies on ``make_stream(3, count=60, types="ABC")``:
#: ``(disjunct, bound sequence numbers)`` in emission order, pinned to
#: one independent tree runtime per DNF disjunct.  Each disjunct
#: consumes its own events; events 41 and 42 complete both disjuncts in
#: one ``process`` call, disjunct 0 first.
CONSUMING_DISJUNCTION = {
    "DP-B": [
        ("1", "d0 e2"), ("1", "d1 e4"), ("1", "d5 e6"), ("1", "d7 e10"),
        ("0", "a10 b12 c13"), ("1", "d8 e14"), ("1", "d9 e15"),
        ("0", "a14 b17 c19"), ("1", "d16 e21"), ("1", "d19 e25"),
        ("0", "a21 b23 c26"), ("1", "d22 e27"), ("1", "d24 e29"),
        ("1", "d26 e30"), ("0", "a27 b28 c33"), ("1", "d32 e35"),
        ("1", "d33 e36"), ("0", "a35 b38 c41"), ("1", "d41 e37"),
        ("0", "a36 b39 c42"), ("1", "d42 e40"), ("0", "a40 b45 c46"),
        ("1", "d43 e47"),
    ],
    "ZSTREAM": [
        ("1", "d0 e2"), ("1", "d1 e4"), ("1", "d5 e6"), ("1", "d7 e10"),
        ("0", "a10 b12 c13"), ("1", "d8 e14"), ("1", "d9 e15"),
        ("0", "a14 b17 c19"), ("1", "d16 e21"), ("1", "d19 e25"),
        ("1", "d22 e27"), ("1", "d24 e29"), ("1", "d26 e30"),
        ("0", "a27 b28 c33"), ("1", "d32 e35"), ("1", "d33 e36"),
        ("1", "d41 e37"), ("1", "d42 e40"), ("1", "d43 e47"),
    ],
}


class TestConsumingDisjunction:
    """A disjunction under ``next``/``strict``: per-disjunct consumption,
    matches and emission order pinned."""

    @pytest.mark.parametrize("algorithm", sorted(CONSUMING_DISJUNCTION))
    @pytest.mark.parametrize("selection", ["next", "strict"])
    def test_matches_and_order_are_pinned(self, selection, algorithm):
        from repro import estimate_pattern_catalog

        pattern = parse_pattern(
            "PATTERN OR(SEQ(A a, B b, C c), AND(A e, C d)) "
            "WHERE a.x = c.x WITHIN 3"
        )
        stream = make_stream(seed=3, count=60, types="ABC")
        planned = plan_pattern(
            pattern, estimate_pattern_catalog(pattern, stream),
            algorithm=algorithm, selection=selection,
        )
        assert len(planned) == 2 and all(item.is_tree for item in planned)
        got = [
            (
                match.pattern_name[-1],
                " ".join(
                    f"{variable}{event.seq}"
                    for variable, event in sorted(match.bindings.items())
                ),
            )
            for match in build_engines(planned).run(stream)
        ]
        assert got == CONSUMING_DISJUNCTION[algorithm]


class TestReplan:
    """Adaptive re-planning keeps the pattern setup, swaps statistics."""

    def test_replan_reflects_new_rates(self, catalog):
        pattern = parse_pattern("PATTERN SEQ(A a, B b, C c) WITHIN 5")
        planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
        flipped = StatisticsCatalog(
            {"A": 100.0, "B": 0.01, "C": 50.0}, catalog.selectivities
        )
        refreshed = replan(planned, flipped)
        assert len(refreshed) == len(planned)
        item, new = planned[0], refreshed[0]
        assert new.pattern is item.pattern
        assert new.decomposed is item.decomposed
        assert new.cost_model is item.cost_model
        assert new.selection == item.selection
        assert new.stats.rate("b") == pytest.approx(0.01)
        # GREEDY starts from the cheapest variable: the rate flip must
        # reorder the plan.
        assert new.plan.variables != item.plan.variables
        assert new.plan.variables[0] == "b"

    def test_replan_reflects_new_selectivities(self, catalog):
        pattern = parse_pattern(
            "PATTERN SEQ(A a, B b, C c) WHERE a.x = b.x WITHIN 5"
        )
        planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
        sharpened = catalog.updated(
            selectivities={frozenset(("a", "b")): 0.001}
        )
        refreshed = replan(planned, sharpened)
        assert refreshed[0].stats.selectivity("a", "b") == pytest.approx(
            0.001
        )

    def test_replan_algorithm_override(self, catalog):
        from repro.optimizers import make_optimizer

        pattern = parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5")
        planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
        refreshed = replan(
            planned, catalog, optimizer=make_optimizer("ZSTREAM")
        )
        assert refreshed[0].algorithm == "ZSTREAM"
        assert refreshed[0].is_tree


class TestDisjunctionExecution:
    def test_union_of_disjunct_matches(self, catalog):
        pattern = parse_pattern(
            "PATTERN OR(SEQ(A a, B b), SEQ(B b2, C c2)) WITHIN 4"
        )
        stream = make_stream(3, count=60)
        planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
        engine = build_engines(planned)
        matches = engine.run(stream)
        expected = set()
        for sub in nested_to_dnf(pattern):
            expected |= reference_match_keys(decompose(sub), stream)
        assert {m.key() for m in matches} == expected

    def test_disjunction_metrics_merge(self, catalog):
        pattern = parse_pattern(
            "PATTERN OR(SEQ(A a, B b), SEQ(B b2, C c2)) WITHIN 4"
        )
        stream = make_stream(3, count=40)
        engine = build_engines(plan_pattern(pattern, catalog))
        engine.run(stream)
        metrics = engine.metrics
        assert metrics.events_processed == 40
        assert metrics.peak_partial_matches >= 0

    def test_pattern_name_attached_to_matches(self, catalog):
        pattern = parse_pattern(
            "PATTERN OR(SEQ(A a, B b), SEQ(C c, D d)) WITHIN 4",
            name="disjunction_demo",
        )
        stream = make_stream(5, count=60, types="ABCD")
        engine = build_engines(plan_pattern(pattern, catalog))
        matches = engine.run(stream)
        assert matches, "workload should produce at least one match"
        assert all("disjunction_demo#dnf" in m.pattern_name for m in matches)


class TestEndToEndAgainstReference:
    @pytest.mark.parametrize(
        "algorithm", ["TRIVIAL", "EFREQ", "GREEDY", "DP-LD", "ZSTREAM", "DP-B"]
    )
    def test_all_algorithms_same_matches(self, algorithm, catalog):
        pattern = parse_pattern(
            "PATTERN SEQ(A a, B b, C c) WHERE a.x = c.x WITHIN 4"
        )
        stream = make_stream(17, count=70)
        d = decompose(pattern)
        expected = reference_match_keys(d, stream)
        planned = plan_pattern(pattern, catalog, algorithm=algorithm)
        engine = build_engines(planned)
        assert {m.key() for m in engine.run(stream)} == expected
