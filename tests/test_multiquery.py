"""Multi-query shared-plan subsystem tests.

The load-bearing claim (ISSUE acceptance criterion): running a workload
through one :class:`MultiQueryEngine` yields **exactly** the per-query
match sets of running each pattern through its own engine, while
merged sub-plans are evaluated once per event (less work than the sum
of independent runs).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import build_engines, plan_pattern
from repro.errors import EngineError, PlanError
from repro.multiquery import (
    MultiQueryEngine,
    SharedPlanOptimizer,
    Workload,
    canonical_subpattern,
    pattern_fingerprint,
    plan_workload,
    run_workload,
    subpattern_fingerprint,
)
from repro.patterns import decompose, parse_pattern
from repro.stats import StatisticsCatalog
from repro.workloads import (
    MultiQueryWorkloadConfig,
    generate_overlapping_workload,
    overlapping_stock_workload,
)

from .conftest import make_stream

CATALOG = StatisticsCatalog(
    {"A": 2.0, "B": 4.0, "C": 1.0, "D": 0.5},
    {frozenset(("a", "c")): 0.2},
)


def _catalog_for(pattern) -> StatisticsCatalog:
    """A rate for every type the pattern mentions (default 1.0)."""
    rates = {t: CATALOG.rates.get(t, 1.0) for t in pattern.variable_types().values()}
    return StatisticsCatalog(rates)


def independent_match_keys(pattern, stream, algorithm="GREEDY", **kwargs):
    planned = plan_pattern(pattern, _catalog_for(pattern), algorithm=algorithm)
    return Counter(
        m.key() for m in build_engines(planned, **kwargs).run(stream)
    )


def shared_match_keys(patterns, stream, algorithm="GREEDY", **run_kwargs):
    workload = Workload(patterns)
    result = run_workload(
        workload,
        stream,
        algorithm=algorithm,
        catalogs={n: _catalog_for(p) for n, p in workload.items()},
        **run_kwargs,
    )
    return workload, result


# ---------------------------------------------------------------------------
# fingerprinting
# ---------------------------------------------------------------------------

class TestFingerprints:
    def test_invariant_under_variable_renaming(self):
        first = decompose(parse_pattern(
            "PATTERN SEQ(A a, B b, C c) WHERE a.x < b.x WITHIN 5"
        ))
        second = decompose(parse_pattern(
            "PATTERN SEQ(A p, B q, C r) WHERE p.x < q.x WITHIN 5"
        ))
        assert (
            subpattern_fingerprint(first, first.positive_variables)
            == subpattern_fingerprint(second, second.positive_variables)
        )

    def test_canonical_order_aligns_renamed_variables(self):
        first = decompose(parse_pattern(
            "PATTERN SEQ(A a, B b) WHERE a.x < b.x WITHIN 5"
        ))
        second = decompose(parse_pattern(
            "PATTERN SEQ(A zz, B yy) WHERE zz.x < yy.x WITHIN 5"
        ))
        fp1, order1 = canonical_subpattern(first, first.positive_variables)
        fp2, order2 = canonical_subpattern(second, second.positive_variables)
        assert fp1 == fp2
        mapping = dict(zip(order1, order2))
        assert mapping == {"a": "zz", "b": "yy"}

    def test_window_is_part_of_the_fingerprint(self):
        base = "PATTERN SEQ(A a, B b) WITHIN {w}"
        d5 = decompose(parse_pattern(base.format(w=5)))
        d6 = decompose(parse_pattern(base.format(w=6)))
        assert (
            subpattern_fingerprint(d5, d5.positive_variables)
            != subpattern_fingerprint(d6, d6.positive_variables)
        )

    def test_predicates_distinguish(self):
        lt = decompose(parse_pattern(
            "PATTERN SEQ(A a, B b) WHERE a.x < b.x WITHIN 5"
        ))
        none = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        assert (
            subpattern_fingerprint(lt, lt.positive_variables)
            != subpattern_fingerprint(none, none.positive_variables)
        )

    def test_event_types_distinguish(self):
        ab = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        ac = decompose(parse_pattern("PATTERN SEQ(A a, C b) WITHIN 5"))
        assert (
            subpattern_fingerprint(ab, ab.positive_variables)
            != subpattern_fingerprint(ac, ac.positive_variables)
        )

    def test_kleene_flag_distinguishes(self):
        plain = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        kleene = decompose(parse_pattern("PATTERN SEQ(A a, KL(B b)) WITHIN 5"))
        assert (
            subpattern_fingerprint(plain, plain.positive_variables)
            != subpattern_fingerprint(kleene, kleene.positive_variables)
        )

    def test_seq_and_distinguished_by_ordering_predicates(self):
        seq = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        conj = decompose(parse_pattern("PATTERN AND(A a, B b) WITHIN 5"))
        assert (
            subpattern_fingerprint(seq, seq.positive_variables)
            != subpattern_fingerprint(conj, conj.positive_variables)
        )

    def test_shared_prefix_of_longer_sequences(self):
        short = decompose(parse_pattern(
            "PATTERN SEQ(A a, B b) WHERE a.x < b.x WITHIN 5"
        ))
        longer = decompose(parse_pattern(
            "PATTERN SEQ(A p, B q, D r) WHERE p.x < q.x WITHIN 5"
        ))
        assert subpattern_fingerprint(short, ("a", "b")) == (
            subpattern_fingerprint(longer, ("p", "q"))
        )

    def test_negation_does_not_block_positive_sharing(self):
        plain = parse_pattern("PATTERN SEQ(A a, C c) WITHIN 5")
        negated = parse_pattern("PATTERN SEQ(A a, NOT(B b), C c) WITHIN 5")
        assert pattern_fingerprint(plain) == pattern_fingerprint(negated)

    def test_unknown_variables_rejected(self):
        d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 5"))
        with pytest.raises(Exception):
            subpattern_fingerprint(d, ("a", "nope"))


# ---------------------------------------------------------------------------
# workload container
# ---------------------------------------------------------------------------

class TestWorkload:
    def test_parses_strings_and_uniquifies_names(self):
        text = "PATTERN SEQ(A a, B b) WITHIN 5"
        workload = Workload([text, text])
        assert len(workload) == 2
        assert len(set(workload.names)) == 2

    def test_event_types_union(self):
        workload = Workload.of(
            "PATTERN SEQ(A a, B b) WITHIN 5",
            "PATTERN SEQ(C c, D d) WITHIN 5",
        )
        assert workload.event_types() == {"A", "B", "C", "D"}

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            Workload([])


# ---------------------------------------------------------------------------
# DAG merging
# ---------------------------------------------------------------------------

OVERLAPPING = [
    "PATTERN SEQ(A a, B b) WHERE a.x < b.x WITHIN 4",
    "PATTERN SEQ(A p, B q, C r) WHERE p.x < q.x WITHIN 4",
    "PATTERN SEQ(A u, B v, D w) WHERE u.x < v.x WITHIN 4",
    "PATTERN SEQ(A m, B n, C o, D s) WHERE m.x < n.x WITHIN 4",
    "PATTERN SEQ(A g, B h) WHERE g.x < h.x WITHIN 4",
]


def _plan(patterns, algorithm="GREEDY", **opt_kwargs):
    workload = Workload(patterns)
    return plan_workload(
        workload,
        {n: _catalog_for(p) for n, p in workload.items()},
        algorithm=algorithm,
        **opt_kwargs,
    )


class TestSharedPlanDag:
    def test_overlapping_queries_merge(self):
        plan = _plan(OVERLAPPING)
        report = plan.report
        assert report.dag_nodes < report.subtrees_total
        assert report.shared_nodes >= 1
        assert report.reuse_count >= 4
        assert 0.0 < report.cost_savings < 1.0

    def test_identical_queries_fully_share(self):
        plan = _plan([
            "PATTERN SEQ(A a, B b, C c) WITHIN 4",
            "PATTERN SEQ(A x, B y, C z) WITHIN 4",
        ])
        # Second query materializes zero new nodes: one shared root.
        single = _plan(["PATTERN SEQ(A a, B b, C c) WITHIN 4"])
        assert plan.report.dag_nodes == single.report.dag_nodes
        assert len(plan.roots) == 2
        assert plan.roots[0].node is plan.roots[1].node

    def test_sharing_disabled_keeps_private_trees(self):
        plan = _plan(OVERLAPPING, sharing=False)
        assert plan.report.dag_nodes == plan.report.subtrees_total
        assert plan.report.reuse_count == 0

    def test_share_filter_vetoes_merges(self):
        plan = _plan(OVERLAPPING, share_filter=lambda node, query, cost: False)
        assert plan.report.merges_vetoed > 0
        assert plan.report.dag_nodes == plan.report.subtrees_total

    def test_intra_query_self_similarity_merges(self):
        plan = _plan(["PATTERN AND(A a, B b, A c, B d) WITHIN 4"])
        # The two (A, B) halves have equal fingerprints: leaves A and B
        # plus one shared join node referenced from both sides.
        assert plan.report.reuse_count >= 1

    def test_restrictive_selection_rejected(self):
        pattern = parse_pattern("PATTERN SEQ(A a, B b) WITHIN 4")
        planned = plan_pattern(
            pattern, _catalog_for(pattern), algorithm="GREEDY",
            selection="next",
        )
        with pytest.raises(PlanError):
            SharedPlanOptimizer().optimize([("q", planned)])


# ---------------------------------------------------------------------------
# execution equivalence (the acceptance criterion)
# ---------------------------------------------------------------------------

class TestEquivalence:
    @pytest.mark.parametrize("algorithm", ["GREEDY", "DP-B", "TRIVIAL"])
    def test_five_query_workload_matches_independent_engines(self, algorithm):
        stream = make_stream(17, count=120, types="ABCD")
        workload, result = shared_match_keys(
            OVERLAPPING, stream, algorithm=algorithm
        )
        total_independent_pm = 0
        for name, pattern in workload.items():
            planned = plan_pattern(
                pattern, _catalog_for(pattern), algorithm=algorithm
            )
            engine = build_engines(planned)
            expected = Counter(m.key() for m in engine.run(stream))
            got = Counter(m.key() for m in result.matches[name])
            assert got == expected, f"{name} diverges under {algorithm}"
            total_independent_pm += engine.metrics.partial_matches_created
        if algorithm == "DP-B":
            # Tree baseline: like-for-like instance accounting, so the
            # shared DAG (merged subtrees evaluated once per event) must
            # create strictly fewer partial matches.
            assert (
                result.metrics.partial_matches_created < total_independent_pm
            )

    @pytest.mark.parametrize(
        "patterns",
        [
            # negation: bounded, trailing, and leading
            [
                "PATTERN SEQ(A a, NOT(B b), C c) WHERE b.x = a.x WITHIN 4",
                "PATTERN SEQ(A p, C r) WITHIN 4",
                "PATTERN SEQ(A a, C c, NOT(B b)) WITHIN 3",
                "PATTERN SEQ(NOT(B n), A a, C c) WITHIN 4",
            ],
            # kleene sharing
            [
                "PATTERN SEQ(A a, KL(B b), C c) WITHIN 4",
                "PATTERN SEQ(A p, KL(B k), D r) WITHIN 4",
            ],
            # self-join (one event type at two positions)
            [
                "PATTERN SEQ(A first, A second) WHERE first.x < second.x WITHIN 5",
                "PATTERN SEQ(A one, A two, B three) WHERE one.x < two.x WITHIN 5",
            ],
            # conjunction + sequence mix over the same types
            [
                "PATTERN AND(A a, B b, C c) WHERE a.x < b.x WITHIN 3",
                "PATTERN SEQ(A p, B q, C r) WHERE p.x < q.x WITHIN 3",
            ],
            # disjunction (nested pattern, one root per DNF disjunct)
            [
                "PATTERN OR(SEQ(A a, B b), SEQ(A c, D d)) WITHIN 3",
                "PATTERN SEQ(A p, B q) WITHIN 3",
            ],
        ],
    )
    def test_feature_workloads_match_independent_engines(self, patterns):
        stream = make_stream(29, count=100, types="ABCD")
        workload, result = shared_match_keys(
            patterns, stream, max_kleene_size=3
        )
        for name, pattern in workload.items():
            expected = independent_match_keys(
                pattern, stream, max_kleene_size=3
            )
            got = Counter(m.key() for m in result.matches[name])
            assert got == expected, f"{name} diverges"

    def test_sharing_on_equals_sharing_off(self):
        stream = make_stream(41, count=100, types="ABCD")
        _, on = shared_match_keys(OVERLAPPING, stream, sharing=True)
        _, off = shared_match_keys(OVERLAPPING, stream, sharing=False)
        for name in on.matches:
            assert (
                Counter(m.key() for m in on.matches[name])
                == Counter(m.key() for m in off.matches[name])
            )
        assert (
            on.metrics.partial_matches_created
            <= off.metrics.partial_matches_created
        )

    def test_randomized_streams_stay_equivalent(self):
        patterns = OVERLAPPING + [
            "PATTERN SEQ(A a, NOT(B b), C c) WITHIN 4",
        ]
        for seed in (3, 7, 13, 23):
            stream = make_stream(seed, count=80, types="ABCD")
            workload, result = shared_match_keys(patterns, stream)
            for name, pattern in workload.items():
                expected = independent_match_keys(pattern, stream)
                got = Counter(m.key() for m in result.matches[name])
                assert got == expected, f"seed {seed}: {name} diverges"


# ---------------------------------------------------------------------------
# engine API and end-to-end plumbing
# ---------------------------------------------------------------------------

class TestEngineApi:
    def test_run_workload_result_shape(self):
        stream = make_stream(5, count=60, types="ABCD")
        workload, result = shared_match_keys(OVERLAPPING, stream)
        assert set(result.matches) == set(workload.names)
        assert result.events == len(stream)
        assert result.throughput > 0
        assert result.total_matches() == sum(
            len(v) for v in result.matches.values()
        )
        counts = result.engine.per_query_matches()
        assert counts == {n: len(v) for n, v in result.matches.items()}

    def test_matches_carry_query_names(self):
        stream = make_stream(5, count=60, types="ABCD")
        workload, result = shared_match_keys(OVERLAPPING, stream)
        for name, matches in result.matches.items():
            assert all(m.pattern_name == name for m in matches)

    def test_build_engines_accepts_shared_plans(self):
        plan = _plan(OVERLAPPING)
        engine = build_engines(plan)
        assert isinstance(engine, MultiQueryEngine)
        stream = make_stream(5, count=40, types="ABCD")
        grouped = engine.run(stream)
        assert set(grouped) == set(plan.query_names)

    def test_consuming_strategy_refuses_shared_nodes(self):
        """Consumption is per root: a DAG whose nodes feed several roots
        cannot run ``next``."""
        plan = _plan(OVERLAPPING)
        assert plan.report.shared_nodes > 0
        with pytest.raises(EngineError):
            MultiQueryEngine(plan, selection="next")

    def test_generator_produces_shareable_workload(self):
        workload = generate_overlapping_workload(
            list("ABCDEF"),
            MultiQueryWorkloadConfig(
                queries=4, core_size=2, suffix_size=1, window=4.0,
                attribute="x", seed=2,
            ),
        )
        assert len(workload) == 4
        catalogs = {n: _catalog_for(p) for n, p in workload.items()}
        plan = plan_workload(workload, catalogs)
        assert plan.report.reuse_count >= 3  # the shared core

    def test_stock_generator_round_trips(self):
        workload = overlapping_stock_workload(
            MultiQueryWorkloadConfig(queries=3, window=5.0)
        )
        assert len(workload) == 3
        assert all(p.window == 5.0 for p in workload)
