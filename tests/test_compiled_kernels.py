"""Compiled kernels are outcome- and observation-identical to the AST.

Randomized-formula property tests (seeded, deterministic) for
:mod:`repro.patterns.compile`: every generated conjunction — all six
comparison operators, ``Const`` and ``Attr`` operands, Kleene tuples
(including empty ones), NaN values, missing attributes, mixed value
types — must produce, through the compiled kernel, exactly the outcome,
``predicate_evaluations`` charge, and per-predicate selectivity
observation sequence of the interpreted short-circuit loop it replaces.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.engines.metrics import EngineMetrics
from repro.events import Event
from repro.patterns.compile import (
    compile_event_kernel,
    compile_extension_kernel,
    compile_merge_kernel,
)
from repro.patterns.predicates import (
    Adjacent,
    Attr,
    Comparison,
    Const,
    FunctionPredicate,
    TimestampOrder,
)

OPERATORS = ("<", "<=", ">", ">=", "=", "!=")
ATTRS = ("x", "y", "z")
LEFT_VARS = ("a", "k")
RIGHT_VARS = ("b",)
KLEENE = ("k",)
SEEDS = range(40)


class RecordingTracker:
    """Tracker double that keeps the exact observation sequence."""

    def __init__(self) -> None:
        self.observed: list = []

    def observe(self, key, passed) -> None:
        self.observed.append((key, passed))


def rand_value(rng: random.Random):
    roll = rng.random()
    if roll < 0.55:
        return round(rng.uniform(-3, 3), 2)
    if roll < 0.7:
        return rng.choice(("low", "mid", "high"))  # str vs float: TypeError
    if roll < 0.8:
        return float("nan")
    if roll < 0.9:
        return rng.randrange(5)
    return None  # None vs anything ordered: TypeError


def rand_event(rng: random.Random, seq: int) -> Event:
    attrs = {a: rand_value(rng) for a in ATTRS if rng.random() < 0.85}
    return Event("T", rng.uniform(0, 10), attrs, seq=seq)


def rand_operand(rng: random.Random, variables):
    if rng.random() < 0.25:
        return Const(rand_value(rng))
    return Attr(rng.choice(variables), rng.choice(ATTRS))


def rand_predicates(rng: random.Random, variables, count):
    predicates = []
    for _ in range(count):
        left = rand_operand(rng, variables)
        right = rand_operand(rng, variables)
        if isinstance(left, Const) and isinstance(right, Const):
            right = Attr(rng.choice(variables), rng.choice(ATTRS))
        predicates.append(Comparison(left, rng.choice(OPERATORS), right))
    return predicates


def rand_bindings(rng: random.Random, variables, next_seq=0):
    bindings = {}
    for variable in variables:
        if variable in KLEENE:
            size = rng.randrange(0, 4)  # empty tuples stay vacuously true
            bindings[variable] = tuple(
                rand_event(rng, next_seq + i) for i in range(size)
            )
            next_seq += size
        else:
            bindings[variable] = rand_event(rng, next_seq)
            next_seq += 1
    return bindings, next_seq


def sel_keys_for(predicates) -> dict:
    """The engine's observation-key convention (BaseEngine.__init__)."""
    keys = {}
    for predicate in predicates:
        if isinstance(predicate, (TimestampOrder, Adjacent)):
            continue
        variables = predicate.variables
        if 1 <= len(variables) <= 2:
            keys[id(predicate)] = frozenset(variables)
    return keys


def interpret(predicates, bindings, sel_keys):
    """The interpreted short-circuit loop of ``_try_merge``."""
    observed = []
    evaluated = 0
    outcome = True
    for predicate in predicates:
        evaluated += 1
        passed = predicate.evaluate(bindings)
        key = sel_keys.get(id(predicate))
        if key is not None:
            observed.append((key, passed))
        if not passed:
            outcome = False
            break
    return outcome, evaluated, observed


@pytest.mark.parametrize("codegen", (False, True), ids=["closure", "codegen"])
@pytest.mark.parametrize("seed", SEEDS)
def test_merge_kernel_matches_interpreted(seed, codegen):
    rng = random.Random(seed)
    variables = LEFT_VARS + RIGHT_VARS
    predicates = rand_predicates(rng, variables, rng.randrange(1, 5))
    sel_keys = sel_keys_for(predicates)
    for observing in (False, True):
        metrics = EngineMetrics()
        tracker = RecordingTracker() if observing else None
        kernel = compile_merge_kernel(
            predicates,
            LEFT_VARS,
            RIGHT_VARS,
            KLEENE,
            metrics,
            tracker=tracker,
            sel_key_by_pred=sel_keys,
            codegen=codegen,
        )
        for _ in range(25):
            left, next_seq = rand_bindings(rng, LEFT_VARS)
            right, _ = rand_bindings(rng, RIGHT_VARS, next_seq)
            merged = {**left, **right}
            expected, evaluated, observed = interpret(
                predicates, merged, sel_keys
            )
            calls_before = metrics.predicate_kernel_calls
            evals_before = metrics.predicate_evaluations
            obs_before = list(tracker.observed) if observing else None
            assert kernel(left, right) is expected
            assert metrics.predicate_kernel_calls == calls_before + 1
            assert metrics.predicate_evaluations == evals_before + evaluated
            if observing:
                assert tracker.observed[len(obs_before):] == observed


@pytest.mark.parametrize("codegen", (False, True), ids=["closure", "codegen"])
@pytest.mark.parametrize("seed", SEEDS)
def test_extension_kernel_matches_interpreted(seed, codegen):
    """The NFA/tree extension path: new variable read from the event."""
    rng = random.Random(seed)
    new_variable = rng.choice(("b", "k"))  # scalar and Kleene extension
    prior = tuple(v for v in ("a", "k") if v != new_variable) or ("a",)
    variables = prior + (new_variable,)
    predicates = rand_predicates(rng, variables, rng.randrange(1, 5))
    sel_keys = sel_keys_for(predicates)
    metrics = EngineMetrics()
    tracker = RecordingTracker()
    kernel = compile_extension_kernel(
        predicates,
        new_variable,
        KLEENE,
        metrics,
        tracker=tracker,
        sel_key_by_pred=sel_keys,
        codegen=codegen,
    )
    for _ in range(25):
        bindings, next_seq = rand_bindings(rng, prior)
        event = rand_event(rng, next_seq)
        probe = dict(bindings)
        probe[new_variable] = event  # scalar even for a Kleene variable
        expected, evaluated, observed = interpret(predicates, probe, sel_keys)
        evals_before = metrics.predicate_evaluations
        obs_before = len(tracker.observed)
        assert kernel(bindings, event) is expected
        assert metrics.predicate_evaluations == evals_before + evaluated
        assert tracker.observed[obs_before:] == observed


@pytest.mark.parametrize("codegen", (False, True), ids=["closure", "codegen"])
@pytest.mark.parametrize("seed", SEEDS[:10])
def test_event_kernel_count_all_matches_admission(seed, codegen):
    """Tree/multi-query admission pre-charges len(filters)."""
    rng = random.Random(seed)
    predicates = rand_predicates(rng, ("a",), rng.randrange(1, 4))
    sel_keys = sel_keys_for(predicates)
    metrics = EngineMetrics()
    kernel = compile_event_kernel(
        predicates, "a", metrics, sel_key_by_pred=sel_keys, count="all",
        codegen=codegen,
    )
    for _ in range(20):
        event = rand_event(rng, 0)
        expected, _, _ = interpret(predicates, {"a": event}, sel_keys)
        evals_before = metrics.predicate_evaluations
        assert kernel(event) is expected
        # "all" charges the whole list regardless of short-circuiting.
        assert metrics.predicate_evaluations == evals_before + len(predicates)


def test_uncompilable_predicates_fall_back_exactly():
    """FunctionPredicate and Adjacent run their own evaluate, including
    Kleene universal semantics, through the minimal-view fallback."""
    rng = random.Random(7)
    calls = []

    def both_positive(a, b):
        calls.append((a, b))
        return a["x"] > 0 and b["x"] > 0

    predicates = [
        FunctionPredicate(("a", "k"), both_positive, name="both_positive"),
        Adjacent("a", "b", mode="strict"),
    ]
    metrics = EngineMetrics()
    kernel = compile_merge_kernel(
        predicates, LEFT_VARS, RIGHT_VARS, KLEENE, metrics
    )
    for _ in range(30):
        left, next_seq = rand_bindings(rng, LEFT_VARS)
        right, _ = rand_bindings(rng, RIGHT_VARS, next_seq)
        merged = {**left, **right}
        evals_before = metrics.predicate_evaluations
        try:
            expected, evaluated, _ = interpret(predicates, merged, {})
        except (KeyError, TypeError) as exc:
            # FunctionPredicate.evaluate propagates user-function
            # exceptions (missing "x", unordered types) — the fallback
            # must raise the very same way.
            with pytest.raises(type(exc)):
                kernel(left, right)
            continue
        assert kernel(left, right) is expected
        assert metrics.predicate_evaluations == evals_before + evaluated


def test_empty_kleene_tuple_is_vacuous_without_other_operand():
    """An empty tuple must not resolve the scalar operand (whose missing
    attribute would otherwise flip the outcome)."""
    predicate = Comparison(Attr("k", "x"), "<", Attr("b", "x"))
    metrics = EngineMetrics()
    kernel = compile_merge_kernel(
        [predicate], LEFT_VARS, RIGHT_VARS, KLEENE, metrics
    )
    left = {"a": Event("T", 0.0, {}, seq=0), "k": ()}
    right = {"b": Event("T", 0.0, {}, seq=1)}  # b.x missing
    assert predicate.evaluate({**left, **right}) is True
    assert kernel(left, right) is True


def test_same_kleene_variable_on_both_sides():
    predicate = Comparison(Attr("k", "x"), "<=", Attr("k", "y"))
    metrics = EngineMetrics()
    kernel = compile_merge_kernel(
        [predicate], LEFT_VARS, RIGHT_VARS, KLEENE, metrics
    )
    good = {"k": (Event("T", 0.0, {"x": 1, "y": 2}, seq=0),
                  Event("T", 0.1, {"x": 2, "y": 2}, seq=1))}
    bad = {"k": (Event("T", 0.0, {"x": 1, "y": 2}, seq=0),
                 Event("T", 0.1, {"x": 3, "y": 2}, seq=1))}
    for bindings, expected in ((good, True), (bad, False)):
        left = {"a": Event("T", 0.0, {}, seq=9), **bindings}
        assert predicate.evaluate(left) is expected
        assert kernel(left, {}) is expected


def test_nan_and_missing_attribute_comparisons_stay_false():
    nan = float("nan")
    metrics = EngineMetrics()
    cases = [
        (Comparison(Attr("a", "x"), "<", Attr("b", "x")),
         {"x": nan}, {"x": 1.0}, False),
        (Comparison(Attr("a", "x"), "!=", Attr("b", "x")),
         {"x": nan}, {"x": nan}, True),  # NaN != NaN holds
        (Comparison(Attr("a", "x"), "<", Attr("b", "x")),
         {}, {"x": 1.0}, False),  # missing attribute
        (Comparison(Attr("a", "x"), "<", Const(2.0)),
         {"x": "str"}, {}, False),  # unordered types
    ]
    for predicate, a_attrs, b_attrs, expected in cases:
        kernel = compile_merge_kernel(
            [predicate], ("a",), ("b",), (), metrics
        )
        left = {"a": Event("T", 0.0, a_attrs, seq=0)}
        right = {"b": Event("T", 0.0, b_attrs, seq=1)}
        assert predicate.evaluate({**left, **right}) is expected
        assert kernel(left, right) is expected
        assert math.isnan(nan)  # guard the test fixture itself


# -- codegen backend --------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS[:20])
def test_generated_kernels_match_closure_kernels(seed):
    """Closure vs exec-generated source, head to head on the same
    inputs: outcome, predicate_evaluations charge, and observation
    sequence must be identical — across all six operators, Kleene
    tuples (including empty), NaN, missing attributes, mixed types."""
    rng = random.Random(seed)
    variables = LEFT_VARS + RIGHT_VARS
    predicates = rand_predicates(rng, variables, rng.randrange(1, 5))
    sel_keys = sel_keys_for(predicates)
    builds = []
    for codegen in (False, True):
        metrics = EngineMetrics()
        tracker = RecordingTracker()
        builds.append(
            (
                compile_merge_kernel(
                    predicates, LEFT_VARS, RIGHT_VARS, KLEENE, metrics,
                    tracker=tracker, sel_key_by_pred=sel_keys,
                    codegen=codegen,
                ),
                metrics,
                tracker,
            )
        )
    (closure, c_metrics, c_tracker), (generated, g_metrics, g_tracker) = builds
    for _ in range(30):
        left, next_seq = rand_bindings(rng, LEFT_VARS)
        right, _ = rand_bindings(rng, RIGHT_VARS, next_seq)
        assert closure(left, right) is generated(left, right)
    assert c_metrics.predicate_evaluations == g_metrics.predicate_evaluations
    assert c_metrics.predicate_kernel_calls == g_metrics.predicate_kernel_calls
    assert c_tracker.observed == g_tracker.observed


def test_codegen_cache_hits_and_generation_counter():
    """Structurally identical kernels compile once; the second build is
    a cache hit (per-engine constants bind as defaults, so the source
    text is the cache key)."""
    from repro.patterns import clear_codegen_cache, codegen_cache_size

    clear_codegen_cache()
    assert codegen_cache_size() == 0
    predicates = [Comparison(Attr("a", "x"), "<", Attr("b", "x"))]
    metrics = EngineMetrics()
    compile_merge_kernel(predicates, ("a",), ("b",), (), metrics)
    assert metrics.kernels_generated == 1
    assert metrics.codegen_cache_hits == 0
    assert codegen_cache_size() == 1
    # Different constants, same structure: still one cache entry.
    again = [Comparison(Attr("a", "x"), "<", Attr("b", "x"))]
    compile_merge_kernel(again, ("a",), ("b",), (), metrics)
    assert metrics.kernels_generated == 1
    assert metrics.codegen_cache_hits == 1
    assert codegen_cache_size() == 1
    # codegen=False never touches the cache.
    compile_merge_kernel(again, ("a",), ("b",), (), metrics, codegen=False)
    assert metrics.kernels_generated == 1
    assert metrics.codegen_cache_hits == 1


def test_dump_kernels_hook_writes_sources(tmp_path, monkeypatch):
    """REPRO_DUMP_KERNELS=<dir> writes every generated source file."""
    from repro.patterns import clear_codegen_cache

    monkeypatch.setenv("REPRO_DUMP_KERNELS", str(tmp_path))
    clear_codegen_cache()
    predicates = [Comparison(Attr("a", "x"), "=", Attr("b", "x"))]
    compile_merge_kernel(predicates, ("a",), ("b",), (), EngineMetrics())
    dumped = list(tmp_path.glob("*.py"))
    assert len(dumped) == 1
    source = dumped[0].read_text()
    assert "def kernel" in source

