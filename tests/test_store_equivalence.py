"""Indexed stores and compiled kernels change access paths, never match
sets.

Randomized-stream property tests (seeded, deterministic) asserting that
every runtime — the one-root plan DAG of a tree plan, the NFA, and the
multi-query DAG — reports a
match sequence identical to the seed interpreted linear-store evaluation
(``indexed=False, compiled=False``) under every acceleration mode
combination: hash equi-join probes, sorted-run theta range probes, and
compiled predicate kernels, across equality-heavy, pure-theta, mixed,
Kleene, and negation patterns, under both skip-till-any and the
consuming skip-till-next strategy.  Identity is asserted on the
*ordered* list of match keys, which is stronger than set equality: the
bucketed/bisected probes must reproduce the linear scan's emission order
exactly.  A parallel worker fed the stream in frames of any size must
reproduce the whole-stream run the same way.
"""

from __future__ import annotations

import random

import pytest

from repro.engines import NFAEngine, build_runtime, reference_match_keys
from repro.errors import EngineError
from repro.events import Event, Stream
from repro.multiquery import Workload, plan_workload
from repro.multiquery.executor import MultiQueryEngine, group_by_query
from repro.parallel import SharedSpec, TaskRunner, WorkerTask
from repro.patterns import decompose, parse_pattern
from repro.plans import enumerate_bushy_trees, enumerate_orders
from repro.stats import estimate_pattern_catalog

#: (name, pattern text) — one per store-sensitive pattern family.
PATTERNS = [
    ("equality", "PATTERN SEQ(A a, B b, C c) WHERE a.x = b.x AND b.x = c.x WITHIN 4"),
    ("theta", "PATTERN AND(A a, B b, C c) WHERE a.x < b.x WITHIN 3"),
    ("theta-le", "PATTERN SEQ(A a, B b, C c) WHERE a.x <= b.x AND c.x > b.x WITHIN 3"),
    ("mixed", "PATTERN SEQ(A a, B b, C c, D d) WHERE a.x = d.x AND b.x < c.x WITHIN 3"),
    ("hash+range", "PATTERN SEQ(A a, B b, C c) WHERE a.x = b.x AND a.y < b.y WITHIN 4"),
    ("kleene", "PATTERN SEQ(A a, KL(B b), C c) WHERE a.x = c.x WITHIN 4"),
    ("kleene-theta", "PATTERN SEQ(A a, KL(B b), C c) WHERE a.y < c.y AND b.x = a.x WITHIN 3"),
    ("negation", "PATTERN SEQ(A a, NOT(B b), C c) WHERE a.x = c.x AND b.x = a.x WITHIN 4"),
    ("negation-theta", "PATTERN SEQ(A a, NOT(B b), C c) WHERE a.y < c.y AND b.x = a.x WITHIN 4"),
]

#: (indexed, compiled) — every acceleration combination vs the seed.
MODES = ((True, True), (True, False), (False, True))

SEEDS = (3, 17, 51)


def rand_stream(seed: int, count: int = 60, types: str = "ABCD") -> Stream:
    rng = random.Random(seed)
    events, t = [], 0.0
    for _ in range(count):
        t += rng.uniform(0.05, 0.5)
        events.append(
            Event(
                rng.choice(types),
                t,
                {"x": rng.randrange(3), "y": round(rng.uniform(0, 1), 3)},
            )
        )
    return Stream(events)


def noisy_stream(seed: int, count: int = 60, types: str = "ABCD") -> Stream:
    """NaN values, missing attributes and mixed types in the hot attrs —
    every index corner case at once."""
    rng = random.Random(seed)
    events, t = [], 0.0
    for _ in range(count):
        t += rng.uniform(0.05, 0.5)
        attrs = {}
        if rng.random() < 0.9:
            roll = rng.random()
            attrs["x"] = (
                float("nan") if roll < 0.15
                else "s" if roll < 0.3
                else rng.randrange(3)
            )
        if rng.random() < 0.9:
            roll = rng.random()
            attrs["y"] = (
                float("nan") if roll < 0.15
                else [1] if roll < 0.25  # unhashable and unorderable
                else round(rng.uniform(0, 1), 3)
            )
        events.append(Event(rng.choice(types), t, attrs))
    return Stream(events)


def keys_of(matches) -> list:
    return [m.key() for m in matches]


@pytest.mark.parametrize("name,text", PATTERNS, ids=[n for n, _ in PATTERNS])
@pytest.mark.parametrize("seed", SEEDS)
def test_tree_and_nfa_accelerated_match_interpreted_linear(name, text, seed):
    stream = rand_stream(seed)
    d = decompose(parse_pattern(text))
    kwargs = {"max_kleene_size": 3} if name.startswith("kleene") else {}
    reference = reference_match_keys(stream=stream, decomposed=d, **kwargs)
    for tree in list(enumerate_bushy_trees(d.positive_variables))[:4]:
        baseline = build_runtime(
            d, tree, indexed=False, compiled=False, **kwargs
        ).run(stream)
        assert set(keys_of(baseline)) == reference
        for indexed, compiled in MODES:
            accelerated = build_runtime(
                d, tree, indexed=indexed, compiled=compiled, **kwargs
            ).run(stream)
            assert keys_of(accelerated) == keys_of(baseline), (
                f"tree/{name} diverges (indexed={indexed}, "
                f"compiled={compiled})"
            )
    for order in list(enumerate_orders(d.positive_variables))[:4]:
        baseline = NFAEngine(
            d, order, indexed=False, compiled=False, **kwargs
        ).run(stream)
        assert set(keys_of(baseline)) == reference
        for indexed, compiled in MODES:
            accelerated = NFAEngine(
                d, order, indexed=indexed, compiled=compiled, **kwargs
            ).run(stream)
            assert keys_of(accelerated) == keys_of(baseline), (
                f"nfa/{name} diverges (indexed={indexed}, "
                f"compiled={compiled})"
            )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "text",
    [
        "PATTERN SEQ(A a, B b, C c) WHERE a.x = b.x WITHIN 5",
        "PATTERN SEQ(A a, B b, C c) WHERE a.y < b.y WITHIN 5",
        "PATTERN SEQ(A a, B b, C c) WHERE a.x = b.x AND a.y < b.y WITHIN 5",
    ],
    ids=["equality", "theta", "hash+range"],
)
@pytest.mark.parametrize("selection", ["next", "strict"])
def test_consuming_strategies_accelerated_match_interpreted(
    seed, text, selection
):
    """Restrictive strategies exercise tombstone purges + first-pairing
    semantics through the bucketed and bisected probes."""
    stream = rand_stream(seed, count=80, types="ABC")
    d = decompose(parse_pattern(text))
    for tree in list(enumerate_bushy_trees(d.positive_variables))[:3]:
        baseline = build_runtime(
            d, tree, selection=selection, indexed=False, compiled=False
        ).run(stream)
        for indexed, compiled in MODES:
            accelerated = build_runtime(
                d, tree, selection=selection,
                indexed=indexed, compiled=compiled,
            ).run(stream)
            assert keys_of(accelerated) == keys_of(baseline)
    for order in list(enumerate_orders(d.positive_variables))[:3]:
        baseline = NFAEngine(
            d, order, selection=selection, indexed=False, compiled=False
        ).run(stream)
        for indexed, compiled in MODES:
            accelerated = NFAEngine(
                d, order, selection=selection,
                indexed=indexed, compiled=compiled,
            ).run(stream)
            assert keys_of(accelerated) == keys_of(baseline)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "text",
    [
        "PATTERN SEQ(A a, B b) WHERE a.y < b.y WITHIN 4",
        "PATTERN SEQ(A a, B b, C c) WHERE a.x = b.x AND b.y <= c.y WITHIN 3",
    ],
    ids=["theta", "mixed"],
)
def test_noisy_values_accelerated_match_interpreted(seed, text):
    """NaN, missing attributes, unorderable and unhashable values route
    through every overflow/EMPTY_RANGE corner at once."""
    stream = noisy_stream(seed, count=70)
    d = decompose(parse_pattern(text))
    for tree in list(enumerate_bushy_trees(d.positive_variables))[:3]:
        baseline = build_runtime(
            d, tree, indexed=False, compiled=False
        ).run(stream)
        for indexed, compiled in MODES:
            accelerated = build_runtime(
                d, tree, indexed=indexed, compiled=compiled
            ).run(stream)
            assert keys_of(accelerated) == keys_of(baseline)
    for order in list(enumerate_orders(d.positive_variables))[:3]:
        baseline = NFAEngine(
            d, order, indexed=False, compiled=False
        ).run(stream)
        for indexed, compiled in MODES:
            accelerated = NFAEngine(
                d, order, indexed=indexed, compiled=compiled
            ).run(stream)
            assert keys_of(accelerated) == keys_of(baseline)


def test_unhashable_key_values_indexed_match_linear():
    """Regression: unhashable attribute values route through the
    overflow, which is *not* bucket-guaranteed — the full predicate set
    (not the residuals) must apply to those candidates."""
    events = [
        Event("A", 0.1, {"k": [1, 2]}),
        Event("A", 0.2, {"k": [9, 9]}),
        Event("B", 0.3, {"k": [1, 2]}),
        Event("B", 0.4, {"k": 5}),
        Event("A", 0.5, {"k": 5}),
        Event("B", 0.6, {"k": [9, 9]}),
    ]
    stream = Stream(events)
    d = decompose(parse_pattern("PATTERN SEQ(A a, B b) WHERE a.k = b.k WITHIN 2"))
    for tree in enumerate_bushy_trees(d.positive_variables):
        linear = build_runtime(d, tree, indexed=False).run(stream)
        indexed = build_runtime(d, tree, indexed=True).run(stream)
        assert keys_of(indexed) == keys_of(linear)
    for order in enumerate_orders(d.positive_variables):
        linear = NFAEngine(d, order, indexed=False).run(stream)
        indexed = NFAEngine(d, order, indexed=True).run(stream)
        assert keys_of(indexed) == keys_of(linear)


@pytest.mark.parametrize("seed", SEEDS)
def test_multiquery_accelerated_matches_interpreted_linear(seed):
    stream = rand_stream(seed, count=70)
    workload = Workload(
        [
            "PATTERN SEQ(A a, B b, C c) WHERE a.x = b.x WITHIN 4",
            "PATTERN SEQ(A a, B b, D d) WHERE a.x = b.x AND b.x = d.x WITHIN 4",
            "PATTERN AND(A a, D d) WHERE a.x < d.x WITHIN 3",
            "PATTERN SEQ(A a, C c) WHERE a.x = c.x AND a.y < c.y WITHIN 3",
        ]
    )
    catalogs = {
        name: estimate_pattern_catalog(pattern, stream)
        for name, pattern in workload.items()
    }
    plan = plan_workload(workload, catalogs, algorithm="GREEDY")
    assert plan.report.shared_nodes > 0  # the sharing path is exercised
    baseline = MultiQueryEngine(plan, indexed=False, compiled=False).run(
        stream
    )
    for indexed, compiled in MODES:
        accelerated = MultiQueryEngine(
            plan, indexed=indexed, compiled=compiled
        ).run(stream)
        assert set(baseline) == set(accelerated)
        for query in baseline:
            assert keys_of(accelerated[query]) == keys_of(baseline[query]), (
                f"{query} diverges (indexed={indexed}, compiled={compiled})"
            )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name,text",
    [PATTERNS[0], PATTERNS[4], PATTERNS[5]],
    ids=["equality", "hash+range", "kleene"],
)
def test_traced_runs_match_untraced(name, text, seed):
    """The tracer axis: attaching plan-DAG tracing must not change any
    runtime's match sequence under any acceleration mode — observation
    counts work, it never participates in it."""
    from repro.observe import Tracer

    stream = rand_stream(seed)
    d = decompose(parse_pattern(text))
    kwargs = {"max_kleene_size": 3} if name.startswith("kleene") else {}
    tree = next(iter(enumerate_bushy_trees(d.positive_variables)))
    order = next(iter(enumerate_orders(d.positive_variables)))
    for indexed, compiled in ((False, False),) + MODES:
        for build in (
            lambda: build_runtime(
                d, tree, indexed=indexed, compiled=compiled, **kwargs
            ),
            lambda: NFAEngine(
                d, order, indexed=indexed, compiled=compiled, **kwargs
            ),
        ):
            baseline = build().run(stream)
            traced_engine = build()
            tracer = Tracer()
            traced_engine.set_tracer(tracer)
            traced = traced_engine.run(stream)
            assert keys_of(traced) == keys_of(baseline), (
                f"{name} diverges under tracing "
                f"(indexed={indexed}, compiled={compiled})"
            )
            assert tracer.nodes


@pytest.mark.parametrize("seed", SEEDS)
def test_traced_multiquery_matches_untraced(seed):
    from repro.observe import Tracer

    stream = rand_stream(seed, count=70)
    workload = Workload(
        [
            "PATTERN SEQ(A a, B b, C c) WHERE a.x = b.x WITHIN 4",
            "PATTERN SEQ(A a, C c) WHERE a.x = c.x AND a.y < c.y WITHIN 3",
        ]
    )
    catalogs = {
        name: estimate_pattern_catalog(pattern, stream)
        for name, pattern in workload.items()
    }
    plan = plan_workload(workload, catalogs, algorithm="GREEDY")
    for indexed, compiled in ((False, False),) + MODES:
        baseline = MultiQueryEngine(
            plan, indexed=indexed, compiled=compiled
        ).run(stream)
        traced_engine = MultiQueryEngine(
            plan, indexed=indexed, compiled=compiled
        )
        tracer = Tracer()
        traced_engine.set_tracer(tracer)
        traced = traced_engine.run(stream)
        assert set(baseline) == set(traced)
        for query in baseline:
            assert keys_of(traced[query]) == keys_of(baseline[query]), (
                f"{query} diverges under tracing "
                f"(indexed={indexed}, compiled={compiled})"
            )
        assert tracer.nodes

# -- Kleene equi-keys -------------------------------------------------------

class TestKleeneKeyValue:
    """The common-element key function behind Kleene-inclusive indexes."""

    def test_agreement_yields_common_value(self):
        from repro.engines import kleene_key_value

        binding = (ev_attrs(x=4), ev_attrs(x=4), ev_attrs(x=4))
        assert kleene_key_value(binding, "x") == 4

    def test_empty_tuple_is_vacuous_typeerror(self):
        from repro.engines import kleene_key_value

        with pytest.raises(TypeError):
            kleene_key_value((), "x")

    def test_disagreement_and_nan_are_unreachable_keyerror(self):
        from repro.engines import kleene_key_value

        with pytest.raises(KeyError):
            kleene_key_value((ev_attrs(x=1), ev_attrs(x=2)), "x")
        with pytest.raises(KeyError):
            kleene_key_value((ev_attrs(x=float("nan")),), "x")
        with pytest.raises(KeyError):
            kleene_key_value((ev_attrs(),), "x")  # missing attribute

    def test_make_key_fn_resolves_kleene_bindings(self):
        from repro.engines.stores import make_key_fn

        key_of = make_key_fn((("a", "x"), ("k", "x")), kleene={"k"})
        bindings = {"a": ev_attrs(x=7), "k": (ev_attrs(x=7), ev_attrs(x=7))}
        assert key_of(bindings) == (7, 7)


def ev_attrs(**attrs) -> Event:
    return Event("B", 1.0, attrs)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name,text",
    [PATTERNS[5], PATTERNS[6]],
    ids=["kleene", "kleene-theta"],
)
def test_kleene_equality_predicates_engage_the_index(name, text, seed):
    """Kleene variables now key hash indexes (satellite of the codegen
    PR): the indexed run must actually probe buckets — not silently fall
    back to linear scans — while reproducing the linear emission order
    (asserted pattern-wide by the main equivalence test above)."""
    stream = rand_stream(seed)
    d = decompose(parse_pattern(text))
    tree = next(iter(enumerate_bushy_trees(d.positive_variables)))
    engine = build_runtime(d, tree, indexed=True, max_kleene_size=3)
    baseline = build_runtime(d, tree, indexed=False, max_kleene_size=3).run(stream)
    assert keys_of(engine.run(stream)) == keys_of(baseline)
    assert engine.metrics.index_probes > 0


# -- run_batched --------------------------------------------------------------

def match_sig(matches) -> list:
    return [(m.key(), m.detection_ts, m.latency) for m in matches]


def test_run_batched_is_run():
    """``run_batched`` is ``run`` under another name: every chunk size
    reproduces it exactly, and a chunk size below 1 is refused."""
    stream = rand_stream(SEEDS[0])
    d = decompose(parse_pattern(PATTERNS[0][1]))
    tree = next(iter(enumerate_bushy_trees(d.positive_variables)))
    order = next(iter(enumerate_orders(d.positive_variables)))
    for build in (lambda: build_runtime(d, tree), lambda: NFAEngine(d, order)):
        baseline = match_sig(build().run(stream))
        for batch_size in (1, 7, len(stream) + 1):
            batched = build().run_batched(stream, batch_size=batch_size)
            assert match_sig(batched) == baseline, batch_size
        with pytest.raises(EngineError):
            build().run_batched(stream, batch_size=0)


# -- Frame-fed vs whole-stream equivalence ----------------------------------
#
# A parallel worker receives its events in wire frames and hands each
# frame to ``TaskRunner.feed``, which processes it event by event and
# collects the frame's matches once.  Whatever the frame size, the
# worker must report exactly what ``run`` reports on the whole stream.

#: Frame sizes: 1 (one event per frame), small frames, and one frame
#: holding the whole stream.
BATCH_SIZES = (1, 3, 16, 1000)

#: Logical work that frame boundaries must never move: events seen,
#: predicates charged, partial matches built and expired, matches kept.
CORE_METRICS = (
    "events",
    "matches",
    "pm_created",
    "predicate_evals",
    "pm_expired",
)


def core_metrics(metrics) -> dict:
    summary = metrics.summary()
    return {k: summary[k] for k in CORE_METRICS}


class _Spec:
    """Worker spec around a zero-argument engine factory."""

    def __init__(self, build) -> None:
        self.build = build


def feed_in_frames(build, stream, batch_size: int, trace: bool = False):
    """Run a fresh engine through ``TaskRunner.feed`` in frames of
    *batch_size* events; return the runner and its finished result."""
    runner = TaskRunner(WorkerTask(spec=_Spec(build), trace=trace))
    events = list(stream)
    for start in range(0, len(events), batch_size):
        runner.feed(events[start:start + batch_size])
    return runner, runner.finish()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name,text",
    [PATTERNS[0], PATTERNS[4], PATTERNS[5], PATTERNS[8]],
    ids=["equality", "hash+range", "kleene", "negation-theta"],
)
def test_batched_runs_match_single_event(name, text, seed):
    """Frame-fed workers reproduce ``run`` exactly — same ordered match
    signatures and same logical metric charges — for every frame size,
    engine, acceleration mode, and kernel backend."""
    stream = rand_stream(seed)
    d = decompose(parse_pattern(text))
    kwargs = {"max_kleene_size": 3} if name.startswith("kleene") else {}
    tree = next(iter(enumerate_bushy_trees(d.positive_variables)))
    order = next(iter(enumerate_orders(d.positive_variables)))
    for indexed, compiled, codegen in (
        (True, True, True),
        (True, True, False),
        (False, True, True),
        (True, False, True),
        (False, False, False),
    ):
        for build in (
            lambda: build_runtime(
                d, tree, indexed=indexed, compiled=compiled,
                codegen=codegen, **kwargs
            ),
            lambda: NFAEngine(
                d, order, indexed=indexed, compiled=compiled,
                codegen=codegen, **kwargs
            ),
        ):
            single = build()
            baseline = single.run(stream)
            for batch_size in BATCH_SIZES:
                _, result = feed_in_frames(build, stream, batch_size)
                label = (
                    f"{name} batch={batch_size} (indexed={indexed}, "
                    f"compiled={compiled}, codegen={codegen})"
                )
                assert match_sig(result.matches) == match_sig(baseline), label
                assert core_metrics(result.metrics) == core_metrics(
                    single.metrics
                ), label


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("selection", ["next", "strict"])
def test_batched_consuming_strategies_match_single_event(seed, selection):
    """Consuming strategies remove partial matches as they complete;
    frame boundaries must not change which ones they remove."""
    stream = rand_stream(seed, count=80, types="ABC")
    d = decompose(
        parse_pattern("PATTERN SEQ(A a, B b, C c) WHERE a.x = b.x WITHIN 5")
    )
    tree = next(iter(enumerate_bushy_trees(d.positive_variables)))
    order = next(iter(enumerate_orders(d.positive_variables)))
    for build in (
        lambda: build_runtime(d, tree, selection=selection, indexed=True),
        lambda: NFAEngine(d, order, selection=selection, indexed=True),
    ):
        single = build()
        baseline = single.run(stream)
        for batch_size in (3, 64):
            _, result = feed_in_frames(build, stream, batch_size)
            assert match_sig(result.matches) == match_sig(baseline)
            assert core_metrics(result.metrics) == core_metrics(single.metrics)


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_noisy_values_match_single_event(seed):
    """NaN, missing, unhashable and unorderable attributes take the
    stores' degradation paths identically under frame feeding."""
    stream = noisy_stream(seed, count=70)
    d = decompose(
        parse_pattern(
            "PATTERN SEQ(A a, B b, C c) WHERE a.x = b.x AND b.y <= c.y WITHIN 3"
        )
    )
    tree = next(iter(enumerate_bushy_trees(d.positive_variables)))
    order = next(iter(enumerate_orders(d.positive_variables)))
    for build in (
        lambda: build_runtime(d, tree, indexed=True, compiled=True),
        lambda: NFAEngine(d, order, indexed=True, compiled=True),
    ):
        single = build()
        baseline = single.run(stream)
        for batch_size in (5, 37):
            _, result = feed_in_frames(build, stream, batch_size)
            assert match_sig(result.matches) == match_sig(baseline)
            assert core_metrics(result.metrics) == core_metrics(single.metrics)


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_multiquery_matches_single_event(seed):
    stream = rand_stream(seed, count=70)
    workload = Workload(
        [
            "PATTERN SEQ(A a, B b, C c) WHERE a.x = b.x WITHIN 4",
            "PATTERN SEQ(A a, B b, D d) WHERE a.x = b.x AND b.x = d.x WITHIN 4",
            "PATTERN SEQ(A a, C c) WHERE a.x = c.x AND a.y < c.y WITHIN 3",
        ]
    )
    catalogs = {
        name: estimate_pattern_catalog(pattern, stream)
        for name, pattern in workload.items()
    }
    plan = plan_workload(workload, catalogs, algorithm="GREEDY")
    for codegen in (True, False):
        single = MultiQueryEngine(plan, indexed=True, codegen=codegen)
        baseline = single.run(stream)
        for batch_size in (1, 4, 50):
            _, result = feed_in_frames(
                SharedSpec(plan, indexed=True, codegen=codegen).build,
                stream,
                batch_size,
            )
            fed = group_by_query(plan.query_names, result.matches)
            assert set(fed) == set(baseline)
            for query in baseline:
                assert match_sig(fed[query]) == match_sig(baseline[query]), (
                    f"{query} diverges (batch={batch_size}, codegen={codegen})"
                )
            assert core_metrics(result.metrics) == core_metrics(single.metrics)


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_traced_runs_fall_back_identically(seed):
    """A traced worker fed in frames reproduces the traced whole-stream
    run's matches and per-node observations exactly."""
    from repro.observe import Tracer

    stream = rand_stream(seed)
    d = decompose(
        parse_pattern("PATTERN SEQ(A a, B b, C c) WHERE a.x = b.x WITHIN 4")
    )
    tree = next(iter(enumerate_bushy_trees(d.positive_variables)))
    single = build_runtime(d, tree, indexed=True, compiled=True)
    tracer = Tracer()
    single.set_tracer(tracer)
    baseline = single.run(stream)
    runner, result = feed_in_frames(
        lambda: build_runtime(d, tree, indexed=True, compiled=True),
        stream,
        16,
        trace=True,
    )
    fields = ("node_id", "kind", "events", "created", "probed", "matches")

    def observed(nodes):
        return [tuple(node[f] for f in fields) for node in nodes]

    assert match_sig(result.matches) == match_sig(baseline)
    assert observed(runner.stats()["nodes"]) == observed(tracer.node_dicts())
    assert any(node["events"] for node in tracer.node_dicts())
