"""The per-event floor: expiry watermark, maintained counts, disjointness.

Every runtime (tree, NFA, shared DAG) shares one
:class:`~repro.engines.stores.Holdings` tally between its stores and
buffers.  Its ``oldest`` watermark lets an event skip the expiry sweep,
and its counts replace per-event sums over every structure.  These
tests pin both down:

* after every ``process`` (and every retraction and seeding), the
  maintained counts equal the recomputed sums and the watermark is at
  or below every structure's oldest entry;
* an engine whose watermark is pinned to ``-inf`` — so it sweeps on
  every event, as before the watermark existed — is the oracle: the
  gated engine must emit the same matches per event and report the same
  peaks, ``pm_expired`` and traced per-node ``expired`` counters;
* joins whose two sides cannot bind one event (no shared event type)
  skip the disjointness check entirely, and joins that can still get it.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest.mock import patch

import pytest

from repro.engines import NFAEngine, build_runtime, reference_match_keys
from repro.engines import base as base_module
from repro.engines.matches import PartialMatch
from repro.engines.stores import Holdings
from repro.events import Event, Stream
from repro.multiquery import Workload, plan_workload
from repro.multiquery.executor import MultiQueryEngine
from repro.observe import Tracer
from repro.patterns import decompose, parse_pattern
from repro.plans import enumerate_bushy_trees, enumerate_orders
from repro.stats import estimate_pattern_catalog

#: (name, pattern) — negation leading / mid / trailing, Kleene, and a
#: join whose sides share an event type.  ``D`` is the forbidden type.
PATTERNS = [
    ("plain", "PATTERN SEQ(A a, B b, C c) WHERE a.x = c.x WITHIN 3"),
    ("leading", "PATTERN SEQ(NOT(D n), A a, B b, C c) WHERE n.x = a.x WITHIN 3"),
    ("mid", "PATTERN SEQ(A a, NOT(D n), B b, C c) WHERE a.x = c.x WITHIN 3"),
    ("trailing", "PATTERN SEQ(A a, B b, NOT(D n)) WHERE n.x = b.x WITHIN 2"),
    ("kleene", "PATTERN SEQ(A a, KL(B b), C c) WHERE a.x = c.x WITHIN 2"),
    ("same-type", "PATTERN SEQ(A a1, A a2, B b) WHERE a1.x = a2.x WITHIN 3"),
]
SELECTIONS = ("any", "next", "strict")
SEEDS = (5, 23)
KLEENE_CAP = 3


def rand_stream(seed: int, count: int = 90, types: str = "ABCD") -> Stream:
    rng = random.Random(seed)
    events, t = [], 0.0
    for _ in range(count):
        t += rng.choice((0.0, rng.uniform(0.05, 0.5)))  # ties included
        events.append(Event(rng.choice(types), t, {"x": rng.randrange(3)}))
    return Stream(events)


class PinnedHoldings(Holdings):
    """A tally whose watermark never lets a sweep be skipped."""

    oldest = property(lambda self: float("-inf"), lambda self, value: None)


@contextmanager
def forced_sweeps():
    """Engines built inside sweep on every event (the oracle)."""
    with patch.object(base_module, "Holdings", PinnedHoldings):
        yield


def structures(engine):
    """``(stores, buffers, negation checkers)`` of any runtime."""
    stores = engine._stores
    checkers = [root.checker for root in engine._roots]
    buffers = list(engine._buffers.values())
    for checker in checkers:
        buffers.extend(checker._buffers.values())
    return stores, buffers, checkers


def check_floor(engine) -> None:
    """Maintained counts equal the sums; the watermark is a lower bound."""
    held = engine._held
    stores, buffers, checkers = structures(engine)
    assert held.pending == sum(len(checker.pending) for checker in checkers)
    assert held.partial_matches == sum(len(store) for store in stores)
    assert engine.live_partial_matches() == held.partial_matches
    assert held.events == sum(len(buffer) for buffer in buffers)
    for store in stores:
        for pm in store:
            assert held.oldest <= pm.min_ts
    for buffer in buffers:
        for event in buffer:
            assert held.oldest <= event.timestamp


def match_sig(matches) -> list:
    return [(m.pattern_name, m.key(), m.detection_ts, m.latency) for m in matches]


def peaks(engine) -> tuple:
    metrics = engine.metrics
    return (
        metrics.peak_partial_matches,
        metrics.peak_buffered_events,
        metrics.pm_expired,
        metrics.matches_emitted,
    )


def run_pair(build, events, traced: bool, retract=()):
    """Run the gated engine and its forced-sweep oracle side by side,
    checking the floor after every step; return both engines and, when
    traced, both tracers."""
    gated = build()
    with forced_sweeps():
        forced = build()
    tracers = (Tracer(), Tracer()) if traced else (None, None)
    if traced:
        gated.set_tracer(tracers[0])
        forced.set_tracer(tracers[1])
    for index, event in enumerate(events):
        assert match_sig(gated.process(event)) == match_sig(
            forced.process(event)
        ), f"event {index}"
        check_floor(gated)
        if index in retract:
            for engine in (gated, forced):
                engine.retract_seq(events[index // 2].seq)
            check_floor(gated)
    assert match_sig(gated.finalize()) == match_sig(forced.finalize())
    check_floor(gated)
    assert peaks(gated) == peaks(forced)
    if traced:
        assert [n.expired for n in tracers[0].nodes] == [
            n.expired for n in tracers[1].nodes
        ]
    return gated, forced


def plans_of(d):
    trees = list(enumerate_bushy_trees(d.positive_variables))
    orders = list(enumerate_orders(d.positive_variables))
    return (trees[0], trees[-1]), (orders[0], orders[-1])


# -- the forced-sweep oracle ---------------------------------------------------


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("selection", SELECTIONS)
@pytest.mark.parametrize("name,text", PATTERNS, ids=[n for n, _ in PATTERNS])
@pytest.mark.parametrize("seed", SEEDS)
def test_gated_sweep_matches_forced_sweep(name, text, selection, traced, seed):
    events = list(rand_stream(seed))
    d = decompose(parse_pattern(text))
    trees, orders = plans_of(d)
    kwargs = dict(selection=selection, max_kleene_size=KLEENE_CAP)
    expired = 0
    for tree in trees:
        gated, _ = run_pair(lambda: build_runtime(d, tree, **kwargs), events, traced)
        expired += gated.metrics.pm_expired
    for order in orders:
        gated, _ = run_pair(lambda: NFAEngine(d, order, **kwargs), events, traced)
        expired += gated.metrics.pm_expired
    assert expired  # the stream is long enough for the window to slide


@pytest.mark.parametrize("name,text", PATTERNS, ids=[n for n, _ in PATTERNS])
@pytest.mark.parametrize("seed", SEEDS)
def test_retractions_keep_the_floor(name, text, seed):
    """``retract_seq`` removes without raising the watermark or losing a
    count, and the gated engine keeps agreeing with the oracle after."""
    events = list(rand_stream(seed))
    d = decompose(parse_pattern(text))
    trees, orders = plans_of(d)
    retract = {20, 45, 70}
    for tree in trees:
        run_pair(
            lambda: build_runtime(d, tree, max_kleene_size=KLEENE_CAP),
            events, traced=False, retract=retract,
        )
    for order in orders:
        run_pair(
            lambda: NFAEngine(d, order, max_kleene_size=KLEENE_CAP),
            events, traced=False, retract=retract,
        )


@pytest.mark.parametrize("name,text", PATTERNS, ids=[n for n, _ in PATTERNS])
@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_engines_keep_the_floor(name, text, seed):
    """``seed_from`` replays and ``seed_negation_state`` offers directly;
    both must leave a watermark at or below what they loaded."""
    events = list(rand_stream(seed))
    head, tail = events[:45], events[45:]
    d = decompose(parse_pattern(text))
    trees, orders = plans_of(d)
    builders = [
        lambda: build_runtime(d, trees[0], max_kleene_size=KLEENE_CAP),
        lambda: NFAEngine(d, orders[-1], max_kleene_size=KLEENE_CAP),
    ]
    for build in builders:
        donor = build()
        for event in head:
            donor.process(event)
        snapshot = donor.export_state()
        for seed_with in ("seed_from", "seed_negation_state"):

            def seeded(seed_with=seed_with):
                engine = build()
                getattr(engine, seed_with)(snapshot)
                check_floor(engine)
                return engine

            run_pair(seeded, tail, traced=False)


WORKLOAD = [
    "PATTERN SEQ(A a, B b, C c) WHERE a.x = c.x WITHIN 3",
    "PATTERN SEQ(A a, B b, NOT(D n)) WHERE n.x = b.x WITHIN 2",
    "PATTERN SEQ(NOT(D n), A a, B b) WHERE n.x = a.x WITHIN 3",
    "PATTERN SEQ(A a, NOT(D n), C c) WITHIN 4",
    "PATTERN SEQ(A a, KL(B b), C c) WHERE a.x = c.x WITHIN 2",
    "PATTERN SEQ(A a1, A a2, B b) WHERE a1.x = a2.x WITHIN 3",
]


def shared_plan(stream):
    workload = Workload(WORKLOAD)
    catalogs = {
        name: estimate_pattern_catalog(pattern, stream)
        for name, pattern in workload.items()
    }
    return plan_workload(workload, catalogs, algorithm="GREEDY")


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("seed", SEEDS)
def test_shared_dag_gated_sweep_matches_forced_sweep(traced, seed):
    """Per-node windows (2, 3 and 4 here) behind one watermark gated on
    the shortest window; retractions mid-stream."""
    stream = rand_stream(seed)
    plan = shared_plan(stream)
    gated, _ = run_pair(
        lambda: MultiQueryEngine(plan, max_kleene_size=KLEENE_CAP),
        list(stream), traced, retract={30, 60},
    )
    assert gated.metrics.pm_expired


# -- plan-time disjointness ----------------------------------------------------


OVERLAPPING = [
    "PATTERN SEQ(A a1, A a2, B b) WHERE a1.x <= a2.x WITHIN 2",
    "PATTERN SEQ(A a, KL(A k), B b) WITHIN 1.5",
]


def shared_engine(text, stream):
    workload = Workload([text])
    catalogs = {
        name: estimate_pattern_catalog(pattern, stream)
        for name, pattern in workload.items()
    }
    return MultiQueryEngine(
        plan_workload(workload, catalogs, algorithm="GREEDY"),
        max_kleene_size=KLEENE_CAP,
    )


@pytest.mark.parametrize("text", OVERLAPPING, ids=["same-type", "kleene"])
@pytest.mark.parametrize("seed", SEEDS)
def test_overlapping_types_match_the_reference(text, seed):
    """Where two variables can bind one event, every runtime still
    refuses to bind it twice (against the brute-force oracle)."""
    stream = rand_stream(seed, count=40, types="AB")
    d = decompose(parse_pattern(text))
    expected = reference_match_keys(d, stream, max_kleene_size=KLEENE_CAP)
    assert expected
    for tree in enumerate_bushy_trees(d.positive_variables):
        engine = build_runtime(d, tree, max_kleene_size=KLEENE_CAP)
        assert {m.key() for m in engine.run(stream)} == expected
    for order in enumerate_orders(d.positive_variables):
        engine = NFAEngine(d, order, max_kleene_size=KLEENE_CAP)
        assert {m.key() for m in engine.run(stream)} == expected
    dag = shared_engine(text, stream).run(stream)
    assert {m.key() for matches in dag.values() for m in matches} == expected


@pytest.fixture
def seq_calls(monkeypatch):
    """Counts every ``event_seqs`` / ``contains_seq`` call."""
    calls = {"count": 0}
    for name in ("event_seqs", "contains_seq"):
        original = getattr(PartialMatch, name)

        def counted(self, *args, _original=original):
            calls["count"] += 1
            return _original(self, *args)

        monkeypatch.setattr(PartialMatch, name, counted)
    return calls


def test_distinct_types_never_check_disjointness(seq_calls):
    stream = rand_stream(SEEDS[0])
    text = "PATTERN SEQ(A a, B b, C c) WHERE a.x = c.x WITHIN 3"
    d = decompose(parse_pattern(text))
    matched = 0
    for tree in enumerate_bushy_trees(d.positive_variables):
        matched += len(build_runtime(d, tree).run(stream))
    for order in enumerate_orders(d.positive_variables):
        matched += len(NFAEngine(d, order).run(stream))
    for matches in shared_engine(text, stream).run(stream).values():
        matched += len(matches)
    assert matched
    assert seq_calls["count"] == 0


def test_overlapping_types_still_check_disjointness(seq_calls):
    stream = rand_stream(SEEDS[0], count=40, types="AB")
    d = decompose(parse_pattern(OVERLAPPING[0]))
    for tree in enumerate_bushy_trees(d.positive_variables):
        build_runtime(d, tree).run(stream)
    tree_calls = seq_calls["count"]
    for order in enumerate_orders(d.positive_variables):
        NFAEngine(d, order).run(stream)
    nfa_calls = seq_calls["count"] - tree_calls
    shared_engine(OVERLAPPING[0], stream).run(stream)
    assert tree_calls and nfa_calls
    assert seq_calls["count"] > tree_calls + nfa_calls
