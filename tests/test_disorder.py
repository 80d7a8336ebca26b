"""Out-of-order and updatable streams (:mod:`repro.streams.disorder`).

The core property throughout: the **net** match multiset of a
disordered, corrected run — plain matches plus revision records minus
retraction records — must be byte-identical (canonical seq-free
fingerprints) to a clean ordered run over the corrected stream.  The
seeded fuzz matrix checks it across both runtimes (NFA via order plans,
tree via ZSTREAM), the shared multi-query engine, indexed and linear
stores, compiled and interpreted predicates, and batch feeding; the
delta tests check it for retractions (including negation resurrection),
payload updates, and late events under the ``"revise"`` policy.

Corrections are window-bounded; ``TestBoundedCorrections`` holds them to
the whole-log replay they replaced (``tests/whole_log_oracle.py``),
delta record by delta record, and pins their cost to the window.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro import (
    DeltaEngine,
    DisorderBuffer,
    DisorderError,
    MatchRetraction,
    MatchRevision,
    ParallelConfig,
    ParallelExecutor,
    Retraction,
    Update,
    build_engines,
    net_fingerprints,
    net_matches,
    parse_pattern,
    plan_pattern,
    plan_workload,
)
from repro.engines.metrics import EngineMetrics
from repro.events import Event, Stream, StreamOrderError
from repro.multiquery import Workload
from repro.multiquery.executor import MultiQueryEngine
from repro.service import Ingestor
from repro.stats import StatisticsCatalog, estimate_pattern_catalog
from repro.streams.disorder import match_fingerprint

from .whole_log_oracle import WholeLogDeltaEngine

SEQ3 = "PATTERN SEQ(A a, B b, C c) WHERE a.x <= b.x AND b.x <= c.x WITHIN 1.0"
NEG = "PATTERN SEQ(A a, NOT(B nb), C c) WITHIN 1.0"
WORKLOAD = (
    "PATTERN SEQ(A a, B b) WHERE a.x < b.x WITHIN 1.0",
    "PATTERN SEQ(A p, B q, C r) WHERE p.x < q.x WITHIN 1.0",
)


def make_events(
    seed: int, count: int = 150, types: str = "ABC", grid: float = 0.0
) -> list:
    """Seeded stream with random gaps — or, with ``grid``, three events
    on every tick of that spacing, so equal timestamps (and events
    exactly one and three windows apart) sit on slice and zone edges."""
    rng = random.Random(seed)
    events, t = [], 0.0
    for i in range(count):
        t = (i // 3) * grid if grid else t + rng.uniform(0.01, 0.09)
        events.append(Event(rng.choice(types), t, {"x": rng.randint(0, 5)}))
    return events


def planned_for(text: str, events: list, algorithm: str = "GREEDY"):
    pattern = parse_pattern(text)
    catalog = estimate_pattern_catalog(pattern, Stream(list(events)))
    return plan_pattern(pattern, catalog, algorithm=algorithm)


def shared_plan_for(events: list, queries=WORKLOAD):
    workload = Workload(list(queries))
    catalogs = {
        name: StatisticsCatalog(
            {t: 1.0 for t in pattern.variable_types().values()}
        )
        for name, pattern in workload.items()
    }
    return plan_workload(workload, catalogs)


def clean_run(build_fn, events: list) -> list:
    """Ordered reference run: fingerprints of the final match set."""
    engine = build_fn()
    out = []
    for i, event in enumerate(events):
        out.extend(engine.process(event.with_seq(i)))
    out.extend(engine.finalize())
    return net_fingerprints(out)


def shuffle_within(events: list, rng: random.Random, max_delay: float) -> list:
    """Bounded-displacement shuffle: each event jitters forward by less
    than ``max_delay`` of stream time, so no event is late for a buffer
    with that bound."""
    jittered = [
        (event.timestamp + rng.uniform(0.0, max_delay * 0.95), i)
        for i, event in enumerate(events)
    ]
    return [events[i] for _, i in sorted(jittered)]


# ---------------------------------------------------------------------------
# DisorderBuffer mechanics
# ---------------------------------------------------------------------------

class TestDisorderBuffer:
    def test_releases_in_timestamp_order_behind_the_watermark(self):
        buffer = DisorderBuffer(1.0)
        released = []
        for ts in (0.0, 2.0, 1.5, 0.5):
            # 0.5 is within the bound of max_ts=2.0 (watermark 1.0)? No:
            # 0.5 < 1.0 would be late; use ordered tail instead.
            if ts == 0.5:
                continue
            released.extend(buffer.offer(ts, ts).released)
        assert released == [0.0]  # watermark 1.0 frees only t=0
        released.extend(buffer.offer(3.0, 3.0).released)
        assert released == [0.0, 1.5, 2.0]  # watermark 2.0, in ts order

    def test_zero_delay_is_passthrough(self):
        buffer = DisorderBuffer(0.0)
        for i, ts in enumerate((0.0, 0.5, 0.5, 1.0)):
            result = buffer.offer(ts, i)
            assert result.released == [i]  # released immediately, FIFO ties
        assert len(buffer) == 0

    def test_strict_raises_beyond_the_bound(self):
        buffer = DisorderBuffer(0.5, late_policy="strict")
        buffer.offer(2.0, "a")
        with pytest.raises(StreamOrderError, match="arrives before"):
            buffer.offer(1.0, "late")

    def test_drop_counts_and_skips(self):
        metrics = EngineMetrics()
        buffer = DisorderBuffer(0.5, late_policy="drop", metrics=metrics)
        buffer.offer(2.0, "a")
        result = buffer.offer(1.0, "late")
        assert result.dropped and result.late == "late"
        assert metrics.events_late_dropped == 1
        assert metrics.watermark_lag.count == 2  # every arrival records

    def test_reordered_counter_and_lag_histogram(self):
        metrics = EngineMetrics()
        buffer = DisorderBuffer(1.0, metrics=metrics)
        buffer.offer(1.0, "a")
        buffer.offer(0.5, "b")  # behind the frontier but within bound
        assert metrics.events_reordered == 1
        assert metrics.watermark_lag.max == pytest.approx(0.5)

    def test_flush_releases_remainder_in_order(self):
        buffer = DisorderBuffer(10.0)
        for ts in (3.0, 1.0, 2.0):
            buffer.offer(ts, ts)
        assert buffer.flush() == [1.0, 2.0, 3.0]

    def test_discard_removes_a_buffered_item(self):
        buffer = DisorderBuffer(10.0)
        buffer.offer(1.0, "a")
        buffer.offer(2.0, "b")
        assert buffer.discard("a")
        assert not buffer.discard("a")
        assert buffer.flush() == ["b"]

    def test_validation(self):
        with pytest.raises(DisorderError, match="max_delay"):
            DisorderBuffer(-1.0)
        with pytest.raises(DisorderError, match="late_policy"):
            DisorderBuffer(1.0, late_policy="hope")


# ---------------------------------------------------------------------------
# Net-match identity under bounded disorder (the fuzz matrix)
# ---------------------------------------------------------------------------

class TestDisorderIdentity:
    @pytest.mark.parametrize("algorithm", ("GREEDY", "ZSTREAM"))
    @pytest.mark.parametrize("indexed", (True, False))
    @pytest.mark.parametrize("compiled", (True, False))
    @pytest.mark.parametrize("seed", (3, 7))
    def test_single_query_runtimes(self, algorithm, indexed, compiled, seed):
        events = make_events(seed)
        planned = planned_for(SEQ3, events, algorithm)
        build = lambda: build_engines(  # noqa: E731
            planned, indexed=indexed, compiled=compiled
        )
        clean = clean_run(build, events)
        shuffled = shuffle_within(events, random.Random(seed + 100), 0.3)
        delta = DeltaEngine(build, max_delay=0.3, late_policy="strict")
        assert net_fingerprints(delta.run(shuffled)) == clean
        assert delta.net_fingerprints() == clean
        assert delta.metrics.events_reordered > 0

    @pytest.mark.parametrize("seed", (5, 11))
    def test_multi_query_engine(self, seed):
        events = make_events(seed)
        plan = shared_plan_for(events)
        build = lambda: MultiQueryEngine(plan)  # noqa: E731
        clean = clean_run(build, events)
        shuffled = shuffle_within(events, random.Random(seed), 0.25)
        delta = DeltaEngine(build, max_delay=0.25)
        assert net_fingerprints(delta.run(shuffled)) == clean

    def test_batch_feeding_is_equivalent(self):
        events = make_events(13)
        planned = planned_for(SEQ3, events)
        build = lambda: build_engines(planned)  # noqa: E731
        clean = clean_run(build, events)
        shuffled = shuffle_within(events, random.Random(13), 0.2)
        delta = DeltaEngine(build, max_delay=0.2)
        out = []
        for start in range(0, len(shuffled), 32):
            out.extend(delta.process_batch(shuffled[start:start + 32]))
        out.extend(delta.finalize())
        assert net_fingerprints(out) == clean

    def test_zero_delay_ordered_stream_is_unchanged(self):
        # max_delay=0 on an already-ordered stream: pure pass-through,
        # no replays, no deltas — the wrapper must be invisible.
        events = make_events(17)
        planned = planned_for(SEQ3, events)
        build = lambda: build_engines(planned)  # noqa: E731
        clean = clean_run(build, events)
        delta = DeltaEngine(build, max_delay=0.0, late_policy="strict")
        out = delta.run(events)
        assert all(
            not isinstance(item, (MatchRetraction, MatchRevision))
            for item in out
        )
        assert net_fingerprints(out) == clean
        assert delta.metrics.events_reordered == 0
        assert delta.metrics.retractions_processed == 0

    def test_late_revise_rederives(self):
        events = make_events(19)
        planned = planned_for(SEQ3, events)
        build = lambda: build_engines(planned)  # noqa: E731
        clean = clean_run(build, events)
        shuffled = shuffle_within(events, random.Random(19), 0.3)
        delta = DeltaEngine(build, max_delay=0.03, late_policy="revise")
        assert net_fingerprints(delta.run(shuffled)) == clean

    def test_late_drop_drops(self):
        events = make_events(23)
        planned = planned_for(SEQ3, events)
        build = lambda: build_engines(planned)  # noqa: E731
        shuffled = shuffle_within(events, random.Random(23), 0.3)
        delta = DeltaEngine(build, max_delay=0.03, late_policy="drop")
        delta.run(shuffled)
        dropped = delta.metrics.events_late_dropped
        assert dropped > 0
        # The net set matches a clean run over the *kept* events.
        # Reconstruct them: replay the buffer decision sequence.
        probe = DisorderBuffer(0.03, late_policy="drop")
        kept = []
        for event in shuffled:
            if probe.offer(event.timestamp, event).late is None:
                kept.append(event)
        kept.sort(key=lambda e: e.timestamp)
        assert len(shuffled) - len(kept) == dropped
        assert delta.net_fingerprints() == clean_run(build, kept)


# ---------------------------------------------------------------------------
# Retraction / update deltas
# ---------------------------------------------------------------------------

class TestRetractionDeltas:
    @pytest.mark.parametrize("algorithm", ("GREEDY", "ZSTREAM"))
    @pytest.mark.parametrize("target", (10, 20, 77))
    def test_retract_equals_rerun_without_the_event(self, algorithm, target):
        events = make_events(31)
        planned = planned_for(SEQ3, events, algorithm)
        build = lambda: build_engines(planned)  # noqa: E731
        remaining = [e for i, e in enumerate(events) if i != target]
        clean = clean_run(build, remaining)
        delta = DeltaEngine(build)
        out = delta.process_batch(events)
        out.extend(delta.process(Retraction(target)))
        out.extend(delta.finalize())
        assert net_fingerprints(out) == clean
        assert delta.metrics.retractions_processed == 1

    def test_retractions_emit_typed_records(self):
        events = make_events(37)
        planned = planned_for(SEQ3, events)
        build = lambda: build_engines(planned)  # noqa: E731
        delta = DeltaEngine(build)
        delta.process_batch(events)
        # Retract an A that participates in at least one emitted match.
        bound = {
            uids[0]
            for key in delta._emitted
            for _, uids in key[1]
        }
        target = min(bound)
        before = len(delta.matches)
        out = delta.process(Retraction(target))
        assert out and all(isinstance(r, MatchRetraction) for r in out)
        assert len(delta.matches) == before - len(out)
        assert delta.metrics.matches_retracted == len(out)
        assert {r.cause for r in out} == {"retraction"}

    def test_negation_relevant_retraction_resurrects_matches(self):
        events = make_events(41)
        planned = planned_for(NEG, events)
        build = lambda: build_engines(planned)  # noqa: E731
        base = clean_run(build, events)
        # Find a B whose removal resurrects at least one match.
        target, clean, remaining = None, None, None
        for i, e in enumerate(events):
            if e.type != "B":
                continue
            candidate = [ev for j, ev in enumerate(events) if j != i]
            fingerprints = clean_run(build, candidate)
            if len(fingerprints) > len(base):
                target, clean, remaining = i, fingerprints, candidate
                break
        assert target is not None  # the stream has a suppressing B
        delta = DeltaEngine(build)
        out = delta.process_batch(events)
        out.extend(delta.process(Retraction(target)))
        revisions = [r for r in out if isinstance(r, MatchRevision)]
        assert revisions  # resurrected matches surface as revisions
        out.extend(delta.finalize())
        assert net_fingerprints(out) == clean

    @pytest.mark.parametrize("target", (10, 50))
    def test_update_equals_rerun_with_new_payload(self, target):
        events = make_events(43)
        planned = planned_for(SEQ3, events)
        build = lambda: build_engines(planned)  # noqa: E731
        corrected = list(events)
        corrected[target] = Event(
            events[target].type, events[target].timestamp, {"x": 0}
        )
        clean = clean_run(build, corrected)
        delta = DeltaEngine(build)
        out = delta.process_batch(events)
        out.extend(delta.process(Update(target, {"x": 0})))
        out.extend(delta.finalize())
        assert net_fingerprints(out) == clean

    def test_retract_while_still_buffered(self):
        events = make_events(47)
        planned = planned_for(SEQ3, events)
        build = lambda: build_engines(planned)  # noqa: E731
        delta = DeltaEngine(build, max_delay=100.0)  # everything buffered
        delta.process_batch(events[:10])
        out = delta.process(Retraction(5))
        assert out == []
        remaining = [e for i, e in enumerate(events[:10]) if i != 5]
        delta.finalize()
        assert delta.net_fingerprints() == clean_run(build, remaining)

    def test_unknown_uid_is_a_typed_error(self):
        planned = planned_for(SEQ3, make_events(3))
        delta = DeltaEngine(lambda: build_engines(planned))
        with pytest.raises(DisorderError, match="unknown"):
            delta.process(Retraction(99))
        delta.process(Event("A", 1.0, {"x": 1}))
        delta.process(Retraction(0))
        with pytest.raises(DisorderError, match="retracted"):
            delta.process(Retraction(0))

    def test_net_matches_folds_retractions(self):
        events = make_events(53)
        planned = planned_for(SEQ3, events)
        delta = DeltaEngine(lambda: build_engines(planned))
        out = delta.process_batch(events)
        bound = {
            uids[0] for key in delta._emitted for _, uids in key[1]
        }
        out.extend(delta.process(Retraction(min(bound))))
        out.extend(delta.finalize())
        folded = net_matches(out)
        assert sorted(
            net_fingerprints(folded)
        ) == delta.net_fingerprints()

    def test_consuming_selection_is_refused(self):
        events = make_events(3)
        pattern = parse_pattern(SEQ3)
        catalog = estimate_pattern_catalog(pattern, Stream(list(events)))
        planned = plan_pattern(
            pattern, catalog, algorithm="GREEDY", selection="next"
        )
        with pytest.raises(DisorderError, match="skip-till-any-match"):
            DeltaEngine(lambda: build_engines(planned))

    def test_finalized_engine_refuses_further_items(self):
        planned = planned_for(SEQ3, make_events(3))
        delta = DeltaEngine(lambda: build_engines(planned))
        delta.finalize()
        with pytest.raises(DisorderError, match="finalized"):
            delta.process(Event("A", 1.0, {}))

    def test_multiquery_retraction(self):
        events = make_events(59)
        plan = shared_plan_for(events)
        build = lambda: MultiQueryEngine(plan)  # noqa: E731
        remaining = [e for i, e in enumerate(events) if i != 30]
        clean = clean_run(build, remaining)
        delta = DeltaEngine(build)
        out = delta.process_batch(events)
        out.extend(delta.process(Retraction(30)))
        out.extend(delta.finalize())
        assert net_fingerprints(out) == clean


# ---------------------------------------------------------------------------
# Window-bounded corrections ≡ whole-log replay, at window cost
# ---------------------------------------------------------------------------

BOUNDED_PATTERNS = {
    "sequence": SEQ3,
    "and": "PATTERN AND(A a, B b, C c) WHERE a.x < b.x AND b.x < c.x WITHIN 1.0",
    "neg-leading": "PATTERN SEQ(NOT(B nb), A a, C c) WITHIN 1.0",
    "neg-mid": NEG,
    "neg-trailing": "PATTERN SEQ(A a, C c, NOT(B nb)) WITHIN 1.0",
    "kleene": "PATTERN SEQ(A a, KL(B b), C c) WHERE a.x = c.x WITHIN 0.5",
    "disjunction": (
        "PATTERN OR(SEQ(A a, NOT(B nb), C c), SEQ(C d, B e)) "
        "WHERE d.x = e.x WITHIN 1.0"
    ),
}
#: Rides along in the multi-query DAG with a *smaller* window: the
#: reach must come from the largest one.
SIDE_QUERY = "PATTERN SEQ(A p, C q) WHERE p.x < q.x WITHIN 0.5"
RUNTIMES = ("nfa", "tree", "dag")


def bounded_build(name: str, runtime: str, events: list):
    if runtime == "dag":
        plan = shared_plan_for(events, (BOUNDED_PATTERNS[name], SIDE_QUERY))
        return lambda: MultiQueryEngine(plan, max_kleene_size=3)
    planned = planned_for(
        BOUNDED_PATTERNS[name],
        events,
        "GREEDY" if runtime == "nfa" else "ZSTREAM",
    )
    return lambda: build_engines(planned, max_kleene_size=3)


def record(item) -> tuple:
    """Seq-free, comparable form of one ``DeltaEngine`` output."""
    if isinstance(item, MatchRetraction):
        return ("-", item.fingerprint, item.pattern_name, item.cause, item.uid_key)
    if isinstance(item, MatchRevision):
        return ("+", match_fingerprint(item.match), item.cause, item.uid_key)
    return ("=", match_fingerprint(item))


def aged_target(events: list, cut: int, age: float, type_name=None) -> int:
    """Index below ``cut`` of the event nearest ``age`` stream-time
    units behind ``events[cut - 1]`` (optionally of one type)."""
    wanted = events[cut - 1].timestamp - age
    return min(
        (i for i in range(cut) if type_name in (None, events[i].type)),
        key=lambda i: abs(events[i].timestamp - wanted),
    )


def one_delta_case(events: list, cut: int, target: int, kind: str):
    """``(feed, delta item, corrected stream)`` for one correction of
    ``events[target]`` issued after ``events[:cut]`` arrived in order."""
    event = events[target]
    if kind == "late":
        # Held back, then handed over once the watermark has passed it;
        # a late insertion lands after its equal-timestamp peers.
        feed = events[:target] + events[target + 1:cut]
        peers = [e for e in events if e.timestamp <= event.timestamp and e is not event]
        rest = [e for e in events if e.timestamp > event.timestamp]
        return feed, event, peers + [event] + rest
    if kind == "retraction":
        return events[:cut], Retraction(target), events[:target] + events[target + 1:]
    payload = {"x": (event["x"] + 3) % 6}
    corrected = list(events)
    corrected[target] = Event(event.type, event.timestamp, payload)
    return events[:cut], Update(target, payload), corrected


class TestBoundedCorrections:
    """A correction re-derives one window-bounded slice of the log; the
    oracle replays all of it.  They must emit the same records."""

    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize("name", sorted(BOUNDED_PATTERNS))
    @pytest.mark.parametrize("grid", (0.0, 0.25))
    def test_single_delta_outputs_equal_the_whole_log_oracle(
        self, name, runtime, grid
    ):
        events = make_events(len(name) + 3, 160, grid=grid)
        build = bounded_build(name, runtime, events)
        window = build().window
        # Target age: inside the live window, one window old, far past
        # (its whole slice closed long before the log's end).  The delta
        # comes at the end of the stream or two thirds in, alternating —
        # the two stream shapes cover both for every (age, kind).
        cuts = (len(events), 2 * len(events) // 3)
        for case, (age, kind) in enumerate(
            (a * window, k)
            for a in (0.3, 1.5, 5.0)
            for k in ("retraction", "update", "late")
        ):
            cut = cuts[(case + bool(grid)) % 2]
            # "B" is the negated type of every negation pattern here.
            target = aged_target(
                events, cut, age, "B" if kind == "retraction" else None
            )
            feed, item, corrected = one_delta_case(events, cut, target, kind)
            runs = []
            for engine_cls in (DeltaEngine, WholeLogDeltaEngine):
                engine = engine_cls(build, late_policy="revise")
                engine.process_batch(feed)
                runs.append(
                    (
                        [record(o) for o in engine.process(item)],
                        [record(o) for o in engine.process_batch(events[cut:])],
                        [record(o) for o in engine.finalize()],
                        engine.net_fingerprints(),
                    )
                )
            where = f"{kind} of #{target}, age {age:g}, after {cut} events"
            assert runs[0] == runs[1], where
            assert runs[0][-1] == clean_run(build, corrected), where

    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize("name", sorted(BOUNDED_PATTERNS))
    @pytest.mark.parametrize("seed", (1, 2))
    def test_delta_sequences_equal_the_whole_log_oracle(
        self, name, runtime, seed
    ):
        # Corrections pile up: late arrivals renumber the log, retracted
        # matches come back, updates hit already-updated events.  After
        # the first replay the oracle's report order is a clean run's
        # while the bounded engine's is historical, so each delta's
        # retraction and revision groups compare as multisets.
        events = make_events(seed, 160, grid=0.1 if seed % 2 else 0.0)
        build = bounded_build(name, runtime, events)
        rng = random.Random(seed)
        held = {i: i + rng.randint(5, 80) for i in rng.sample(range(len(events)), 6)}
        items, uid_of, live = [], {}, []
        for i, event in enumerate(events):
            arriving = [j for j, due in held.items() if due == i]
            for j in ([] if i in held else [i]) + arriving:
                uid_of[j] = len(uid_of)
                live.append(j)
                items.append(events[j])
            if live and rng.random() < 0.08:
                j = rng.choice(live)
                if rng.random() < 0.5:
                    live.remove(j)
                    items.append(Retraction(uid_of[j]))
                else:
                    items.append(Update(uid_of[j], {"x": rng.randint(0, 5)}))
        assert sum(not isinstance(i, Event) for i in items) >= 5
        runs = []
        for engine_cls in (DeltaEngine, WholeLogDeltaEngine):
            engine = engine_cls(build, late_policy="revise")
            per_item = []
            for item in items:
                out = [record(o) for o in engine.process(item)]
                signs = [r[0] for r in out]
                assert signs == sorted(signs, key="-+=".index)
                per_item.append(sorted(out))
            per_item.append(sorted(record(o) for o in engine.finalize()))
            runs.append((per_item, engine.net_fingerprints()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize("kind", ("retraction", "update", "late"))
    def test_correction_cost_is_flat_in_stream_length(self, runtime, kind):
        # The same correction after the same recent history, once with
        # 300 more events in front: the replay work it adds must not
        # move, and must fit the log entries within its reach.
        events = make_events(5, 600)
        build = bounded_build("neg-mid", runtime, events)
        reach = 3 * build().window
        for age in (0.2, 6.0):  # recent target, old target
            target = aged_target(
                events, len(events), age, "B" if kind == "retraction" else None
            )
            ts = events[target].timestamp
            assert ts - reach > events[300].timestamp  # slice clear of the prefix
            costs = []
            for start in (300, 0):
                feed, item, _ = one_delta_case(
                    events[start:], len(events) - start, target - start, kind
                )
                engine = DeltaEngine(build, late_policy="revise")
                engine.process_batch(feed)
                before = engine.metrics.events_processed
                assert before == len(feed)
                engine.process(item)
                costs.append(engine.metrics.events_processed - before)
            in_reach = sum(abs(e.timestamp - ts) <= reach for e in events)
            tail = sum(e.timestamp >= events[-1].timestamp - reach for e in events)
            # A far-past late arrival also rebuilds the live engine from
            # the log's last windows (sequence numbers moved under it).
            bound = in_reach + (tail if kind == "late" and age > 1 else 0)
            assert 0 < costs[0] == costs[1] <= bound, (age, costs, bound)

    def test_no_deltas_emits_the_bare_engines_matches_in_order(self):
        events = make_events(17)
        planned = planned_for(SEQ3, events)
        bare = build_engines(planned).run(Stream(list(events)))
        delta = DeltaEngine(lambda: build_engines(planned), late_policy="strict")
        out = delta.run(events)
        assert [record(m) for m in out] == [record(m) for m in bare]
        assert delta.metrics.events_processed == len(events)


# ---------------------------------------------------------------------------
# Service front door: watermark-aware ingestion
# ---------------------------------------------------------------------------

def keyed_events(seed: int, count: int = 200, keys: int = 4) -> list:
    rng = random.Random(seed)
    events, t = [], 0.0
    for _ in range(count):
        t += rng.uniform(0.01, 0.09)
        events.append(
            Event(
                rng.choice("ABC"),
                t,
                {"k": rng.randrange(keys), "v": rng.random()},
            )
        )
    return events


KEYED = "PATTERN SEQ(A a, B b) WHERE a.k = b.k WITHIN 1.0"


class TestIngestorDisorder:
    def _executor(self, events):
        pattern = parse_pattern(KEYED)
        catalog = estimate_pattern_catalog(pattern, Stream(list(events)))
        planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
        config = ParallelConfig(
            workers=2, partitioner="key", backend="serial", batch_size=16
        )
        return planned, ParallelExecutor(planned, config)

    def test_out_of_order_within_bound_matches_ordered_run(self):
        events = keyed_events(61)
        planned, executor = self._executor(events)
        shuffled = shuffle_within(events, random.Random(61), 0.3)

        async def main():
            async with Ingestor(
                executor, flush_seconds=0.01, max_delay=0.3
            ) as ingestor:
                collected = []

                async def consume():
                    async for match in ingestor.matches():
                        collected.append(match)

                consumer = asyncio.create_task(consume())
                for event in shuffled:
                    await ingestor.put(event)
                await ingestor.close()
                await consumer
                return collected, ingestor

        collected, ingestor = asyncio.run(main())
        executor.close()
        serial = build_engines(planned).run(Stream(list(events)))
        assert net_fingerprints(collected) == net_fingerprints(serial)
        assert ingestor.disorder.events_reordered > 0
        assert ingestor.metrics.events_reordered > 0
        assert ingestor.metrics.watermark_lag.count == len(events)

    def test_beyond_bound_strict_raises(self):
        events = keyed_events(67, count=20)
        _, executor = self._executor(events)

        async def main():
            async with Ingestor(executor, max_delay=0.1) as ingestor:
                await ingestor.put(Event("A", 5.0, {"k": 1, "v": 0.5}))
                with pytest.raises(StreamOrderError, match="arrives before"):
                    await ingestor.put(Event("B", 1.0, {"k": 1, "v": 0.5}))
                await ingestor.close()

        asyncio.run(main())
        executor.close()

    def test_beyond_bound_drop_policy_sheds_and_counts(self):
        events = keyed_events(71, count=30)
        _, executor = self._executor(events)

        async def main():
            async with Ingestor(
                executor, max_delay=0.1, late_policy="drop"
            ) as ingestor:
                await ingestor.put(Event("A", 5.0, {"k": 1, "v": 0.5}))
                accepted = await ingestor.put(
                    Event("B", 1.0, {"k": 1, "v": 0.5})
                )
                assert accepted is False
                assert ingestor.disorder.events_late_dropped == 1
                assert ingestor.events_in == 0  # still held at the buffer
                await ingestor.close()
                assert ingestor.events_in == 1  # no seq burned on a drop

        asyncio.run(main())
        executor.close()

    def test_close_flushes_the_reorder_buffer(self):
        events = keyed_events(73, count=60)
        planned, executor = self._executor(events)

        async def main():
            # A bound wider than the stream: every event is still
            # buffered at close; the flush must release them all.
            async with Ingestor(executor, max_delay=1e9) as ingestor:
                collected = []

                async def consume():
                    async for match in ingestor.matches():
                        collected.append(match)

                consumer = asyncio.create_task(consume())
                for event in reversed(events):  # fully reversed arrival
                    await ingestor.put(event)
                assert ingestor.events_in == 0  # nothing released yet
                await ingestor.close()
                await consumer
                assert ingestor.events_in == len(events)
                return collected

        collected = asyncio.run(main())
        executor.close()
        serial = build_engines(planned).run(Stream(list(events)))
        assert net_fingerprints(collected) == net_fingerprints(serial)

    def test_shed_at_release_reconciles_provisional_accepts(self):
        # Under backpressure="shed" with a nonzero bound, put() returning
        # True is provisional for buffered events: a watermark release
        # into a full queue still sheds them, and shed_at_release is the
        # counter that lets exactly-once accounting reconcile.
        events = keyed_events(83, count=60)
        _, executor = self._executor(events)

        async def main():
            async with Ingestor(
                executor,
                max_pending=4,
                backpressure="shed",
                max_delay=1e9,  # everything buffered until close()
                late_policy="drop",
            ) as ingestor:
                accepted = 0
                for event in events:
                    accepted += await ingestor.put(event)
                assert accepted == len(events)  # all provisionally taken
                assert ingestor.shed == 0  # nothing released yet
                await ingestor.close()
                # The close-time flush releases the whole buffer into the
                # bounded queue without yielding to the pump, so only
                # max_pending fit; the rest shed after their True put().
                assert ingestor.shed > 0
                assert ingestor.shed_at_release == ingestor.shed
                assert (
                    ingestor.events_in + ingestor.shed_at_release
                    == accepted
                )

        asyncio.run(main())
        executor.close()

    def test_revise_policy_is_rejected_at_the_front_door(self):
        events = keyed_events(79, count=10)
        _, executor = self._executor(events)
        from repro.errors import ParallelError

        with pytest.raises(ParallelError, match="late policy"):
            Ingestor(executor, late_policy="revise")
        executor.close()
