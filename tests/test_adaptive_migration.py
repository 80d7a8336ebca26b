"""Live plan migration (:mod:`repro.adaptive`, PR 4 tentpole).

The contract under test: a forced mid-stream plan switch under the
``recompute`` and ``parallel-drain`` policies produces the *byte-
identical* canonical match list of a run that never switches — across
tree and NFA plans, theta / equality / Kleene / negation workloads, and
cross-runtime (order plan -> tree plan) switches — while the ``restart``
baseline demonstrably loses the matches whose partial state straddles
the swap.  Plus: the plan-independent snapshot API itself, the
outgoing-engine drain at swap (trailing-NOT regression), and the
migration counters.
"""

import random

import pytest

from repro import (
    AdaptiveController,
    DriftDetector,
    StatisticsCatalog,
    build_engines,
    parse_pattern,
    plan_pattern,
)
from repro.engines import EngineSnapshot
from repro.errors import EngineError
from repro.events import Event, Stream
from repro.parallel import canonical_order, match_records

MAX_KLEENE = 3

#: (workload id, pattern text) — one per paper operator family.
WORKLOADS = [
    (
        "theta",
        "PATTERN SEQ(A a, B b, C c) "
        "WHERE a.v < b.v AND b.v < c.v WITHIN 2",
    ),
    (
        "equality",
        "PATTERN SEQ(A a, B b, C c) "
        "WHERE a.k = b.k AND b.k = c.k WITHIN 2",
    ),
    (
        "kleene",
        "PATTERN SEQ(A a, KL(B b), C c) WHERE a.k = c.k WITHIN 1.5",
    ),
    (
        "trailing-not",
        "PATTERN SEQ(A a, C c, NOT(B b)) WHERE a.v < c.v WITHIN 2",
    ),
    (
        "and-not",
        "PATTERN AND(A a, C c, NOT(D d)) WITHIN 1.5",
    ),
    (
        "disjunction",
        "PATTERN OR(SEQ(A a, B b, C c), SEQ(B e, C f)) "
        "WHERE a.k = c.k WITHIN 1.5",
    ),
]

#: (runtime id, initial algorithm, algorithms forced at the switches).
RUNTIMES = [
    ("nfa", "GREEDY", ("TRIVIAL", "DP-LD")),
    ("tree", "ZSTREAM", ("DP-B", "ZSTREAM-ORD")),
]

SWITCH_POINTS = (200, 400)


def mixed_stream(seed=11, count=600, keys=6):
    """A/B/C uniformly, plus a rare D (the and-not forbidden type)."""
    rng = random.Random(seed)
    events, t = [], 0.0
    for _ in range(count):
        t += rng.uniform(0.01, 0.1)
        name = "D" if rng.random() < 0.04 else rng.choice("ABC")
        events.append(
            Event(
                name,
                t,
                {"k": rng.randrange(keys), "v": rng.random()},
            )
        )
    return Stream(events)


def catalog():
    return StatisticsCatalog({"A": 2.0, "B": 2.0, "C": 2.0, "D": 0.3})


def baseline_records(pattern, stream, algorithm):
    planned = plan_pattern(pattern, catalog(), algorithm=algorithm)
    engine = build_engines(planned, max_kleene_size=MAX_KLEENE)
    return match_records(canonical_order(engine.run(stream)))


def run_with_forced_switches(
    pattern, stream, algorithm, policy, switch_algorithms
):
    controller = AdaptiveController(
        pattern,
        catalog(),
        algorithm=algorithm,
        migration=policy,
        check_interval=10**9,
        detector=DriftDetector(threshold=1e9),
        max_kleene_size=MAX_KLEENE,
    )
    points = dict(zip(SWITCH_POINTS, switch_algorithms))
    matches = []
    for index, event in enumerate(stream):
        matches.extend(controller.process(event))
        if index in points:
            matches.extend(
                controller.force_reoptimize(algorithm=points[index])
            )
    matches.extend(controller.finalize())
    return match_records(canonical_order(matches)), controller


class TestMigrationEquivalence:
    """recompute / parallel-drain == never-switching run, byte for byte."""

    @pytest.mark.parametrize("policy", ["recompute", "parallel-drain"])
    @pytest.mark.parametrize(
        "runtime,algorithm,switch_algorithms",
        RUNTIMES,
        ids=[r[0] for r in RUNTIMES],
    )
    @pytest.mark.parametrize(
        "workload,pattern_text", WORKLOADS, ids=[w[0] for w in WORKLOADS]
    )
    def test_forced_switches_are_lossless(
        self, workload, pattern_text, runtime, algorithm,
        switch_algorithms, policy,
    ):
        pattern = parse_pattern(pattern_text)
        stream = mixed_stream()
        expected = baseline_records(pattern, stream, algorithm)
        assert expected, "workload must produce matches to be meaningful"
        actual, controller = run_with_forced_switches(
            pattern, stream, algorithm, policy, switch_algorithms
        )
        assert actual == expected
        assert controller.reoptimizations == len(SWITCH_POINTS)
        assert controller.metrics.migrations == len(SWITCH_POINTS)

    @pytest.mark.parametrize(
        "workload,pattern_text",
        [WORKLOADS[0], WORKLOADS[3], WORKLOADS[4]],
        ids=[WORKLOADS[0][0], WORKLOADS[3][0], WORKLOADS[4][0]],
    )
    def test_forced_switch_mid_drain_is_lossless(
        self, workload, pattern_text
    ):
        """A second forced switch landing inside a parallel-drain window
        must switch from the outgoing engine (the only one with the
        complete window history), not from the half-built replacement."""
        pattern = parse_pattern(pattern_text)
        stream = mixed_stream(seed=17)
        expected = baseline_records(pattern, stream, "GREEDY")
        controller = AdaptiveController(
            pattern,
            catalog(),
            algorithm="GREEDY",
            migration="parallel-drain",
            check_interval=10**9,
            detector=DriftDetector(threshold=1e9),
            max_kleene_size=MAX_KLEENE,
        )
        matches = []
        for index, event in enumerate(stream):
            matches.extend(controller.process(event))
            if index in (200, 208, 400):  # 208 lands mid-drain
                matches.extend(controller.force_reoptimize())
        matches.extend(controller.finalize())
        assert match_records(canonical_order(matches)) == expected

    def test_forced_switch_mid_drain_keeps_negation_candidates(self):
        """Regression: the engine built by a mid-drain forced switch
        must still see forbidden events from before the *first* swap."""
        pattern = parse_pattern("PATTERN AND(A a, B b, NOT(C c)) WITHIN 3")
        cat = StatisticsCatalog({"A": 1.0, "B": 1.0, "C": 0.5})
        stream = Stream(
            [
                Event("C", 1.0, {}),  # forbids any A/B pair within reach
                Event("A", 1.2, {}),  # first forced switch here
                Event("A", 1.5, {}),
                Event("A", 2.0, {}),  # second switch, mid-drain
                Event("A", 2.2, {}),
                Event("B", 2.5, {}),
            ]
        )
        expected = match_records(
            canonical_order(
                build_engines(plan_pattern(pattern, cat)).run(stream)
            )
        )
        controller = AdaptiveController(
            pattern,
            cat,
            migration="parallel-drain",
            check_interval=10**9,
            detector=DriftDetector(threshold=1e9),
        )
        matches = []
        for index, event in enumerate(stream):
            matches.extend(controller.process(event))
            if index in (1, 3):
                matches.extend(controller.force_reoptimize())
        matches.extend(controller.finalize())
        assert match_records(canonical_order(matches)) == expected

    @pytest.mark.parametrize("policy", ["recompute", "parallel-drain"])
    def test_cross_runtime_switch_is_lossless(self, policy):
        """Snapshots are plan-independent: an order-plan engine's state
        migrates into a tree-plan engine and back."""
        pattern = parse_pattern(WORKLOADS[0][1])
        stream = mixed_stream(seed=23)
        expected = baseline_records(pattern, stream, "GREEDY")
        actual, _ = run_with_forced_switches(
            pattern, stream, "GREEDY", policy, ("ZSTREAM", "DP-LD")
        )
        assert actual == expected


class TestRestartBaseline:
    """The restart policy measurably loses in-flight matches — the gap
    the migration policies close."""

    def test_restart_loses_matches_migration_saves(self):
        pattern = parse_pattern(WORKLOADS[0][1])
        stream = mixed_stream()
        expected = baseline_records(pattern, stream, "GREEDY")
        restarted, restart_ctrl = run_with_forced_switches(
            pattern, stream, "GREEDY", "restart", ("TRIVIAL", "DP-LD")
        )
        migrated, migrate_ctrl = run_with_forced_switches(
            pattern, stream, "GREEDY", "recompute", ("TRIVIAL", "DP-LD")
        )
        assert len(restarted) < len(expected)
        assert migrated == expected
        # Every lost match bound at least one pre-swap event; the saved
        # counter counts exactly those, so it must cover the gap.
        lost = len(expected) - len(restarted)
        assert (
            migrate_ctrl.metrics.matches_saved_by_migration == lost
        )
        assert restart_ctrl.metrics.pm_migrated == 0
        assert migrate_ctrl.metrics.pm_migrated > 0

    def test_restart_output_is_subset(self):
        pattern = parse_pattern(WORKLOADS[1][1])
        stream = mixed_stream(seed=5)
        expected = baseline_records(pattern, stream, "GREEDY")
        restarted, _ = run_with_forced_switches(
            pattern, stream, "GREEDY", "restart", ("TRIVIAL", "DP-LD")
        )
        assert set(restarted) <= set(expected)


class TestOutgoingEngineDrain:
    """Satellite regression: a swap must never drop *completed* matches
    deferred on trailing-negation deadlines."""

    PATTERN = "PATTERN SEQ(A a, B b, NOT(C c)) WITHIN 3"

    def stream(self):
        # A@1, B@1.5 completes a match deferred until the negation
        # deadline (min_ts + W = 4); the forced switch happens while it
        # is pending; events at 5 and 6 close the range.
        return Stream(
            [
                Event("A", 1.0, {}),
                Event("B", 1.5, {}),
                Event("A", 2.0, {}),
                Event("A", 5.0, {}),
                Event("B", 6.0, {}),
            ]
        )

    def expected(self):
        pattern = parse_pattern(self.PATTERN)
        planned = plan_pattern(
            pattern, StatisticsCatalog({"A": 1.0, "B": 1.0, "C": 0.5})
        )
        engine = build_engines(planned)
        return match_records(canonical_order(engine.run(self.stream())))

    @pytest.mark.parametrize(
        "policy", ["restart", "recompute", "parallel-drain"]
    )
    def test_pending_matches_survive_swap(self, policy):
        pattern = parse_pattern(self.PATTERN)
        controller = AdaptiveController(
            pattern,
            StatisticsCatalog({"A": 1.0, "B": 1.0, "C": 0.5}),
            migration=policy,
            check_interval=10**9,
            detector=DriftDetector(threshold=1e9),
        )
        matches = []
        for index, event in enumerate(self.stream()):
            matches.extend(controller.process(event))
            if index == 2:  # the A@2 event: the 1.0/1.5 match is pending
                matches.extend(controller.force_reoptimize())
        matches.extend(controller.finalize())
        records = match_records(canonical_order(matches))
        expected = self.expected()
        # The deferred match is stamped with its deadline either way, so
        # even the restart drain reproduces the exact record.
        assert records == expected
        assert len(records) == 2

    def test_drain_end_does_not_duplicate_due_post_swap_pending(self):
        """A sparse stream can make the first event past the drain
        deadline also pass a post-swap pending's own deadline; that
        pending lives in *both* engines and must be emitted exactly
        once (by the new engine, which owns post-swap-only matches)."""
        pattern = parse_pattern(self.PATTERN)  # WITHIN 3
        stream = Stream(
            [
                Event("A", 9.0, {}),
                Event("A", 10.0, {}),   # swap here: drain until 13
                Event("A", 11.0, {}),
                Event("B", 11.2, {}),   # pendings: a@9/a@10 (pre-swap)
                                        # and a@11 (post-swap, deadline 14)
                Event("A", 20.0, {}),   # ends drain AND passes deadline 14
                Event("B", 21.0, {}),
            ]
        )
        cat = StatisticsCatalog({"A": 1.0, "B": 1.0, "C": 0.5})
        planned = plan_pattern(pattern, cat)
        expected = match_records(
            canonical_order(build_engines(planned).run(stream))
        )
        controller = AdaptiveController(
            pattern,
            cat,
            migration="parallel-drain",
            check_interval=10**9,
            detector=DriftDetector(threshold=1e9),
        )
        matches = []
        for index, event in enumerate(stream):
            matches.extend(controller.process(event))
            if index == 1:
                matches.extend(controller.force_reoptimize())
        matches.extend(controller.finalize())
        assert match_records(canonical_order(matches)) == expected

    def test_violated_pending_not_resurrected_by_migration(self):
        """A forbidden event after the swap must still kill a pending
        match created before it."""
        pattern = parse_pattern(self.PATTERN)
        stream = Stream(
            [
                Event("A", 1.0, {}),
                Event("B", 1.5, {}),
                Event("A", 2.0, {}),
                Event("C", 2.5, {}),  # violates the pending post-swap
                Event("A", 5.0, {}),
                Event("B", 6.0, {}),
            ]
        )
        for policy in ("recompute", "parallel-drain"):
            controller = AdaptiveController(
                pattern,
                StatisticsCatalog({"A": 1.0, "B": 1.0, "C": 0.5}),
                migration=policy,
                check_interval=10**9,
                detector=DriftDetector(threshold=1e9),
            )
            matches = []
            for index, event in enumerate(stream):
                matches.extend(controller.process(event))
                if index == 2:
                    matches.extend(controller.force_reoptimize())
            matches.extend(controller.finalize())
            keys = {
                tuple(sorted((v, e.seq) for v, e in m.bindings.items()))
                for m in matches
            }
            assert (("a", 0), ("b", 1)) not in keys, policy


class TestSnapshotAPI:
    def planned(self, text="PATTERN SEQ(A a, B b) WHERE a.k = b.k WITHIN 2"):
        return plan_pattern(parse_pattern(text), catalog())

    def test_export_state_shape(self):
        engine = build_engines(self.planned())
        stream = mixed_stream(seed=3, count=120)
        engine.run(stream)
        snapshot = engine.export_state()
        assert isinstance(snapshot, EngineSnapshot)
        assert snapshot.window == 2
        # Window buffer holds only in-window, pattern-relevant events.
        assert all(
            e.timestamp >= snapshot.now - snapshot.window
            for e in snapshot.events
        )
        assert all(e.type in ("A", "B") for e in snapshot.events)
        assert snapshot.partial_match_count == engine.live_partial_matches()
        for bound, trigger_seq in snapshot.partial_matches:
            assert trigger_seq >= 0
            for variable, seqs in bound:
                assert variable in ("a", "b")
                assert all(isinstance(s, int) for s in seqs)

    def test_seed_from_rebuilds_identical_behaviour(self):
        stream = list(mixed_stream(seed=9, count=400))
        head, tail = stream[:200], stream[200:]
        donor = build_engines(self.planned())
        for event in head:
            donor.process(event)
        seeded = build_engines(self.planned(), seed=donor.export_state())
        tail_donor, tail_seeded = [], []
        for event in tail:
            tail_donor.extend(donor.process(event))
            tail_seeded.extend(seeded.process(event))
        tail_donor.extend(donor.finalize())
        tail_seeded.extend(seeded.finalize())
        assert match_records(
            canonical_order(tail_seeded)
        ) == match_records(canonical_order(tail_donor))
        # Replay bookkeeping: suppressed matches do not count.
        assert seeded.metrics.matches_emitted == len(tail_seeded)
        assert seeded.metrics.events_processed == len(tail)

    def test_seed_from_requires_fresh_engine(self):
        donor = build_engines(self.planned())
        donor.process(Event("A", 1.0, {"k": 1}, seq=0))
        snapshot = donor.export_state()
        used = build_engines(self.planned())
        used.process(Event("A", 1.0, {"k": 1}, seq=0))
        with pytest.raises(EngineError):
            used.seed_from(snapshot)

    def test_seed_from_rejects_window_mismatch(self):
        donor = build_engines(self.planned())
        snapshot = donor.export_state()
        other = build_engines(
            self.planned("PATTERN SEQ(A a, B b) WITHIN 5")
        )
        with pytest.raises(EngineError):
            other.seed_from(snapshot)

    def test_parallel_and_shared_seeding_rejected(self):
        planned = self.planned()
        with pytest.raises(EngineError):
            build_engines(
                planned, parallel=2, seed=EngineSnapshot((), 0.0, 2.0)
            )

    def test_restrictive_selection_requires_restart(self):
        with pytest.raises(EngineError):
            AdaptiveController(
                parse_pattern("PATTERN SEQ(A a, B b) WITHIN 2"),
                StatisticsCatalog({"A": 1.0, "B": 1.0}),
                selection="next",
                migration="recompute",
            )

    def test_migration_default_adapts_to_selection(self):
        """Restrictive strategies keep their historical restart swaps
        when no migration policy is given — no new construction error."""
        restrictive = AdaptiveController(
            parse_pattern("PATTERN SEQ(A a, B b) WITHIN 2"),
            StatisticsCatalog({"A": 1.0, "B": 1.0}),
            selection="next",
        )
        assert restrictive.migration == "restart"
        default = AdaptiveController(
            parse_pattern("PATTERN SEQ(A a, B b) WITHIN 2"),
            StatisticsCatalog({"A": 1.0, "B": 1.0}),
        )
        assert default.migration == "recompute"

    def test_unknown_policy_rejected(self):
        with pytest.raises(EngineError):
            AdaptiveController(
                parse_pattern("PATTERN SEQ(A a, B b) WITHIN 2"),
                StatisticsCatalog({"A": 1.0, "B": 1.0}),
                migration="teleport",
            )


class TestMigrationMetrics:
    def test_counters_and_generation_aggregation(self):
        pattern = parse_pattern(WORKLOADS[0][1])
        stream = mixed_stream(seed=31)
        _, controller = run_with_forced_switches(
            pattern, stream, "GREEDY", "recompute", ("TRIVIAL", "DP-LD")
        )
        metrics = controller.metrics
        assert metrics.migrations == 2
        assert metrics.pm_migrated > 0
        # Every generation's event count is aggregated; replayed events
        # are not double-counted, so the total matches the stream plus
        # nothing (recompute resets the replay counter).
        assert metrics.events_processed == len(stream)
        assert metrics.matches_emitted == len(
            baseline_records(pattern, stream, "GREEDY")
        )

    def test_parallel_drain_counts_drain_overlap(self):
        pattern = parse_pattern(WORKLOADS[0][1])
        stream = mixed_stream(seed=31)
        _, controller = run_with_forced_switches(
            pattern, stream, "GREEDY", "parallel-drain", ("TRIVIAL", "DP-LD")
        )
        # One window of doubled processing per switch shows up honestly.
        assert controller.metrics.events_processed > len(stream)
        assert not controller.draining
