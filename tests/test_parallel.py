"""Parallel partitioned execution (:mod:`repro.parallel`).

The load-bearing suite is the seeded randomized equivalence matrix:
for both outcomes of the partitioning rule (key routing, and the
one-worker run of a plan key routing cannot shard) and every runtime
(tree, lazy NFA, multi-query DAG), the parallel runtime's merged output
must be byte-identical — canonically ordered match records, see
:mod:`repro.parallel.ordering` — to single-threaded execution of the
same plans, across worker counts and backends.  Everything else
(partitioner applicability, refusals, metrics accounting, backends,
error paths) supports that invariant.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    ParallelConfig,
    ParallelError,
    ParallelExecutor,
    Stream,
    Workload,
    build_engines,
    canonical_order,
    estimate_pattern_catalog,
    parse_pattern,
    plan_pattern,
    run_workload,
)
from repro.events import Event
from repro.multiquery import DagEngine
from repro.parallel import KeyPartitioner, key_routing_map, match_records
from repro.patterns import decompose


def keyed_stream(seed: int, count: int = 300, keys: int = 5) -> Stream:
    """A/B/C/D events with an equi-join key ``k`` and theta payload ``v``."""
    rng = random.Random(seed)
    events, t = [], 0.0
    for _ in range(count):
        t += rng.uniform(0.01, 0.09)
        events.append(
            Event(
                rng.choice("ABCD"),
                t,
                {"k": rng.randrange(keys), "v": rng.random()},
            )
        )
    return Stream(events)


def plans_for(text: str, stream: Stream, algorithm: str):
    pattern = parse_pattern(text)
    catalog = estimate_pattern_catalog(pattern, stream)
    return plan_pattern(pattern, catalog, algorithm=algorithm)


def assert_identical(parallel_out, serial_out):
    assert match_records(parallel_out) == match_records(
        canonical_order(serial_out)
    )


KEYED = "PATTERN SEQ(A a, B b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN 1.5"
THETA = "PATTERN SEQ(A a, B b, C c) WHERE a.v < b.v AND b.v < c.v WITHIN 0.9"
KLEENE = "PATTERN SEQ(A a, KL(B b), C c) WHERE a.v < c.v WITHIN 0.8"
NEG_TRAIL = "PATTERN SEQ(A a, B b, NOT(D d)) WHERE a.v < b.v WITHIN 1.2"
NEG_LEAD = "PATTERN SEQ(NOT(D d), A a, C c) WITHIN 0.9"
DISJUNCTION = (
    "PATTERN OR(SEQ(A a, B b), SEQ(A c, C d)) "
    "WHERE a.k = b.k AND c.k = d.k WITHIN 1.0"
)
#: The second disjunct joins on theta only, so no key class covers it.
DISJUNCTION_THETA = (
    "PATTERN OR(SEQ(A a, B b), SEQ(A c, C d)) "
    "WHERE a.k = b.k AND c.v < d.v WITHIN 1.0"
)

#: GREEDY yields an order plan (lazy NFA); ZSTREAM a tree plan.
RUNTIMES = ("GREEDY", "ZSTREAM")


class TestKeyEquivalence:
    @pytest.mark.parametrize("algorithm", RUNTIMES)
    @pytest.mark.parametrize("seed", (3, 11))
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_matches_identical_to_serial(self, algorithm, seed, workers):
        stream = keyed_stream(seed)
        planned = plans_for(KEYED, stream, algorithm)
        serial = build_engines(planned).run(stream)
        executor = ParallelExecutor(
            planned,
            ParallelConfig(
                workers=workers, partitioner="key", backend="serial",
                batch_size=64,
            ),
        )
        assert_identical(executor.run(stream), serial)
        assert executor.partitioner_name == "key"
        # Key routing never duplicates: each A/B/C event reaches one
        # worker, D events none.
        d_count = stream.count_by_type().get("D", 0)
        assert executor.metrics.events_routed == len(stream) - d_count

    @pytest.mark.parametrize("algorithm", RUNTIMES)
    @pytest.mark.parametrize(
        "partitioner,text,workers",
        (("key", DISJUNCTION, 2), ("single", DISJUNCTION_THETA, 1)),
        ids=("key", "single"),
    )
    def test_disjunction_identical_to_serial(
        self, algorithm, partitioner, text, workers
    ):
        # Each worker hosts one plan DAG with a root per DNF disjunct
        # and feeds it every frame event by event.
        stream = keyed_stream(31)
        planned = plans_for(text, stream, algorithm)
        engine = build_engines(planned)
        assert isinstance(engine, DagEngine)
        assert len(engine.plan.roots) == len(planned) == 2
        serial = engine.run(stream)
        assert serial
        executor = ParallelExecutor(
            planned,
            ParallelConfig(workers=2, backend="serial", batch_size=16),
        )
        assert_identical(executor.run(stream), serial)
        assert executor.partitioner_name == partitioner
        assert executor.metrics.worker_count == workers

    def test_auto_picks_key_for_covered_pattern(self):
        stream = keyed_stream(7)
        planned = plans_for(KEYED, stream, "GREEDY")
        executor = ParallelExecutor(
            planned, ParallelConfig(workers=2, backend="serial")
        )
        assert executor.partitioner_name == "key"

    def test_router_drops_only_foreign_types(self):
        stream = keyed_stream(9)  # contains D events no variable admits
        planned = plans_for(KEYED, stream, "GREEDY")
        executor = ParallelExecutor(
            planned,
            ParallelConfig(workers=3, partitioner="key", backend="serial"),
        )
        executor.run(stream)
        d_count = stream.count_by_type().get("D", 0)
        assert executor.events_in == len(stream)
        assert executor.metrics.events_routed == len(stream) - d_count
        # Each routed event is processed by exactly one worker.
        assert executor.metrics.events_processed == len(stream) - d_count

    def test_unhashable_key_raises(self):
        events = [
            Event("A", 0.1, {"k": [1], "v": 0.5}),
            Event("B", 0.2, {"k": [1], "v": 0.6}),
            Event("C", 0.3, {"k": [1], "v": 0.7}),
        ]
        stream = keyed_stream(1)
        planned = plans_for(KEYED, stream, "GREEDY")
        executor = ParallelExecutor(
            planned,
            ParallelConfig(workers=2, partitioner="key", backend="serial"),
        )
        with pytest.raises(ParallelError, match="unhashable"):
            executor.run(Stream(events))


class TestSingleWorkerEquivalence:
    """Plans key routing cannot shard run on one worker under ``auto``."""

    @pytest.mark.parametrize("algorithm", RUNTIMES)
    @pytest.mark.parametrize(
        "text", (THETA, KLEENE, NEG_TRAIL, NEG_LEAD), ids=("theta", "kleene", "neg_trail", "neg_lead")
    )
    @pytest.mark.parametrize("workers", (1, 3))
    def test_matches_identical_to_serial(self, algorithm, text, workers):
        stream = keyed_stream(5)
        planned = plans_for(text, stream, algorithm)
        serial = build_engines(planned, max_kleene_size=3).run(stream)
        executor = ParallelExecutor(
            planned,
            ParallelConfig(workers=workers, backend="serial", batch_size=32),
            max_kleene_size=3,
        )
        assert_identical(executor.run(stream), serial)
        assert executor.partitioner_name == "single"
        assert executor.workers == executor.metrics.worker_count == 1

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    @pytest.mark.parametrize(
        "text", (THETA, KLEENE, NEG_TRAIL, NEG_LEAD, DISJUNCTION_THETA),
        ids=("theta", "kleene", "neg_trail", "neg_lead", "disjunction"),
    )
    def test_concurrent_backends_identical_to_serial(self, text, backend):
        stream = keyed_stream(7, count=200)
        planned = plans_for(text, stream, "GREEDY")
        serial = build_engines(planned, max_kleene_size=3).run(stream)
        with ParallelExecutor(
            planned,
            ParallelConfig(workers=2, backend=backend, batch_size=32),
            max_kleene_size=3,
        ) as executor:
            assert_identical(executor.run(stream), serial)
            assert executor.metrics.worker_count == 1

    @pytest.mark.parametrize("seed", (2, 4, 8))
    def test_randomized_sweep(self, seed):
        stream = keyed_stream(seed, count=200)
        planned = plans_for(THETA, stream, "ZSTREAM")
        serial = build_engines(planned).run(stream)
        executor = ParallelExecutor(
            planned, ParallelConfig(workers=4, backend="serial")
        )
        out = executor.run(stream)
        assert_identical(out, serial)
        assert executor.metrics.worker_count == 1
        assert executor.metrics.matches_emitted == len(serial)

    def test_routes_each_referenced_event_once(self):
        # D events feed no variable: the driver drops them; every other
        # event reaches the one worker exactly once.
        stream = keyed_stream(97, count=200)
        planned = plans_for(THETA, stream, "GREEDY")
        executor = ParallelExecutor(
            planned, ParallelConfig(workers=8, backend="serial")
        )
        serial = build_engines(planned).run(stream)
        assert_identical(executor.run(stream), serial)
        relevant = sum(1 for e in stream if e.type in ("A", "B", "C"))
        assert executor.metrics.events_routed == relevant
        assert executor.metrics.events_processed == relevant

    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("window", (0.3, 0.7, 1.1))
    def test_grid_aligned_timestamps_stress_boundaries(self, seed, window):
        # Timestamps on a 0.1 grid with the window an exact grid
        # multiple: many matches span *exactly* W and many events tie
        # on a timestamp — the knife-edge cases where window expiry and
        # the streaming frontier must agree with the serial engine.
        rng = random.Random(seed)
        events, tick = [], 0
        for _ in range(150):
            tick += rng.randrange(1, 4)
            events.append(
                Event(rng.choice("AB"), tick * 0.1, {"v": rng.random()})
            )
        stream = Stream(events)
        pattern = parse_pattern(f"PATTERN SEQ(A a, B b) WITHIN {window}")
        planned = plan_pattern(
            pattern, estimate_pattern_catalog(pattern, stream)
        )
        serial = build_engines(planned).run(stream)
        executor = ParallelExecutor(
            planned,
            ParallelConfig(workers=3, backend="serial", batch_size=16),
        )
        assert_identical(executor.run(stream), serial)
        assert executor.metrics.worker_count == 1


class TestMultiQuery:
    WORKLOAD = (
        "PATTERN SEQ(A a, B b) WHERE a.k = b.k WITHIN 1.0",
        "PATTERN SEQ(A a, B b, C c) WHERE a.k = b.k AND b.v < c.v WITHIN 1.0",
        "PATTERN SEQ(B x, C y) WHERE x.v < y.v WITHIN 0.7",
    )

    @pytest.mark.parametrize("backend", ("serial", "threads", "processes"))
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_workload_identical_to_shared_engine(self, backend, workers):
        # No key class covers the workload, so the shared plan runs
        # whole on one worker and keeps every shared sub-join.
        stream = keyed_stream(13)
        workload = Workload.of(*self.WORKLOAD)
        base = run_workload(workload, stream, algorithm="GREEDY")
        result = run_workload(
            workload,
            stream,
            algorithm="GREEDY",
            parallel=ParallelConfig(workers=workers, backend=backend),
        )
        assert result.engine.partitioner_name == "single"
        assert result.metrics.worker_count == 1
        assert set(result.matches) == set(base.matches)
        for query in base.matches:
            assert match_records(result.matches[query]) == match_records(
                canonical_order(base.matches[query])
            )

    def test_key_partitioned_workload(self):
        stream = keyed_stream(17)
        workload = Workload.of(
            "PATTERN SEQ(A a, B b) WHERE a.k = b.k WITHIN 1.0",
            "PATTERN SEQ(A a, C c) WHERE a.k = c.k WITHIN 1.0",
        )
        base = run_workload(workload, stream)
        result = run_workload(
            workload,
            stream,
            parallel=ParallelConfig(workers=3, backend="serial"),
        )
        assert result.engine.partitioner_name == "key"
        for query in base.matches:
            assert match_records(result.matches[query]) == match_records(
                canonical_order(base.matches[query])
            )


class TestBackends:
    """threads/processes must run the identical code path as serial."""

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    def test_backend_equivalence(self, backend):
        stream = keyed_stream(29, count=150)
        planned = plans_for(KEYED, stream, "GREEDY")
        serial = build_engines(planned).run(stream)
        executor = ParallelExecutor(
            planned,
            ParallelConfig(
                workers=2, partitioner="key", backend=backend, batch_size=32
            ),
        )
        assert_identical(executor.run(stream), serial)
        assert executor.metrics.worker_count == 2

    def test_shared_plan_crosses_the_process_boundary(self):
        # The shared-plan DAG (nodes, renamings, predicates) must pickle
        # into pool workers; the theta query rules out key routing, so
        # one process worker builds the whole DAG from the shipped spec.
        stream = keyed_stream(83, count=150)
        workload = Workload.of(
            "PATTERN SEQ(A a, B b) WHERE a.k = b.k WITHIN 1.0",
            "PATTERN SEQ(B x, C y) WHERE x.v < y.v WITHIN 0.7",
        )
        base = run_workload(workload, stream)
        result = run_workload(
            workload,
            stream,
            parallel=ParallelConfig(workers=2, backend="processes"),
        )
        assert result.metrics.worker_count == 1
        for query in base.matches:
            assert match_records(result.matches[query]) == match_records(
                canonical_order(base.matches[query])
            )

    def test_thread_channel_stop_terminates_the_thread(self):
        # stop() must free the worker thread even with queued batches
        # (the epoch check drops stale work, so the STOP behind a
        # backlog is reached quickly instead of never).
        from repro.parallel import EngineSpec
        from repro.service.protocol import MSG_BATCH, MSG_INIT, MSG_RESET
        from repro.service.transport import ThreadChannel

        stream = keyed_stream(89, count=40)
        planned = plans_for(KEYED, stream, "GREEDY")

        channel = ThreadChannel(worker_id=0)
        channel.send((MSG_INIT, EngineSpec.from_planned(planned)))
        channel.send((MSG_RESET, 1, {}))
        channel.send((MSG_BATCH, 1, 0, list(stream)))
        # A stale-epoch batch must be dropped, not processed.
        channel.send((MSG_BATCH, 0, 1, list(stream)))
        channel.stop()
        assert not channel._thread.is_alive()

    def test_feeder_failure_aborts_without_deadlock(self):
        stream = keyed_stream(31, count=40)
        planned = plans_for(KEYED, stream, "GREEDY")
        executor = ParallelExecutor(
            planned,
            ParallelConfig(workers=2, partitioner="key", backend="threads"),
        )
        # Unhashable key raises in the driver, after workers started —
        # the abort path must not deadlock.
        bad = Stream([Event("A", 0.1, {"k": [1], "v": 0.5})])
        with pytest.raises(ParallelError):
            executor.run(bad)

    def test_unpicklable_task_reports_parallel_error_under_spawn(self):
        stream = keyed_stream(101, count=30)
        planned = plans_for(KEYED, stream, "GREEDY")
        executor = ParallelExecutor(
            planned,
            ParallelConfig(
                workers=2,
                partitioner="key",
                backend="processes",
                start_method="spawn",
            ),
        )
        # Simulate an unpicklable predicate riding in the spec (spawn
        # pickles the whole task at Process.start).
        executor._spec.parts[0]["unpicklable"] = lambda: None
        with pytest.raises(ParallelError, match="pickle"):
            executor.run(stream)


class TestPartitionerApplicability:
    def test_key_map_for_covered_chain(self):
        decomposed = decompose(parse_pattern(KEYED))
        assert key_routing_map([decomposed]) == {"A": "k", "B": "k", "C": "k"}

    @pytest.mark.parametrize(
        "text",
        (
            THETA,  # no equalities at all
            "PATTERN SEQ(A a, B b, C c) WHERE a.k = b.k WITHIN 1",  # c uncovered
            KLEENE,  # Kleene variable
            "PATTERN SEQ(A a, B b, NOT(D d)) WHERE a.k = b.k WITHIN 1",  # negation
        ),
        ids=("theta", "uncovered", "kleene", "negation"),
    )
    def test_key_map_inapplicable(self, text):
        decomposed = decompose(parse_pattern(text))
        assert key_routing_map([decomposed]) is None

    def test_conflicting_maps_across_queries(self):
        one = decompose(
            parse_pattern("PATTERN SEQ(A a, B b) WHERE a.k = b.k WITHIN 1")
        )
        two = decompose(
            parse_pattern("PATTERN SEQ(A a, C c) WHERE a.v = c.v WITHIN 1")
        )
        assert key_routing_map([one]) == {"A": "k", "B": "k"}
        assert key_routing_map([two]) == {"A": "v", "C": "v"}
        assert key_routing_map([one, two]) is None  # A routes by k vs v

    def test_same_type_two_variables_need_common_attr(self):
        # Both A-variables join on k: routable.  On different attrs: not.
        ok = decompose(
            parse_pattern("PATTERN SEQ(A a, A b) WHERE a.k = b.k WITHIN 1")
        )
        assert key_routing_map([ok]) == {"A": "k"}
        mixed = decompose(
            parse_pattern("PATTERN SEQ(A a, A b) WHERE a.k = b.v WITHIN 1")
        )
        assert key_routing_map([mixed]) is None

    def test_requested_key_on_inapplicable_pattern_raises(self):
        stream = keyed_stream(37, count=60)
        planned = plans_for(THETA, stream, "GREEDY")
        with pytest.raises(ParallelError, match="inapplicable"):
            ParallelExecutor(
                planned, ParallelConfig(workers=2, partitioner="key")
            )

    @pytest.mark.parametrize("removed", ("window", "query"))
    def test_removed_partitioners_are_refused(self, removed):
        with pytest.raises(ParallelError, match="removed") as error:
            ParallelConfig(workers=2, partitioner=removed)
        assert "'auto'" in str(error.value)
        with pytest.raises(TypeError):
            ParallelConfig(span=1.0)  # the slice stride went with them

    def test_key_refusals_no_longer_suggest_window(self):
        stream = keyed_stream(41, count=60)
        planned = plans_for(THETA, stream, "GREEDY")
        with pytest.raises(ParallelError) as refused:
            ParallelExecutor(
                planned, ParallelConfig(workers=2, partitioner="key")
            )
        keyed = plans_for(KEYED, stream, "GREEDY")
        executor = ParallelExecutor(
            keyed, ParallelConfig(workers=2, backend="serial")
        )
        with pytest.raises(ParallelError, match="unhashable") as unhashable:
            executor.run(Stream([Event("A", 0.1, {"k": [1], "v": 0.5})]))
        for error in (refused, unhashable):
            assert "window" not in str(error.value)

    def test_restrictive_selection_rejected(self):
        stream = keyed_stream(43, count=60)
        pattern = parse_pattern(KEYED)
        catalog = estimate_pattern_catalog(pattern, stream)
        planned = plan_pattern(
            pattern, catalog, algorithm="GREEDY", selection="next"
        )
        with pytest.raises(ParallelError, match="selection"):
            ParallelExecutor(planned, ParallelConfig(workers=2))

    def test_config_validation(self):
        with pytest.raises(ParallelError):
            ParallelConfig(partitioner="bogus")
        with pytest.raises(ParallelError):
            ParallelConfig(backend="bogus")
        with pytest.raises(ParallelError):
            ParallelConfig(batch_size=0)


class TestMetricsAndPlumbing:
    def test_merged_metrics_shape(self):
        stream = keyed_stream(47)
        planned = plans_for(KEYED, stream, "ZSTREAM")
        serial_engine = build_engines(planned)
        serial = serial_engine.run(stream)
        executor = ParallelExecutor(
            planned,
            ParallelConfig(workers=4, partitioner="key", backend="serial"),
        )
        out = executor.run(stream)
        metrics = executor.metrics
        assert metrics.worker_count == 4
        assert metrics.matches_emitted == len(serial) == len(out)
        assert metrics.events_routed <= len(stream)
        assert len(metrics.latencies) == len(serial)
        summary = metrics.summary()
        for field in ("events_routed", "worker_count"):
            assert field in summary

    def test_engine_metrics_merge_adds_shard_event_counts(self):
        from repro.engines import EngineMetrics

        a = EngineMetrics(events_processed=10, matches_emitted=1)
        b = EngineMetrics(events_processed=7, matches_emitted=2)
        shard = a.merge(b)
        assert shard.events_processed == 17
        assert shard.matches_emitted == 3

    def test_build_engines_parallel_hook(self):
        stream = keyed_stream(53, count=100)
        planned = plans_for(KEYED, stream, "GREEDY")
        executor = build_engines(
            planned, parallel=ParallelConfig(workers=2, backend="serial")
        )
        assert isinstance(executor, ParallelExecutor)
        serial = build_engines(planned).run(stream)
        assert_identical(executor.run(stream), serial)
        # int shorthand configures the worker count
        shorthand = build_engines(planned, parallel=2)
        assert shorthand.workers == 2

    def test_throughput_reported(self):
        stream = keyed_stream(59, count=100)
        planned = plans_for(KEYED, stream, "GREEDY")
        executor = ParallelExecutor(
            planned, ParallelConfig(workers=2, backend="serial")
        )
        executor.run(stream)
        assert executor.events_in == len(stream)
        assert executor.throughput > 0


class TestChunkedInput:
    def test_parallel_over_generator_without_materialization(self):
        materialized = keyed_stream(67, count=200)
        planned = plans_for(KEYED, materialized, "GREEDY")
        serial = build_engines(planned).run(materialized)
        executor = ParallelExecutor(
            planned,
            ParallelConfig(workers=2, partitioner="key", backend="serial"),
        )
        chunked = Stream.from_iterable(
            (Event(e.type, e.timestamp, e.attributes) for e in materialized),
            chunk_size=64,
        )
        assert_identical(executor.run(chunked), serial)

    def test_single_worker_over_generator_without_materialization(self):
        # The one-worker run needs nothing sized up front: a single-pass
        # generator feeds it like any stream.
        materialized = keyed_stream(71, count=80)
        planned = plans_for(THETA, materialized, "GREEDY")
        serial = build_engines(planned).run(materialized)
        executor = ParallelExecutor(
            planned, ParallelConfig(workers=2, backend="serial")
        )
        chunked = Stream.from_iterable(
            (Event(e.type, e.timestamp, e.attributes) for e in materialized)
        )
        assert_identical(executor.run(chunked), serial)
        assert executor.metrics.worker_count == 1

    def test_empty_stream(self):
        stream = keyed_stream(73, count=50)
        planned = plans_for(THETA, stream, "GREEDY")
        executor = ParallelExecutor(
            planned, ParallelConfig(workers=2, backend="serial")
        )
        assert executor.run(Stream()) == []
        assert executor.workers == 1
