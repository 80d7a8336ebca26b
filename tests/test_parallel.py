"""Parallel partitioned execution (:mod:`repro.parallel`).

The load-bearing suite is the seeded randomized equivalence matrix:
for every partitioner (key / window / query) and every runtime (tree,
lazy NFA, multi-query DAG), the parallel runtime's merged output must
be byte-identical — canonically ordered match records, see
:mod:`repro.parallel.ordering` — to single-threaded execution of the
same plans, across worker counts.  Everything else (partitioner
applicability, slice math, metrics accounting, backends, error paths)
supports that invariant.
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
from repro.parallel import (
    KeyPartitioner,
    WindowPartitioner,
    key_routing_map,
    match_min_ts,
    match_records,
    split_shared_plan,
)
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
        # Key routing never duplicates, so no boundary handling happens.
        assert executor.metrics.boundary_duplicates_dropped == 0

    @pytest.mark.parametrize("algorithm", RUNTIMES)
    @pytest.mark.parametrize("partitioner", ("key", "window"))
    def test_disjunction_identical_to_serial(self, algorithm, partitioner):
        # Each worker hosts one plan DAG with a root per DNF disjunct
        # and feeds it every frame event by event.
        stream = keyed_stream(31)
        planned = plans_for(DISJUNCTION, stream, algorithm)
        engine = build_engines(planned)
        assert isinstance(engine, DagEngine)
        assert len(engine.plan.roots) == len(planned) == 2
        serial = engine.run(stream)
        assert serial
        executor = ParallelExecutor(
            planned,
            ParallelConfig(
                workers=2, partitioner=partitioner, backend="serial",
                batch_size=16,
            ),
        )
        assert_identical(executor.run(stream), serial)
        assert executor.partitioner_name == partitioner

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


class TestWindowEquivalence:
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
            ParallelConfig(
                workers=workers, partitioner="window", backend="serial",
                batch_size=32,
            ),
            max_kleene_size=3,
        )
        assert_identical(executor.run(stream), serial)

    @pytest.mark.parametrize("seed", (2, 4, 8))
    def test_randomized_sweep_short_spans(self, seed):
        # Spans far below the window stress the overlap/dedup math.
        stream = keyed_stream(seed, count=200)
        planned = plans_for(THETA, stream, "ZSTREAM")
        serial = build_engines(planned).run(stream)
        executor = ParallelExecutor(
            planned,
            ParallelConfig(
                workers=4, partitioner="window", backend="serial",
                span=0.3,
            ),
        )
        out = executor.run(stream)
        assert_identical(out, serial)
        if serial:
            assert executor.metrics.boundary_duplicates_dropped > 0
        # Boundary copies are excluded from emission accounting.
        assert executor.metrics.matches_emitted == len(serial)

    def test_ownership_is_a_partition_of_matches(self):
        stream = keyed_stream(6)
        planned = plans_for(THETA, stream, "GREEDY")
        executor = ParallelExecutor(
            planned,
            ParallelConfig(workers=3, partitioner="window", backend="serial"),
        )
        out = executor.run(stream)
        keys = match_records(out)
        assert len(keys) == len(set(keys)), "boundary dedup leaked a duplicate"


class TestMultiQuery:
    WORKLOAD = (
        "PATTERN SEQ(A a, B b) WHERE a.k = b.k WITHIN 1.0",
        "PATTERN SEQ(A a, B b, C c) WHERE a.k = b.k AND b.v < c.v WITHIN 1.0",
        "PATTERN SEQ(B x, C y) WHERE x.v < y.v WITHIN 0.7",
    )

    @pytest.mark.parametrize("partitioner", ("window", "query"))
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_workload_identical_to_shared_engine(self, partitioner, workers):
        stream = keyed_stream(13)
        workload = Workload.of(*self.WORKLOAD)
        base = run_workload(workload, stream, algorithm="GREEDY")
        result = run_workload(
            workload,
            stream,
            algorithm="GREEDY",
            parallel=ParallelConfig(
                workers=workers, partitioner=partitioner, backend="serial"
            ),
        )
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

    def test_split_shared_plan_partitions_queries(self):
        stream = keyed_stream(19)
        workload = Workload.of(*self.WORKLOAD)
        from repro import plan_workload

        catalogs = {
            name: estimate_pattern_catalog(pattern, stream)
            for name, pattern in workload.items()
        }
        plan = plan_workload(workload, catalogs)
        subs = split_shared_plan(plan, 2)
        assert len(subs) == 2
        covered = [q for sub in subs for q in sub.query_names]
        assert sorted(covered) == sorted(plan.query_names)
        for sub in subs:
            indexes = {node.index for node in sub.nodes}
            for root in sub.roots:
                assert root.node.index in indexes
            # children of every kept join are kept too
            for node in sub.nodes:
                if hasattr(node, "left"):
                    assert node.left.index in indexes
                    assert node.right.index in indexes

    def test_query_feeder_routes_per_worker_relevant_types_only(self):
        # D events feed no query; A events feed only the first query's
        # worker, C events only the second's.  The driver must ship each
        # event to exactly the workers whose sub-plans reference it.
        stream = keyed_stream(27, count=200)
        workload = Workload.of(
            "PATTERN SEQ(A a, B b) WHERE a.k = b.k WITHIN 1.0",
            "PATTERN SEQ(B x, C y) WHERE x.v < y.v WITHIN 0.7",
        )
        result = run_workload(
            workload,
            stream,
            parallel=ParallelConfig(
                workers=2, partitioner="query", backend="serial"
            ),
        )
        counts = stream.count_by_type()
        expected = (counts["A"] + counts["B"]) + (counts["B"] + counts["C"])
        assert result.metrics.events_routed == expected
        assert result.events == len(stream)

    def test_more_workers_than_queries(self):
        stream = keyed_stream(23, count=120)
        workload = Workload.of(*self.WORKLOAD)
        result = run_workload(
            workload,
            stream,
            parallel=ParallelConfig(
                workers=8, partitioner="query", backend="serial"
            ),
        )
        assert result.metrics.worker_count == 3  # one group per query


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
        # into pool workers; window partitioning exercises slice engines
        # built from the shipped spec.
        stream = keyed_stream(83, count=150)
        workload = Workload.of(
            "PATTERN SEQ(A a, B b) WHERE a.k = b.k WITHIN 1.0",
            "PATTERN SEQ(B x, C y) WHERE x.v < y.v WITHIN 0.7",
        )
        base = run_workload(workload, stream)
        result = run_workload(
            workload,
            stream,
            parallel=ParallelConfig(
                workers=2, partitioner="window", backend="processes"
            ),
        )
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
        channel.send((MSG_RESET, 1, {"mode": "single"}))
        channel.send((MSG_BATCH, 1, 0, [(0, event) for event in stream]))
        # A stale-epoch batch must be dropped, not processed.
        channel.send((MSG_BATCH, 0, 1, [(0, event) for event in stream]))
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

    def test_query_partitioner_needs_shared_plan(self):
        stream = keyed_stream(41, count=60)
        planned = plans_for(KEYED, stream, "GREEDY")
        with pytest.raises(ParallelError, match="SharedPlan"):
            ParallelExecutor(
                planned, ParallelConfig(workers=2, partitioner="query")
            )

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


class TestWindowPartitionerMath:
    def test_every_timestamp_has_its_owner_slice(self):
        partitioner = WindowPartitioner(window=2.0, span=1.5, workers=3)
        partitioner.start(10.0)
        rng = random.Random(0)
        for _ in range(200):
            ts = 10.0 + rng.uniform(0, 50)
            slices = partitioner.slices_for(ts)
            owner = next(
                s
                for s in slices
                if partitioner.owner_bounds(s)[0]
                <= ts
                < partitioner.owner_bounds(s)[1]
            )
            # every event within W of an owned range is delivered
            for s in slices:
                lo, hi = partitioner.owner_bounds(s)
                assert lo - 2.0 - 1e-9 <= ts <= hi + 2.0 + 1e-9
            assert owner is not None

    def test_pad_covers_full_window_both_sides(self):
        partitioner = WindowPartitioner(window=1.0, span=4.0, workers=2)
        partitioner.start(0.0)
        # Slice 1 owns [4, 8); it must receive every event in [3, 9]
        # (delivery is inclusive with ulp slack — over-delivery is safe,
        # under-delivery changes the match set).
        for ts in (3.0, 3.5, 4.0, 7.99, 8.5, 8.999, 9.0):
            assert 1 in partitioner.slices_for(ts), ts
        for ts in (2.9, 9.1, 9.5):
            assert 1 not in partitioner.slices_for(ts), ts

    def test_ownership_tiles_exactly_under_float_arithmetic(self):
        # (t0 + i*span) + span can differ by one ulp from
        # t0 + (i+1)*span; ownership intervals must share the identical
        # float endpoint or a boundary timestamp is owned by zero or
        # two slices.  These constants hit the one-ulp gap.
        t0, span = 37.23975427257312, 1.3216166985643367
        partitioner = WindowPartitioner(window=0.2, span=span, workers=3)
        partitioner.start(t0)
        boundary = (t0 + span) + span  # one ulp below t0 + 2*span
        assert boundary != t0 + 2 * span
        owners = [
            s
            for s in partitioner.slices_for(boundary)
            if partitioner.owner_bounds(s)[0]
            <= boundary
            < partitioner.owner_bounds(s)[1]
        ]
        assert len(owners) == 1

    def test_boundary_timestamp_match_survives_end_to_end(self):
        # A match starting exactly on the ulp-off slice boundary must be
        # emitted exactly once (regression: it was silently dropped).
        t0, span = 37.23975427257312, 1.3216166985643367
        boundary = (t0 + span) + span
        events = [
            Event("A", t0, {"v": 0.1}),
            Event("A", boundary, {"v": 0.2}),
            Event("B", boundary + 0.1, {"v": 0.3}),
        ]
        stream = Stream(events)
        pattern = parse_pattern("PATTERN SEQ(A a, B b) WITHIN 0.2")
        planned = plan_pattern(
            pattern, estimate_pattern_catalog(pattern, stream)
        )
        serial = build_engines(planned).run(stream)
        assert len(serial) == 1
        executor = ParallelExecutor(
            planned,
            ParallelConfig(
                workers=2, partitioner="window", backend="serial", span=span
            ),
        )
        assert_identical(executor.run(stream), serial)

    def test_slice_engines_evicted_as_the_feed_advances(self):
        # Window-mode workers must free slice engines once the globally
        # ordered feed passes their delivery range — memory stays
        # O(active slices) over a long stream with a small span.
        from repro.parallel import EngineSpec, TaskRunner, WindowPartitioner
        from repro.parallel.worker import WorkerTask

        stream = keyed_stream(79, count=300)  # duration ~15s
        planned = plans_for(THETA, stream, "GREEDY")
        serial = build_engines(planned).run(stream)
        span = 0.25  # ~60 slices over the stream
        t0 = stream[0].timestamp
        partitioner = WindowPartitioner(window=0.9, span=span, workers=1)
        partitioner.start(t0)
        task = WorkerTask(
            EngineSpec.from_planned(planned),
            "window",
            t0=t0,
            span=span,
            window=0.9,
        )
        runner = TaskRunner(task)
        peak_engines = 0
        for event in stream:
            entries = [(s, event) for s in partitioner.slices_for(event.timestamp)]
            runner.feed(entries)
            peak_engines = max(peak_engines, len(runner._engines))
        result = runner.finish()
        total_slices = len(
            {s for e in stream for s in partitioner.slices_for(e.timestamp)}
        )
        assert total_slices > 20
        assert peak_engines <= 12, peak_engines  # active window only
        assert match_records(canonical_order(result.matches)) == match_records(
            canonical_order(serial)
        )

    def test_window_peaks_reflect_active_slices_not_total(self):
        # Retired slices never coexist: worker peak memory must not sum
        # over every slice that ever lived (regression: ~slice-count
        # inflation of peak_partial_matches/peak_buffered_events).
        stream = keyed_stream(91, count=300)
        planned = plans_for(THETA, stream, "GREEDY")
        engine = build_engines(planned)
        engine.run(stream)
        serial_peak = engine.metrics.peak_partial_matches
        executor = ParallelExecutor(
            planned,
            ParallelConfig(
                workers=1, partitioner="window", backend="serial", span=0.5
            ),
        )
        executor.run(stream)
        # A handful of overlapping slices are active at once; dozens
        # were created over the run.
        assert executor.metrics.peak_partial_matches <= 6 * serial_peak

    def test_auto_span_clamped_to_window(self):
        # W >> duration/workers must not explode slice replication.
        stream = keyed_stream(97, count=200)  # duration ~10
        planned = plans_for(THETA, stream, "GREEDY")  # WITHIN 0.9
        executor = ParallelExecutor(
            planned,
            ParallelConfig(workers=8, partitioner="window", backend="serial"),
        )
        serial = build_engines(planned).run(stream)
        assert_identical(executor.run(stream), serial)
        relevant = sum(
            1 for e in stream if e.type in ("A", "B", "C")
        )
        assert executor.metrics.events_routed <= 3 * relevant

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

    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("span", (0.3, 0.7, 1.1))
    def test_grid_aligned_timestamps_stress_boundaries(self, seed, span):
        # Timestamps on a 0.1 grid with the window an exact grid
        # multiple: many matches span *exactly* W and many events land
        # *exactly* on slice boundaries — the knife-edge cases where
        # rounding mismatches between delivery and ownership would drop
        # or duplicate matches.
        rng = random.Random(seed)
        events, tick = [], 0
        for _ in range(150):
            tick += rng.randrange(1, 4)
            events.append(
                Event(rng.choice("AB"), tick * 0.1, {"v": rng.random()})
            )
        stream = Stream(events)
        pattern = parse_pattern("PATTERN SEQ(A a, B b) WITHIN 0.3")
        planned = plan_pattern(
            pattern, estimate_pattern_catalog(pattern, stream)
        )
        serial = build_engines(planned).run(stream)
        executor = ParallelExecutor(
            planned,
            ParallelConfig(
                workers=3, partitioner="window", backend="serial", span=span
            ),
        )
        assert_identical(executor.run(stream), serial)

    def test_explicit_zero_span_rejected(self):
        with pytest.raises(ParallelError, match="span"):
            ParallelConfig(partitioner="window", span=0.0)
        with pytest.raises(ParallelError, match="span"):
            ParallelConfig(span=-1.0)

    def test_span_shorter_than_window_still_partitions(self):
        partitioner = WindowPartitioner(window=5.0, span=1.0, workers=4)
        partitioner.start(0.0)
        slices = partitioner.slices_for(7.0)
        # padded range is span + 2W = 11 long -> ~11 slices see the event
        assert len(slices) >= 10
        owners = [
            s
            for s in slices
            if partitioner.owner_bounds(s)[0] <= 7.0 < partitioner.owner_bounds(s)[1]
        ]
        assert len(owners) == 1


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
        for field in ("events_routed", "boundary_duplicates_dropped", "worker_count"):
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

    def test_match_min_ts_helper(self):
        stream = keyed_stream(61, count=80)
        planned = plans_for(KEYED, stream, "GREEDY")
        matches = build_engines(planned).run(stream)
        for match in matches:
            times = [
                e.timestamp
                for v in match.bindings.values()
                for e in (v if isinstance(v, tuple) else (v,))
            ]
            assert match_min_ts(match) == min(times)


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

    def test_window_over_generator_requires_span(self):
        materialized = keyed_stream(71, count=80)
        planned = plans_for(THETA, materialized, "GREEDY")
        serial = build_engines(planned).run(materialized)
        executor = ParallelExecutor(
            planned,
            ParallelConfig(workers=2, partitioner="window", backend="serial"),
        )
        chunked = Stream.from_iterable(iter(list(materialized)))
        with pytest.raises(ParallelError, match="span"):
            executor.run(chunked)
        # The precondition check must fire before the single-pass source
        # is touched, so the caller can retry with a span.
        assert len(list(chunked)) == len(materialized)
        with_span = ParallelExecutor(
            planned,
            ParallelConfig(
                workers=2, partitioner="window", backend="serial", span=2.0
            ),
        )
        chunked = Stream.from_iterable(
            (Event(e.type, e.timestamp, e.attributes) for e in materialized)
        )
        assert_identical(with_span.run(chunked), serial)

    def test_empty_stream(self):
        stream = keyed_stream(73, count=50)
        planned = plans_for(THETA, stream, "GREEDY")
        executor = ParallelExecutor(
            planned,
            ParallelConfig(workers=2, partitioner="window", backend="serial"),
        )
        assert executor.run(Stream()) == []
