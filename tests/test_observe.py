"""The observability layer: tracing, registry/exporters, introspection.

Three properties are load-bearing and tested here:

* **Zero cost when off** — with no tracer attached the engines carry no
  per-node stat objects (``tstat``/``_tstats`` stay ``None``), never
  read the span clock, and never import :mod:`repro.observe` at all
  (checked in a fresh interpreter).
* **Observation neutrality** — attaching a tracer changes no match
  sequence, and the index-probe selectivity feedback (bisect-excluded
  candidates reported as failed theta evaluations) is exactly the
  multiset of outcomes a non-bisected evaluation would have observed.
* **Introspection is live** — a socket-backed session answers the
  epoch-free ``STATS`` frame mid-stream with real per-node counters,
  and the report CLI renders the same attribution from a trace file
  and from a live poll.
"""

from __future__ import annotations

import asyncio
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro.observe.trace as trace_module
from repro import (
    ParallelConfig,
    ParallelExecutor,
    Stream,
    build_engines,
    canonical_order,
    estimate_pattern_catalog,
    parse_pattern,
    plan_pattern,
)
from repro.engines import NFAEngine, build_runtime
from repro.engines.metrics import EngineMetrics
from repro.engines.stores import NO_BOUND
from repro.events import Event
from repro.multiquery import MultiQueryEngine, plan_workload
from repro.observe import (
    NODE_COUNTERS,
    MetricsRegistry,
    NodeStat,
    Tracer,
    merge_node_stats,
    to_chrome_trace,
    to_json,
    write_chrome_trace,
    write_json,
)
from repro.observe.report import load_trace, poll_live, render_report
from repro.parallel import match_records
from repro.patterns import decompose
from repro.plans import enumerate_bushy_trees, enumerate_orders
from repro.service import Ingestor, serve_in_thread

RANGE_PATTERN = (
    "PATTERN SEQ(A a, B b, C c) WHERE a.x = b.x AND a.y < b.y WITHIN 4"
)
KEYED_PATTERN = (
    "PATTERN SEQ(A a, B b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN 1.5"
)


def rand_stream(seed: int, count: int = 80) -> Stream:
    rng = random.Random(seed)
    events, t = [], 0.0
    for _ in range(count):
        t += rng.uniform(0.05, 0.4)
        events.append(
            Event(
                rng.choice("ABCD"),
                t,
                {
                    "x": rng.randrange(3),
                    "y": round(rng.uniform(0, 1), 3),
                    "k": rng.randrange(4),
                },
            )
        )
    return Stream(events)


def traced_run(text: str, stream: Stream, **kwargs):
    pattern = parse_pattern(text)
    catalog = estimate_pattern_catalog(pattern, stream)
    planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
    tracer = Tracer(run_id="test-run")
    matches = build_engines(planned, tracer=tracer, **kwargs).run(stream)
    return tracer, matches


# -- tracer core -------------------------------------------------------------


class TestTracer:
    def test_node_registration_and_fractions(self):
        tracer = Tracer()
        stat = tracer.register_node("join:ab", "join", engine="tree")
        assert stat.node_id == 0 and stat.wall == 0.0
        stat.index_probes, stat.index_hits = 10, 9
        stat.range_probes, stat.range_hits = 8, 2
        stat.probed, stat.created = 20, 5
        assert stat.bucket_hit_fraction == pytest.approx(0.9)
        assert stat.bisect_hit_fraction == pytest.approx(0.25)
        assert stat.survivor_fraction == pytest.approx(0.25)
        empty = tracer.register_node("leaf:a", "leaf")
        assert empty.bucket_hit_fraction == 0.0  # no div-by-zero
        assert empty.survivor_fraction == 0.0

    def test_node_dict_round_trip(self):
        stat = NodeStat(3, "state:1:b", "state", engine="nfa", worker=2)
        stat.events, stat.wall = 17, 0.25
        clone = NodeStat.from_dict(stat.to_dict())
        assert clone.to_dict() == stat.to_dict()

    def test_spans_and_snapshot(self, monkeypatch):
        ticks = iter(range(100))
        monkeypatch.setattr(trace_module, "_clock", lambda: next(ticks))
        tracer = Tracer(run_id="r1")
        tracer.instant("replan", epoch=2)
        with tracer.span("migration", policy="restart"):
            pass
        snapshot = tracer.snapshot()
        assert snapshot["run_id"] == "r1"
        names = [span["name"] for span in snapshot["spans"]]
        assert names == ["replan", "migration"]
        assert snapshot["spans"][0]["attrs"] == {"epoch": 2}
        assert snapshot["spans"][1]["dur"] >= 1  # fake clock ticked

    def test_merge_node_stats_collapses_worker_copies(self):
        tracer_a, tracer_b = Tracer(), Tracer()
        for tracer, events in ((tracer_a, 5), (tracer_b, 7)):
            stat = tracer.register_node("state:0:a", "state", engine="nfa")
            stat.events = events
            stat.wall = 0.5
        merged = merge_node_stats(
            tracer_a.node_dicts() + tracer_b.node_dicts()
        )
        assert len(merged) == 1
        assert merged[0]["events"] == 12
        assert merged[0]["wall"] == pytest.approx(1.0)
        by_worker = merge_node_stats(
            tracer_a.node_dicts() + tracer_b.node_dicts(), keep_worker=True
        )
        assert len(by_worker) in (1, 2)  # worker None collapses


# -- zero cost when off ------------------------------------------------------


class TestZeroCostWhenOff:
    def test_untraced_engines_carry_no_node_stats(self):
        stream = rand_stream(3)
        d = decompose(parse_pattern(RANGE_PATTERN))
        tree = next(iter(enumerate_bushy_trees(d.positive_variables)))
        order = next(iter(enumerate_orders(d.positive_variables)))
        tree_engine = build_runtime(d, tree, indexed=True, compiled=True)
        nfa_engine = NFAEngine(d, order, indexed=True, compiled=True)
        tree_engine.run(stream)
        nfa_engine.run(stream)
        assert nfa_engine._tstats is None
        assert all(node.tstat is None for node in tree_engine._nodes)

    def test_detaching_tracer_restores_untraced_structure(self):
        d = decompose(parse_pattern(RANGE_PATTERN))
        order = next(iter(enumerate_orders(d.positive_variables)))
        engine = NFAEngine(d, order, indexed=True, compiled=True)
        engine.set_tracer(Tracer())
        assert engine._tstats is not None
        engine.set_tracer(None)
        assert engine._tstats is None

    def test_untraced_clock_is_never_read(self, monkeypatch):
        def explode():
            raise AssertionError("untraced hot path read the span clock")

        monkeypatch.setattr(trace_module, "_clock", explode)
        stream = rand_stream(5)
        pattern = parse_pattern(RANGE_PATTERN)
        catalog = estimate_pattern_catalog(pattern, stream)
        planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
        build_engines(planned).run(stream)  # no tracer: must not raise

    def test_untraced_run_never_imports_observe(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = (
            "import sys\n"
            "from repro import (Stream, build_engines,"
            " estimate_pattern_catalog, parse_pattern, plan_pattern)\n"
            "from repro.events import Event\n"
            "events = [Event('A', 0.1, {'x': 1}), Event('B', 0.2, {'x': 1}),"
            " Event('C', 0.3, {'x': 1})]\n"
            "stream = Stream(events)\n"
            f"pattern = parse_pattern({RANGE_PATTERN!r})\n"
            "catalog = estimate_pattern_catalog(pattern, stream)\n"
            "planned = plan_pattern(pattern, catalog, algorithm='GREEDY')\n"
            "build_engines(planned).run(stream)\n"
            "assert not [m for m in sys.modules if m.startswith"
            "('repro.observe')], 'observe imported on untraced path'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr


# -- observation neutrality --------------------------------------------------


class TestObservationNeutrality:
    @pytest.mark.parametrize("indexed", [True, False])
    @pytest.mark.parametrize("compiled", [True, False])
    def test_traced_run_is_byte_identical(self, indexed, compiled):
        stream = rand_stream(7, count=100)
        pattern = parse_pattern(RANGE_PATTERN)
        catalog = estimate_pattern_catalog(pattern, stream)
        planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
        baseline = build_engines(
            planned, indexed=indexed, compiled=compiled
        ).run(stream)
        tracer = Tracer()
        traced = build_engines(
            planned, indexed=indexed, compiled=compiled, tracer=tracer
        ).run(stream)
        assert match_records(traced) == match_records(baseline)
        assert tracer.nodes and any(n.events for n in tracer.nodes)

    def test_traced_nodes_attribute_real_work(self):
        tracer, matches = traced_run(
            RANGE_PATTERN, rand_stream(11, count=120)
        )
        assert matches
        assert sum(n.events for n in tracer.nodes) > 0
        assert sum(n.wall for n in tracer.nodes) > 0
        # The hash+range plan exercises both index kinds somewhere.
        assert sum(n.index_probes for n in tracer.nodes) > 0
        assert sum(n.range_probes for n in tracer.nodes) > 0
        assert sum(n.matches for n in tracer.nodes) == len(matches)

    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize("engine_cls", [NFAEngine, build_runtime])
    def test_bisect_feedback_matches_scan_evaluation(
        self, monkeypatch, engine_cls, compiled
    ):
        """Satellite regression: candidates a sorted-run bisect excludes
        are reported to the SelectivityTracker as failed theta
        evaluations — the observed (key, outcome) multiset must equal
        what evaluating the predicate over the whole bucket reports."""

        class StubTracker:
            def __init__(self):
                self.observations = Counter()

            def observe(self, key, passed):
                self.observations[(key, passed)] += 1

        stream = rand_stream(13, count=120)
        d = decompose(parse_pattern(RANGE_PATTERN))
        plans = (
            enumerate_orders if engine_cls is NFAEngine
            else enumerate_bushy_trees
        )
        plan = next(iter(plans(d.positive_variables)))

        def observed() -> Counter:
            engine = engine_cls(d, plan, indexed=True, compiled=compiled)
            tracker = StubTracker()
            engine.set_selectivity_tracker(tracker)
            engine.run(stream)
            return tracker.observations

        bisected = observed()
        # Disable the bisect narrowing only: every bucket candidate now
        # has the extracted range predicate evaluated for real.
        monkeypatch.setattr(
            "repro.engines.access.range_probe_value",
            lambda value_of, subject: NO_BOUND,
        )
        scanned = observed()
        assert bisected == scanned
        assert any(not passed for (_key, passed) in bisected)


# -- per-node attribution ----------------------------------------------------

#: ``(indexed, compiled)`` modes the attribution tests cover.
ATTRIBUTION_MODES = ((False, False), (True, False), (True, True))

#: NFA per-position NodeStat counters (NODE_COUNTERS order) on
#: ``rand_stream(7, count=300)`` under the DP-LD order, keyed by
#: ``(pattern, indexed)``; compiled kernels change no counter.
NFA_GOLDEN = {
    (RANGE_PATTERN, False): {
        "0:a": (80, 80, 0, 75, 0, 0, 0, 0, 0),
        "1:b": (83, 76, 766, 70, 0, 0, 0, 0, 0),
        "2:c": (68, 158, 434, 0, 158, 0, 0, 0, 0),
    },
    (RANGE_PATTERN, True): {
        "0:a": (80, 80, 0, 75, 0, 0, 0, 0, 0),
        "1:b": (83, 76, 141, 70, 0, 163, 154, 154, 85),
        "2:c": (68, 158, 158, 0, 158, 0, 0, 140, 55),
    },
    (KEYED_PATTERN, False): {
        "0:c": (68, 68, 0, 67, 0, 0, 0, 0, 0),
        "1:b": (83, 47, 254, 47, 0, 0, 0, 0, 0),
        "2:a": (80, 10, 104, 0, 10, 0, 0, 0, 0),
    },
    (KEYED_PATTERN, True): {
        "0:c": (68, 68, 0, 67, 0, 0, 0, 0, 0),
        "1:b": (83, 47, 47, 47, 0, 151, 137, 137, 33),
        "2:a": (80, 10, 10, 0, 10, 127, 118, 118, 10),
    },
}


#: Shared-DAG per-node NodeStat counters (NODE_COUNTERS order) on
#: ``rand_stream(7, count=300)`` under the DP-B tree plan
#: (``((a, b), c)`` for RANGE_PATTERN, ``(a, (b, c))`` for
#: KEYED_PATTERN), keyed by ``(pattern, indexed)``; compiled kernels
#: change no counter.  Taken from the instance-based tree runtime the
#: DAG replaced, which attributed identical work to every node.
DAG_GOLDEN = {
    (RANGE_PATTERN, False): {
        "a": (80, 80, 0, 75, 0, 0, 0, 0, 0),
        "b": (83, 83, 0, 80, 0, 0, 0, 0, 0),
        "c": (68, 68, 0, 66, 0, 0, 0, 0, 0),
        "join(a,b)": (0, 76, 766, 70, 0, 0, 0, 0, 0),
        "join(a,b,c)": (0, 158, 434, 0, 158, 0, 0, 0, 0),
    },
    (RANGE_PATTERN, True): {
        "a": (80, 80, 0, 75, 0, 0, 0, 0, 0),
        "b": (83, 83, 0, 80, 0, 0, 0, 0, 0),
        "c": (68, 68, 0, 66, 0, 0, 0, 0, 0),
        "join(a,b)": (0, 76, 141, 70, 0, 163, 154, 154, 85),
        "join(a,b,c)": (0, 158, 158, 0, 158, 0, 0, 140, 55),
    },
    (KEYED_PATTERN, False): {
        "a": (80, 80, 0, 79, 0, 0, 0, 0, 0),
        "b": (83, 83, 0, 81, 0, 0, 0, 0, 0),
        "c": (68, 68, 0, 67, 0, 0, 0, 0, 0),
        "join(b,c)": (0, 47, 254, 47, 0, 0, 0, 0, 0),
        "join(a,b,c)": (0, 10, 104, 0, 10, 0, 0, 0, 0),
    },
    (KEYED_PATTERN, True): {
        "a": (80, 80, 0, 79, 0, 0, 0, 0, 0),
        "b": (83, 83, 0, 81, 0, 0, 0, 0, 0),
        "c": (68, 68, 0, 67, 0, 0, 0, 0, 0),
        "join(b,c)": (0, 47, 47, 47, 0, 151, 137, 137, 33),
        "join(a,b,c)": (0, 10, 10, 0, 10, 127, 118, 118, 10),
    },
}


def node_counters(tracer: Tracer) -> dict:
    """label -> every NodeStat counter except the wall time."""
    return {
        node.label: tuple(getattr(node, name) for name in NODE_COUNTERS)
        for node in tracer.nodes
    }


class TestNodeAttribution:
    """Exact per-node counters, not just "something was counted": the
    shared-DAG runtime's per-node counters are pinned for a tree plan —
    lowered straight from the plan and merged by the workload optimizer
    alike — and so are the NFA's per-position counters."""

    @pytest.mark.parametrize("indexed,compiled", ATTRIBUTION_MODES)
    @pytest.mark.parametrize("text", [RANGE_PATTERN, KEYED_PATTERN])
    def test_dag_node_counters_are_pinned(self, text, indexed, compiled):
        stream = rand_stream(7, count=300)
        pattern = parse_pattern(text)
        catalog = estimate_pattern_catalog(pattern, stream)
        planned = plan_pattern(pattern, catalog, algorithm="DP-B")
        shared = plan_workload([pattern], catalog, algorithm="DP-B")
        lowered_tracer, dag_tracer = Tracer(), Tracer()
        build_engines(
            planned, indexed=indexed, compiled=compiled,
            tracer=lowered_tracer,
        ).run(stream)
        dag = MultiQueryEngine(shared, indexed=indexed, compiled=compiled)
        dag.set_tracer(dag_tracer)
        dag.run(stream)
        golden = DAG_GOLDEN[(text, indexed)]
        assert node_counters(lowered_tracer) == golden
        assert node_counters(dag_tracer) == golden

    @pytest.mark.parametrize("indexed,compiled", ATTRIBUTION_MODES)
    @pytest.mark.parametrize("text", [RANGE_PATTERN, KEYED_PATTERN])
    def test_nfa_position_counters_are_pinned(self, text, indexed, compiled):
        stream = rand_stream(7, count=300)
        pattern = parse_pattern(text)
        catalog = estimate_pattern_catalog(pattern, stream)
        planned = plan_pattern(pattern, catalog, algorithm="DP-LD")[0]
        tracer = Tracer()
        engine = NFAEngine(
            planned.decomposed, planned.plan,
            indexed=indexed, compiled=compiled,
        )
        engine.set_tracer(tracer)
        engine.run(stream)
        assert node_counters(tracer) == NFA_GOLDEN[(text, indexed)]


# -- registry + exporters ----------------------------------------------------


class TestMetricsRegistry:
    def test_series_ring_buffer_drops_oldest(self):
        registry = MetricsRegistry()
        series = registry.series("queue_depth", capacity=4)
        for value in range(10):
            series.sample(value, t=float(value))
        assert len(series) == 4
        assert [v for _t, v in series.points()] == [6, 7, 8, 9]
        assert series.last == 9

    def test_snapshot_and_prometheus_cover_all_instruments(self):
        stream = rand_stream(17)
        pattern = parse_pattern(RANGE_PATTERN)
        catalog = estimate_pattern_catalog(pattern, stream)
        planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
        engine = build_engines(planned)
        engine.run(stream)
        registry = MetricsRegistry()
        registry.bind_metrics(engine.metrics, source="tree")
        registry.gauge("queue_depth", lambda: 42, help="input backlog")
        registry.series("lag").sample(3.0, t=1.0)
        snapshot = registry.snapshot()
        assert snapshot["series"]["lag"][-1][1] == 3.0
        assert snapshot["gauges"]["queue_depth"] == 42
        text = registry.prometheus()
        assert "repro_queue_depth 42" in text
        assert "repro_lag 3.0" in text
        assert 'source="tree"' in text
        # every exposition line is either a comment or name[{labels}] value
        for line in text.splitlines():
            assert line.startswith(("#", "repro_")), line

    def test_json_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.bind_metrics(EngineMetrics(), source="empty")
        registry.series("x").sample(1.0, t=0.0)
        json.dumps(registry.snapshot())


class TestExport:
    def _snapshot(self):
        tracer, _ = traced_run(RANGE_PATTERN, rand_stream(19))
        tracer.instant("replan", epoch=1)
        return tracer.snapshot()

    def test_json_round_trip(self, tmp_path):
        snapshot = self._snapshot()
        assert json.loads(to_json(snapshot)) == json.loads(
            to_json(json.loads(to_json(snapshot)))
        )
        path = write_json(snapshot, str(tmp_path / "trace.json"))
        assert json.load(open(path))["run_id"] == "test-run"

    def test_chrome_trace_events(self, tmp_path):
        snapshot = self._snapshot()
        events = to_chrome_trace(snapshot)
        phases = {event["ph"] for event in events}
        assert "X" in phases  # node slices
        assert "i" in phases  # the replan instant marker
        assert all(
            "ts" in event
            for event in events
            if event["ph"] != "M"  # metadata rows carry no timestamp
        )
        assert all("name" in event for event in events)
        path = write_chrome_trace(snapshot, str(tmp_path / "trace.pftrace"))
        loaded = json.load(open(path))
        payload = (
            loaded["traceEvents"] if isinstance(loaded, dict) else loaded
        )
        assert len(payload) == len(events)


# -- report + live introspection ---------------------------------------------


class TestReport:
    def test_render_from_trace_file(self, tmp_path):
        tracer, matches = traced_run(RANGE_PATTERN, rand_stream(23, 120))
        assert matches
        tracer.instant("replan", epoch=1)
        path = write_json(tracer.snapshot(), str(tmp_path / "trace.json"))
        report = render_report(load_trace(path))
        assert "Top nodes by wall time" in report
        assert "Selectivity by node" in report
        assert "replan" in report

    def test_report_cli_renders_trace_file(self, tmp_path):
        from repro.observe.report import main

        tracer, _ = traced_run(RANGE_PATTERN, rand_stream(27, 120))
        path = write_json(tracer.snapshot(), str(tmp_path / "trace.json"))
        assert main([path]) == 0

    def test_live_stats_poll_mid_stream(self):
        stream = rand_stream(29, count=400)
        pattern = parse_pattern(KEYED_PATTERN)
        catalog = estimate_pattern_catalog(pattern, stream)
        planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
        serial = match_records(
            canonical_order(build_engines(planned).run(stream))
        )
        server = serve_in_thread()
        config = ParallelConfig(
            backend="socket",
            shards=[server.address],
            workers=2,
            partitioner="key",
            batch_size=32,
            trace=True,
        )
        executor = ParallelExecutor(planned, config=config)
        session = executor.session()
        try:
            run = session.stream()
            events = list(stream)
            out = list(run.feed(events[:200]))
            # Mid-stream: half fed, half still to come.
            stats = run.stats()
            assert stats["metrics"] is not None
            assert stats["nodes"], "traced poll returned no node stats"
            assert any(node["events"] for node in stats["nodes"])
            assert len(stats["workers"]) == config.workers
            live = poll_live(server.address[0], server.address[1])
            report = render_report(live)
            assert "Top nodes by wall time" in report
            assert "workers polled" in report
            out.extend(run.feed(events[200:]))
            out.extend(run.finish())
        finally:
            session.close()
            server.close()
        assert match_records(out) == serial

    def test_untraced_poll_reports_no_nodes(self):
        stream = rand_stream(31, count=120)
        pattern = parse_pattern(KEYED_PATTERN)
        catalog = estimate_pattern_catalog(pattern, stream)
        planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
        config = ParallelConfig(
            backend="serial", workers=2, partitioner="key", batch_size=32
        )
        executor = ParallelExecutor(planned, config=config)
        session = executor.session()
        try:
            run = session.stream()
            run.feed(list(stream))
            stats = run.stats()
            assert stats["nodes"] is None
            assert stats["metrics"] is not None
            run.finish()
        finally:
            session.close()


class TestIngestorObservability:
    def test_registry_sampling_and_async_stats(self):
        stream = rand_stream(37, count=400)
        pattern = parse_pattern(KEYED_PATTERN)
        catalog = estimate_pattern_catalog(pattern, stream)
        planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
        serial = match_records(
            canonical_order(build_engines(planned).run(stream))
        )
        events = list(stream)

        async def main():
            registry = MetricsRegistry()
            server = serve_in_thread()
            config = ParallelConfig(
                backend="socket",
                shards=[server.address],
                workers=2,
                partitioner="key",
                batch_size=32,
                trace=True,
            )
            executor = ParallelExecutor(planned, config=config)
            matches = []
            polled = None
            async with Ingestor(
                executor,
                flush_events=32,
                flush_seconds=0.01,
                registry=registry,
            ) as ingestor:
                async def consume():
                    async for match in ingestor.matches():
                        matches.append(match)

                consumer = asyncio.create_task(consume())
                for event in events:
                    await ingestor.put(
                        Event(
                            event.type,
                            event.timestamp,
                            dict(event.attributes),
                        )
                    )
                # Mid-stream poll: the run is still open (no finish
                # yet).  Polls synchronize at feed-call boundaries, so
                # retry until the pump's first flush has reached the
                # workers and their plan DAGs answer with counters.
                for _ in range(200):
                    polled = await ingestor.stats()
                    if polled["nodes"]:
                        break
                    await asyncio.sleep(0.02)
                await ingestor.close()
                await consumer
            server.close()
            return registry, matches, polled

        registry, matches, polled = asyncio.run(main())
        assert match_records(matches) == serial
        assert polled is not None and polled["metrics"] is not None
        assert polled["nodes"], "traced ingest poll returned no nodes"
        series = registry.snapshot()["series"]
        for name in (
            "ingest_queue_depth",
            "ingest_shed_events",
            "ingest_blocked_puts",
            "frontier_lag_events",
            "worker0_liveness_age_seconds",
            "worker1_liveness_age_seconds",
        ):
            assert name in series and series[name], name
        assert "repro_ingest_queue_depth" in registry.prometheus()


class TestDocsSync:
    """The README failure-mode matrix is generated, never hand-edited."""

    def test_readme_failure_matrix_matches_instruments(self):
        from repro.engines.instruments import failure_matrix_markdown

        readme = (
            Path(__file__).parent.parent / "README.md"
        ).read_text(encoding="utf-8")
        assert failure_matrix_markdown() in readme, (
            "README failure-mode matrix drifted from "
            "repro.engines.instruments.FAILURE_MODES — regenerate the "
            "block with failure_matrix_markdown()"
        )

    def test_summary_keys_cover_instruments(self):
        from repro.engines.instruments import INSTRUMENTS

        summary = EngineMetrics().summary()
        for entry in INSTRUMENTS:
            if entry.kind in ("histogram", "samples"):
                continue
            assert entry.summary_key in summary, entry.name
