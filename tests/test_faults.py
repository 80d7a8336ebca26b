"""Fault tolerance of the service runtime (:mod:`repro.service.faults`).

The seeded chaos matrix: every failure mode the runtime claims to
survive — worker kill, socket reset mid-frame, torn write, frozen
worker, shard-server restart, reconnect exhaustion with graceful
degradation — injected deterministically on the socket and process
backends, each path ending in the byte-identity assertion against the
interpreted single-threaded run.  Around the matrix sit the mechanics:
the fault plan's trigger/fire semantics, shard-server frame hardening,
thread-channel teardown, the fault-tolerance metrics counters, and the
frontier invariants across mid-stream recovery.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time

import pytest

from repro import (
    ParallelConfig,
    ParallelError,
    ParallelExecutor,
    Stream,
    build_engines,
    canonical_order,
    estimate_pattern_catalog,
    parse_pattern,
    plan_pattern,
)
from repro.engines.metrics import EngineMetrics
from repro.errors import WorkerCrashError
from repro.events import Event
from repro.parallel import match_records
from repro.service import (
    Fault,
    FaultPlan,
    ShardDegraded,
    ShardRepromoted,
    ShardServer,
    SocketReconnected,
    WorkerCrashed,
    WorkerReseeded,
    serve_in_thread,
)
from repro.service.protocol import (
    MSG_BATCH,
    MSG_INIT,
    MSG_PING,
    REPLY_ERROR,
    REPLY_PONG,
    WorkerState,
    recv_frame,
    send_frame,
)
from repro.service.transport import (
    SocketChannel,
    ThreadChannel,
    TransportDead,
    backoff_delay,
)

KEYED = "PATTERN SEQ(A a, B b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN 1.5"
THETA = "PATTERN SEQ(A a, B b, C c) WHERE a.v < b.v AND b.v < c.v WITHIN 0.9"

import random as _random


def mixed_stream(seed: int, count: int = 300, keys: int = 5) -> Stream:
    rng = _random.Random(seed)
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


def plans_for(text: str, stream: Stream):
    pattern = parse_pattern(text)
    catalog = estimate_pattern_catalog(pattern, stream)
    return plan_pattern(pattern, catalog, algorithm="GREEDY")


def serial_records(planned, stream):
    return match_records(canonical_order(build_engines(planned).run(stream)))


def chaos_config(backend: str, plan: FaultPlan, **overrides) -> ParallelConfig:
    base = dict(
        workers=2,
        partitioner="key",
        backend=backend,
        batch_size=16,
        recovery="reseed",
        fault_plan=plan,
        connect_attempts=3,
        reconnect_attempts=4,
        backoff_base=0.02,
        backoff_max=0.2,
        heartbeat_seconds=0.2,
        liveness_seconds=1.0,
    )
    base.update(overrides)
    return ParallelConfig(**base)


def run_chaos(planned, stream, config):
    """Feed the stream in two halves through a session stream; return
    (records, metrics, runtime_events)."""
    with ParallelExecutor(planned, config) as executor:
        run = executor.session().stream()
        events = list(stream)
        out = list(run.feed(events[: len(events) // 2]))
        out.extend(run.feed(events[len(events) // 2:]))
        out.extend(run.finish())
        return match_records(out), run.metrics, run.runtime_events


class TestFaultPlan:
    def test_unknown_action_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultPlan().add(Fault("meteor"))

    def test_nth_occurrence_trigger_fires_exactly_once(self):
        plan = FaultPlan()
        plan.crash_server(after_batches=3)
        batch = (MSG_BATCH, 1, 0, [])
        assert plan.take_server_fault(batch) is None
        assert plan.take_server_fault(batch) is None
        fault = plan.take_server_fault(batch)
        assert fault is not None and fault.fired
        # Fired faults never re-fire: recovery's replacement channels
        # behave healthily.
        assert plan.take_server_fault(batch) is None
        assert plan.pending == []

    def test_batch_trigger_matches_worker_and_batch_id(self):
        plan = FaultPlan()
        plan.kill_worker(1, at_batch=2)
        assert plan.take_send_fault(0, (MSG_BATCH, 1, 2, [])) is None
        assert plan.take_send_fault(1, (MSG_BATCH, 1, 0, [])) is None
        assert plan.take_send_fault(1, (MSG_BATCH, 1, 2, [])) is not None

    def test_firings_are_logged_for_the_artifact(self):
        plan = FaultPlan(seed=7)
        plan.tear_send(0, at_batch=1, tear_bytes=5)
        plan.take_send_fault(0, (MSG_BATCH, 1, 1, []))
        assert plan.log == [
            {
                "action": "tear",
                "worker": 0,
                "message": MSG_BATCH,
                "batch": 1,
                "detail": {"tear_bytes": 5, "seconds": 0.0, "nth": 1},
            }
        ]

    def test_seeded_rng_is_reproducible(self):
        assert FaultPlan(seed=3).rng.random() == FaultPlan(seed=3).rng.random()

    def test_backoff_delay_is_capped_and_jittered(self):
        rng = _random.Random(0)
        for attempt in range(12):
            delay = backoff_delay(attempt, 0.05, 2.0, rng)
            assert 0.0 < delay <= 2.0


class TestChaosMatrixProcesses:
    """The seeded chaos matrix on the process backend."""

    def test_worker_kill_recovers_byte_identically(self):
        stream = mixed_stream(201, count=400)
        planned = plans_for(KEYED, stream)
        # Batch 10 lands in the second feed chunk, after the first
        # chunk's acks were drained — so the kill exercises the full
        # reseed path (SEED from the acked window log), not just the
        # unacked-batch resend.
        plan = FaultPlan(seed=1).kill_worker(0, at_batch=10)
        records, metrics, events = run_chaos(
            planned, stream, chaos_config("processes", plan, batch_size=8)
        )
        assert records == serial_records(planned, stream)
        assert plan.pending == []
        assert metrics.worker_crashes >= 1
        assert metrics.worker_reseeds >= 1
        assert metrics.send_retries >= 1
        assert any(isinstance(event, WorkerCrashed) for event in events)
        assert any(isinstance(event, WorkerReseeded) for event in events)

    def test_torn_write_falls_back_to_kill_and_recovers(self):
        # Queue transports have no wire to tear; the plan's tear fault
        # degrades to a worker kill and recovery must still hold.
        stream = mixed_stream(203, count=400)
        planned = plans_for(KEYED, stream)
        plan = FaultPlan(seed=2).tear_send(1, at_batch=2, tear_bytes=7)
        records, metrics, _ = run_chaos(
            planned, stream, chaos_config("processes", plan)
        )
        assert records == serial_records(planned, stream)
        assert metrics.worker_crashes >= 1

    def test_frozen_worker_is_detected_within_the_liveness_deadline(self):
        stream = mixed_stream(205, count=400)
        planned = plans_for(KEYED, stream)
        plan = FaultPlan(seed=3).freeze_worker(0, at_batch=2)
        config = chaos_config(
            "processes",
            plan,
            heartbeat_seconds=0.1,
            liveness_seconds=0.5,
        )
        started = time.monotonic()
        records, metrics, _ = run_chaos(planned, stream, config)
        elapsed = time.monotonic() - started
        assert records == serial_records(planned, stream)
        assert metrics.heartbeats_missed >= 1
        assert metrics.worker_crashes >= 1
        # Detection is bounded by the deadline, not by luck: the whole
        # run (including respawn and replay) fits in a few deadlines.
        assert elapsed < 0.5 * 20

    def test_frozen_worker_without_recovery_is_a_typed_error_not_a_hang(self):
        stream = mixed_stream(207, count=300)
        planned = plans_for(KEYED, stream)
        plan = FaultPlan(seed=4).freeze_worker(0, at_batch=1)
        config = chaos_config(
            "processes",
            plan,
            recovery="fail",
            heartbeat_seconds=0.1,
            liveness_seconds=0.4,
        )
        with ParallelExecutor(planned, config) as executor:
            run = executor.session().stream()
            with pytest.raises(WorkerCrashError, match="liveness deadline"):
                run.feed(list(stream))
                run.finish()

    def test_delayed_replies_are_a_straggler_not_a_failure(self):
        stream = mixed_stream(209, count=300)
        planned = plans_for(KEYED, stream)
        plan = FaultPlan(seed=5).delay_replies(1, seconds=0.4, at_batch=1)
        records, metrics, events = run_chaos(
            planned, stream, chaos_config("processes", plan)
        )
        assert records == serial_records(planned, stream)
        assert metrics.worker_crashes == 0
        assert events == []

    def test_single_worker_kill_recovers_byte_identically(self):
        # A theta pattern has no routing key, so the pool runs it on one
        # process worker; a kill after acks landed reseeds that worker
        # from the acked window log like any keyed shard.
        stream = mixed_stream(223, count=300)
        planned = plans_for(THETA, stream)
        plan = FaultPlan(seed=8).kill_worker(0, at_batch=10)
        records, metrics, events = run_chaos(
            planned,
            stream,
            chaos_config("processes", plan, partitioner="auto", batch_size=8),
        )
        assert records == serial_records(planned, stream)
        assert plan.pending == []
        assert metrics.worker_count == 1
        assert metrics.worker_reseeds >= 1
        assert any(isinstance(event, WorkerReseeded) for event in events)


class TestSharedPlanRecovery:
    """A shared-plan pool reseeds like a single-pattern one."""

    WORKLOAD = (
        "PATTERN SEQ(A a, B b) WHERE a.k = b.k WITHIN 1.5",
        "PATTERN SEQ(B p, C q) WHERE p.k = q.k WITHIN 1.5",
        "PATTERN SEQ(A x, C y) WHERE x.k = y.k WITHIN 1.5",
    )

    def shared_plan(self):
        from repro import plan_workload
        from repro.multiquery import Workload
        from repro.stats import StatisticsCatalog

        workload = Workload.of(*self.WORKLOAD)
        catalogs = {
            name: StatisticsCatalog(
                {t: 1.0 for t in pattern.variable_types().values()}
            )
            for name, pattern in workload.items()
        }
        return plan_workload(workload, catalogs)

    @pytest.mark.parametrize("seed", (227, 229, 233, 239))
    @pytest.mark.parametrize("cut", (100, 200, 300))
    def test_keyed_shared_spec_pool_reseeds_exactly(self, seed, cut):
        from repro.multiquery.executor import group_by_query

        stream = mixed_stream(seed, count=400)
        shared = self.shared_plan()
        expected = build_engines(shared).run(stream)
        config = ParallelConfig(
            workers=2, backend="processes", batch_size=8, recovery="reseed"
        )
        with ParallelExecutor(shared, config) as executor:
            assert executor.partitioner_name == "key"
            run = executor.session().stream()
            events = list(stream)
            out = list(run.feed(events[:cut]))
            # Settle first: a kill before any ack only resends batches
            # and never reaches the reseed path.
            out.extend(run.settle())
            channel = executor.session().pool._channels[0]
            channel._process.kill()
            channel._process.join()
            out.extend(run.feed(events[cut:]))
            out.extend(run.finish())
            assert run.metrics.worker_reseeds >= 1
        got = group_by_query(shared.query_names, out)
        assert set(got) == set(expected)
        for query, matches in expected.items():
            assert match_records(got[query]) == match_records(
                canonical_order(matches)
            )


class TestChaosMatrixSocket:
    """The seeded chaos matrix on the socket backend."""

    def run_with_server(self, planned, stream, plan, **overrides):
        server = serve_in_thread(fault_plan=plan)
        try:
            config = chaos_config(
                "socket", plan, shards=[server.address], **overrides
            )
            return run_chaos(planned, stream, config)
        finally:
            server.kill()

    def test_connection_kill_reconnects_and_reseeds(self):
        stream = mixed_stream(211, count=400)
        planned = plans_for(KEYED, stream)
        plan = FaultPlan(seed=6).kill_worker(0, at_batch=3)
        records, metrics, events = self.run_with_server(
            planned, stream, plan
        )
        assert records == serial_records(planned, stream)
        assert metrics.worker_crashes >= 1
        assert metrics.socket_reconnects >= 1
        assert any(isinstance(event, SocketReconnected) for event in events)

    @pytest.mark.parametrize("tear_bytes", [0, 2, 20])
    def test_torn_write_at_byte_offset_recovers(self, tear_bytes):
        # 0: reset with nothing on the wire; 2: torn inside the 4-byte
        # length prefix; 20: torn mid-payload.  The shard sees EOF
        # mid-frame, the driver reconnects and replays.
        stream = mixed_stream(213, count=400)
        planned = plans_for(KEYED, stream)
        plan = FaultPlan(seed=7).tear_send(
            1, at_batch=2, tear_bytes=tear_bytes
        )
        records, metrics, _ = self.run_with_server(planned, stream, plan)
        assert records == serial_records(planned, stream)
        assert metrics.socket_reconnects >= 1

    def test_frozen_socket_worker_triggers_liveness_reconnect(self):
        stream = mixed_stream(215, count=400)
        planned = plans_for(KEYED, stream)
        plan = FaultPlan(seed=8).freeze_worker(0, at_batch=2)
        records, metrics, _ = self.run_with_server(
            planned,
            stream,
            plan,
            heartbeat_seconds=0.1,
            liveness_seconds=0.5,
        )
        assert records == serial_records(planned, stream)
        assert metrics.heartbeats_missed >= 1
        assert metrics.socket_reconnects >= 1

    def test_shard_server_restart_mid_run_recovers(self):
        # The server hard-closes after a scheduled number of handled
        # batches (as if the host died); a supervisor brings a new one
        # up on the same port; the driver's backoff re-dial finds it
        # and the replayed run stays byte-identical.
        stream = mixed_stream(217, count=400)
        planned = plans_for(KEYED, stream)
        plan = FaultPlan(seed=9).crash_server(after_batches=5)
        server = serve_in_thread(fault_plan=plan)
        host, port = server.address
        replacements = []

        def supervisor():
            while not server._closing:
                time.sleep(0.01)
            while True:
                try:
                    replacement = ShardServer(host, port)
                except OSError:
                    time.sleep(0.02)
                    continue
                replacements.append(replacement)
                replacement.serve_forever()
                return

        thread = threading.Thread(target=supervisor, daemon=True)
        thread.start()
        try:
            config = chaos_config(
                "socket",
                plan,
                shards=[(host, port)],
                connect_attempts=5,
                reconnect_attempts=6,
                backoff_base=0.05,
                backoff_max=0.5,
            )
            records, metrics, _ = run_chaos(planned, stream, config)
            assert records == serial_records(planned, stream)
            assert metrics.worker_crashes >= 1
            assert metrics.socket_reconnects >= 1
        finally:
            server.kill()
            for replacement in replacements:
                replacement.kill()

    def test_reconnect_exhaustion_degrades_to_local_worker(self):
        # Kill the only shard permanently: reconnection exhausts and
        # the circuit breaker demotes both workers to local serial
        # channels — the run completes, degraded but byte-identical.
        stream = mixed_stream(219, count=400)
        planned = plans_for(KEYED, stream)
        plan = FaultPlan(seed=10).kill_worker(0, at_batch=3)
        server = serve_in_thread(fault_plan=plan)
        config = chaos_config(
            "socket",
            plan,
            shards=[server.address],
            connect_attempts=1,
            reconnect_attempts=2,
            backoff_base=0.01,
            backoff_max=0.05,
            degradation="local",
            degrade_backend="serial",
        )
        with ParallelExecutor(planned, config) as executor:
            run = executor.session().stream()
            events = list(stream)
            out = list(run.feed(events[:150]))
            server.kill()  # no supervisor: the shard is gone for good
            out.extend(run.feed(events[150:]))
            out.extend(run.finish())
            assert match_records(out) == serial_records(planned, stream)
            assert run.metrics.shards_degraded >= 1
            assert any(
                isinstance(event, ShardDegraded)
                for event in run.runtime_events
            )

    def test_degraded_shard_is_repromoted_when_it_comes_back(self):
        # Half-open circuit breaker: after degradation to a local
        # serial worker, restart the shard on the same address, let the
        # probe interval elapse, and the pool must dial it, replay the
        # window log, and promote the partition back — byte-identically.
        stream = mixed_stream(219, count=400)
        planned = plans_for(KEYED, stream)
        plan = FaultPlan(seed=10).kill_worker(0, at_batch=3)
        server = serve_in_thread(fault_plan=plan)
        host, port = server.address
        config = chaos_config(
            "socket",
            plan,
            shards=[server.address],
            connect_attempts=1,
            reconnect_attempts=2,
            backoff_base=0.01,
            backoff_max=0.05,
            degradation="local",
            degrade_backend="serial",
            repromote_seconds=0.05,
        )
        replacement = None
        try:
            with ParallelExecutor(planned, config) as executor:
                run = executor.session().stream()
                events = list(stream)
                out = list(run.feed(events[:150]))
                server.kill()  # exhaust reconnects -> degrade
                out.extend(run.feed(events[150:250]))
                # Crash detection is synchronous inside feed's submit
                # and drain paths, and the dead-socket send may only
                # surface a few batches later — keep feeding single
                # events until the breaker opens.  The shard must not
                # come back before that, or the worker just reconnects
                # and nothing degrades.
                remaining = list(events[250:])
                deadline = time.monotonic() + 10.0
                while not any(
                    isinstance(event, ShardDegraded)
                    for event in run.runtime_events
                ):
                    assert time.monotonic() < deadline, "never degraded"
                    if remaining:
                        out.extend(run.feed([remaining.pop(0)]))
                    else:
                        time.sleep(0.02)
                # Bring the shard back on the same address (the old
                # listener may linger briefly; retry the bind).
                rebind_error = None
                for _ in range(200):
                    try:
                        replacement = serve_in_thread(host, port)
                        break
                    except OSError as error:
                        rebind_error = error
                        time.sleep(0.02)
                assert replacement is not None, repr(rebind_error)
                time.sleep(0.1)  # let the probe interval elapse
                out.extend(run.feed(remaining))
                out.extend(run.finish())
                assert match_records(out) == serial_records(planned, stream)
                assert run.metrics.shards_degraded >= 1
                assert run.metrics.shards_repromoted >= 1
                promoted = [
                    event
                    for event in run.runtime_events
                    if isinstance(event, ShardRepromoted)
                ]
                assert promoted and promoted[0].address == (host, port)
        finally:
            if replacement is not None:
                replacement.kill()

    def test_reconnect_exhaustion_with_fail_policy_is_typed(self):
        stream = mixed_stream(221, count=300)
        planned = plans_for(KEYED, stream)
        server = serve_in_thread()
        config = chaos_config(
            "socket",
            None,
            shards=[server.address],
            connect_attempts=1,
            reconnect_attempts=2,
            backoff_base=0.01,
            backoff_max=0.05,
            fault_plan=None,
        )
        with ParallelExecutor(planned, config) as executor:
            run = executor.session().stream()
            events = list(stream)
            run.feed(events[:150])
            server.kill()
            with pytest.raises(WorkerCrashError, match="could not be"):
                run.feed(events[150:])
                run.finish()


class TestRecoveryFrontier:
    def test_frontier_stays_monotone_across_recovery(self):
        # feed() after a mid-stream crash+replay: the concatenation of
        # every released chunk must equal the canonical serial output
        # exactly — which pins monotone order, no duplicates, and no
        # reordering in one assertion.
        stream = mixed_stream(223, count=500)
        planned = plans_for(KEYED, stream)
        expected = serial_records(planned, stream)
        plan = FaultPlan(seed=11).kill_worker(0, at_batch=2)
        config = chaos_config("processes", plan, batch_size=8)
        with ParallelExecutor(planned, config) as executor:
            run = executor.session().stream()
            events = list(stream)
            out = []
            for start in range(0, len(events), 50):
                released = run.feed(events[start : start + 50])
                out.extend(released)
            out.extend(run.finish())
            assert match_records(out) == expected
            assert run.metrics.worker_crashes >= 1


class TestShardServerHardening:
    def poisoned_connection(self, server, payload_frame: bytes):
        sock = socket.create_connection(server.address, timeout=5.0)
        send_frame(sock, ("hello", 0))
        sock.sendall(payload_frame)
        return sock

    def test_corrupt_frame_gets_typed_error_and_close(self):
        server = serve_in_thread()
        try:
            garbage = b"\x00not pickle at all"
            frame = struct.pack(">I", len(garbage)) + garbage
            sock = self.poisoned_connection(server, frame)
            reply = recv_frame(sock)
            assert reply[1] == REPLY_ERROR
            assert "unpickle" in reply[2][1]
            with pytest.raises(EOFError):
                recv_frame(sock)  # the connection was closed
            sock.close()
        finally:
            server.kill()

    def test_oversized_frame_is_refused_before_allocation(self):
        server = serve_in_thread(max_frame_bytes=1024)
        try:
            frame = struct.pack(">I", 10_000_000)  # header only
            sock = self.poisoned_connection(server, frame)
            reply = recv_frame(sock)
            assert reply[1] == REPLY_ERROR
            assert "exceeds" in reply[2][1]
            with pytest.raises(EOFError):
                recv_frame(sock)
            sock.close()
        finally:
            server.kill()

    def test_bad_handshake_is_rejected_loudly(self):
        server = serve_in_thread()
        try:
            sock = socket.create_connection(server.address, timeout=5.0)
            send_frame(sock, ("hi there", 1, 2))
            reply = recv_frame(sock)
            assert reply[1] == REPLY_ERROR
            assert "protocol mismatch" in reply[2][1]
            sock.close()
        finally:
            server.kill()

    def test_poisoned_connection_does_not_kill_other_connections(self):
        server = serve_in_thread()
        try:
            healthy = SocketChannel(server.address, worker_id=7)
            garbage = b"\xffgarbage"
            frame = struct.pack(">I", len(garbage)) + garbage
            poisoned = self.poisoned_connection(server, frame)
            recv_frame(poisoned)  # the typed ERROR
            poisoned.close()
            # The healthy connection (and the accept loop) still serve.
            healthy.send((MSG_PING, 42))
            reply = healthy.recv(timeout=5.0)
            assert reply == (7, REPLY_PONG, 42)
            late = SocketChannel(server.address, worker_id=8)
            late.send((MSG_PING, 43))
            assert late.recv(timeout=5.0) == (8, REPLY_PONG, 43)
            healthy.kill()
            late.kill()
        finally:
            server.kill()


class _SlowUnpickle:
    """Payload whose unpickling blocks — a handler stuck mid-message."""

    def __reduce__(self):
        return (time.sleep, (3.0,))


class TestThreadChannelTeardown:
    def test_kill_unblocks_an_idle_worker_thread(self):
        channel = ThreadChannel(worker_id=0)
        assert channel.alive()
        channel.kill()  # poison + sentinel wakes the blocked get
        assert not channel._thread.is_alive()

    def test_stop_reports_a_stuck_handler_instead_of_silently_leaking(self):
        channel = ThreadChannel(worker_id=1)
        channel.stop_timeout = 0.2
        channel.send((MSG_INIT, pickle.dumps(_SlowUnpickle())))
        with pytest.raises(TransportDead, match="did not stop"):
            channel.stop()
        channel.kill()  # abandons the frozen daemon thread

    def test_poisoned_channel_stops_after_current_message(self):
        channel = ThreadChannel(worker_id=2)
        channel.send((MSG_PING, 1))
        deadline = time.monotonic() + 5.0
        while channel.recv(timeout=0.1) is None:
            assert time.monotonic() < deadline
        channel.kill()
        channel._thread.join(timeout=5.0)
        assert not channel._thread.is_alive()


class TestFaultCounters:
    def build(self, **values) -> EngineMetrics:
        metrics = EngineMetrics()
        for name, value in values.items():
            setattr(metrics, name, value)
        return metrics

    def test_counters_add_under_concurrent_merge(self):
        a = self.build(worker_crashes=2, socket_reconnects=1, send_retries=3)
        b = self.build(worker_crashes=1, shards_degraded=1, send_retries=2)
        merged = a.merge(b, concurrent=True)
        assert merged.worker_crashes == 3
        assert merged.socket_reconnects == 1
        assert merged.shards_degraded == 1
        assert merged.send_retries == 5

    def test_counters_add_under_sequential_merge_too(self):
        a = self.build(heartbeats_missed=4, worker_reseeds=1)
        b = self.build(heartbeats_missed=1, worker_reseeds=2)
        merged = a.merge(b, concurrent=False)
        assert merged.heartbeats_missed == 5
        assert merged.worker_reseeds == 3

    def test_counters_appear_in_the_summary(self):
        summary = self.build(worker_crashes=1, shards_degraded=2).summary()
        assert summary["worker_crashes"] == 1
        assert summary["shards_degraded"] == 2
        assert summary["socket_reconnects"] == 0


class TestPingPong:
    def test_ping_is_valid_in_any_state_and_echoes_the_token(self):
        state = WorkerState(worker_id=3)
        assert state.handle((MSG_PING, 99)) == [(3, REPLY_PONG, 99)]
        state.handle((MSG_INIT, pickle.dumps({"not": "a spec"})))
        assert state.handle((MSG_PING, "tok")) == [(3, REPLY_PONG, "tok")]


class TestIngestorShedAccounting:
    def test_sustained_shed_never_burns_sequence_numbers(self):
        # Shed events must not consume seqs: the frontier math would
        # wait forever on a seq that never reaches a worker.  Accepted
        # events must be fed with the contiguous range 0..accepted-1.
        import asyncio

        from repro.service import Ingestor

        stream = mixed_stream(225, count=300)
        planned = plans_for(KEYED, stream)

        async def main():
            executor = ParallelExecutor(
                planned,
                ParallelConfig(workers=1, partitioner="key", backend="serial"),
            )
            async with Ingestor(
                executor,
                max_pending=4,
                backpressure="shed",
                flush_events=512,
                flush_seconds=5.0,
            ) as ingestor:
                fed_seqs = []
                real_feed = ingestor._stream.feed

                def spying_feed(events, arrivals=None):
                    fed_seqs.extend(event.seq for event in events)
                    return real_feed(events, arrivals)

                ingestor._stream.feed = spying_feed
                accepted = 0
                for event in stream:
                    accepted += await ingestor.put(event)
                await ingestor.close()
                assert ingestor.shed > 0
                assert accepted + ingestor.shed == len(stream)
                assert sorted(fed_seqs) == list(range(accepted))
            executor.close()

        asyncio.run(main())


class TestConfigValidation:
    def test_liveness_must_exceed_heartbeat(self):
        with pytest.raises(ParallelError, match="liveness"):
            ParallelConfig(heartbeat_seconds=2.0, liveness_seconds=1.0)

    def test_degradation_policy_is_validated(self):
        with pytest.raises(ParallelError, match="degradation"):
            ParallelConfig(degradation="shrug")

    def test_degrade_backend_is_validated(self):
        with pytest.raises(ParallelError, match="degrade_backend"):
            ParallelConfig(degradation="local", degrade_backend="socket")

    def test_reconnect_attempts_must_be_positive(self):
        with pytest.raises(ParallelError, match="reconnect_attempts"):
            ParallelConfig(reconnect_attempts=0)

    def test_repromote_seconds_must_be_positive_when_given(self):
        with pytest.raises(ParallelError, match="repromote_seconds"):
            ParallelConfig(repromote_seconds=0.0)
        assert ParallelConfig(repromote_seconds=0.5).repromote_seconds == 0.5
