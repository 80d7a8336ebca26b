"""The always-on service runtime (:mod:`repro.service`).

The load-bearing assertions are byte-identity ones: persistent
sessions, incremental streaming (with its canonical-order safety
frontier), socket-distributed shards, crash recovery, and the asyncio
ingestor must all reproduce exactly the match records of the
single-threaded interpreted engine.  Around those sit the mechanics:
the epoch-stamped worker protocol, backpressure policies, and the
cross-process snapshot round trip backing crash reseeding.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import random
import socket
import struct
import subprocess
import sys
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
from repro.errors import WorkerCrashError
from repro.events import Event
from repro.parallel import EngineSpec, match_records
from repro.service import Ingestor, serve_in_thread
from repro.service.protocol import (
    MSG_BATCH,
    MSG_FINISH,
    MSG_INIT,
    MSG_RESET,
    REPLY_ACK,
    REPLY_DONE,
    REPLY_ERROR,
    FrameDecoder,
    WorkerState,
    recv_frame,
    send_frame,
)
from repro.service.session import SessionStream
from repro.service.transport import SocketChannel

KEYED = "PATTERN SEQ(A a, B b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN 1.5"
THETA = "PATTERN SEQ(A a, B b, C c) WHERE a.v < b.v AND b.v < c.v WITHIN 0.9"
NEG_TRAIL = "PATTERN SEQ(A a, B b, NOT(D d)) WHERE a.v < b.v WITHIN 1.2"


def mixed_stream(seed: int, count: int = 300, keys: int = 5) -> Stream:
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


def plans_for(text: str, stream: Stream, algorithm: str = "GREEDY"):
    pattern = parse_pattern(text)
    catalog = estimate_pattern_catalog(pattern, stream)
    return plan_pattern(pattern, catalog, algorithm=algorithm)


def serial_records(planned, stream):
    return match_records(canonical_order(build_engines(planned).run(stream)))


class TestWorkerProtocol:
    def runner_state(self, stream):
        planned = plans_for(KEYED, stream)
        state = WorkerState(worker_id=0)
        assert state.handle((MSG_INIT, EngineSpec.from_planned(planned)))[0][
            1
        ] == "ready"
        return state

    def test_stale_epoch_batches_are_dropped_without_ack(self):
        stream = mixed_stream(3, count=60)
        state = self.runner_state(stream)
        state.handle((MSG_RESET, 2, {}))
        events = list(stream)
        assert state.handle((MSG_BATCH, 1, 0, events)) == []  # stale
        (reply,) = state.handle((MSG_BATCH, 2, 0, events))
        assert reply[1] == REPLY_ACK and reply[2][0] == 2
        (done,) = state.handle((MSG_FINISH, 2))
        assert done[1] == REPLY_DONE

    def test_finish_at_wrong_epoch_is_an_error(self):
        stream = mixed_stream(3, count=20)
        state = self.runner_state(stream)
        state.handle((MSG_RESET, 5, {}))
        with pytest.raises(RuntimeError, match="epoch"):
            state.handle((MSG_FINISH, 4))

    def test_acks_carry_incremental_matches_only(self):
        stream = mixed_stream(11, count=200)
        planned = plans_for(KEYED, stream)
        state = self.runner_state(stream)
        state.handle((MSG_RESET, 1, {}))
        events = list(stream)
        collected = []
        for start in (0, 100):
            (ack,) = state.handle(
                (MSG_BATCH, 1, start, events[start : start + 100])
            )
            collected.extend(ack[2][2])
        (done,) = state.handle((MSG_FINISH, 1))
        collected.extend(done[2][1].matches)
        assert match_records(canonical_order(collected)) == serial_records(
            planned, stream
        )
        # The final result's metrics still count every kept match.
        assert done[2][1].metrics.matches_emitted == len(collected)


class TestPersistentSessions:
    @pytest.mark.parametrize("backend", ("serial", "threads", "processes"))
    def test_repeated_runs_reuse_the_worker_pool(self, backend):
        stream = mixed_stream(7, count=250)
        planned = plans_for(KEYED, stream)
        expected = serial_records(planned, stream)
        with ParallelExecutor(
            planned,
            ParallelConfig(
                workers=2, partitioner="key", backend=backend, batch_size=64
            ),
        ) as executor:
            first = executor.run(stream)
            channels = list(executor.session().pool._channels)
            second = executor.run(stream)
            assert match_records(first) == expected
            assert match_records(second) == expected
            # Same channel objects: nothing was respawned between runs.
            assert executor.session().pool._channels == channels
            assert executor.metrics.worker_count == 2

    def test_close_then_run_restarts_cleanly(self):
        stream = mixed_stream(19, count=120)
        planned = plans_for(KEYED, stream)
        executor = ParallelExecutor(
            planned,
            ParallelConfig(workers=2, partitioner="key", backend="threads"),
        )
        assert match_records(executor.run(stream)) == serial_records(
            planned, stream
        )
        executor.close()
        assert match_records(executor.run(stream)) == serial_records(
            planned, stream
        )
        executor.close()

    def test_unpicklable_spec_reports_parallel_error(self):
        stream = mixed_stream(23, count=40)
        planned = plans_for(KEYED, stream)
        executor = ParallelExecutor(
            planned,
            ParallelConfig(workers=2, partitioner="key", backend="processes"),
        )
        executor._spec.parts[0]["unpicklable"] = lambda: None
        with pytest.raises(ParallelError, match="pickle"):
            executor.run(stream)


class TestSocketShards:
    def test_loopback_shard_is_byte_identical(self):
        stream = mixed_stream(31, count=250)
        planned = plans_for(KEYED, stream)
        server = serve_in_thread()  # 127.0.0.1, ephemeral port
        try:
            with ParallelExecutor(
                planned,
                ParallelConfig(
                    workers=2,
                    partitioner="key",
                    backend="socket",
                    shards=[server.address],
                    batch_size=64,
                ),
            ) as executor:
                matches = executor.run(stream)
                assert match_records(matches) == serial_records(
                    planned, stream
                )
                # Both workers multiplex onto the one loopback shard.
                assert executor.metrics.worker_count == 2
                again = executor.run(stream)
                assert match_records(again) == match_records(matches)
        finally:
            server.close()

    def test_workers_default_to_shard_count(self):
        stream = mixed_stream(37, count=60)
        planned = plans_for(KEYED, stream)
        server = serve_in_thread()
        try:
            executor = ParallelExecutor(
                planned,
                ParallelConfig(
                    partitioner="key",
                    backend="socket",
                    shards=[server.address, server.address],
                ),
            )
            assert executor.workers == 2
            executor.close()
        finally:
            server.close()

    def test_socket_backend_requires_shards(self):
        with pytest.raises(ParallelError, match="shard"):
            ParallelConfig(backend="socket")

    def test_unreachable_shard_is_a_typed_crash(self):
        stream = mixed_stream(41, count=30)
        planned = plans_for(KEYED, stream)
        executor = ParallelExecutor(
            planned,
            ParallelConfig(
                workers=1,
                partitioner="key",
                backend="socket",
                shards=[("127.0.0.1", 1)],  # nothing listens there
            ),
        )
        with pytest.raises(WorkerCrashError):
            executor.run(stream)

    def test_non_hello_first_frame_is_rejected_loudly(self):
        # A protocol-mismatched driver must get a typed ERROR reply and
        # a closed connection, not lose its first message and hang
        # waiting for a READY that never comes.
        server = serve_in_thread()
        try:
            conn = socket.create_connection(server.address, timeout=5.0)
            try:
                send_frame(conn, (MSG_INIT, b"not a hello"))
                reply = recv_frame(conn)
                assert reply[1] == REPLY_ERROR
                assert "hello" in reply[2][1]
                with pytest.raises(EOFError):
                    recv_frame(conn)  # server closed the connection
            finally:
                conn.close()
        finally:
            server.close()


class TestSocketFraming:
    """A recv() timeout must never desynchronize the frame stream:
    bytes of a partially-received frame stay buffered on the channel
    until the rest arrives (frames cross TCP segment boundaries on
    real networks even though loopback usually delivers them whole)."""

    @staticmethod
    def raw_frame(payload: object) -> bytes:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        return struct.pack(">I", len(blob)) + blob

    def test_frame_decoder_reassembles_byte_by_byte(self):
        frames = [("hello", 3), (0, REPLY_ACK, (1, 2, ["m"] * 10))]
        blob = b"".join(self.raw_frame(frame) for frame in frames)
        decoder = FrameDecoder()
        out = []
        for i in range(len(blob)):
            decoder.feed(blob[i : i + 1])
            while True:
                frame = decoder.next_frame()
                if frame is None:
                    break
                out.append(frame)
        assert out == frames
        assert not decoder.mid_frame

    def test_frame_decoder_refuses_oversized_lengths(self):
        decoder = FrameDecoder()
        decoder.feed(struct.pack(">I", (1 << 30) + 1))
        with pytest.raises(EOFError, match="exceeds"):
            decoder.next_frame()

    def test_partial_frames_survive_recv_timeouts(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        channel = None
        conn = None
        try:
            channel = SocketChannel(listener.getsockname()[:2], worker_id=0)
            conn, _ = listener.accept()
            assert recv_frame(conn) == ("hello", 0)
            first = self.raw_frame((0, "ready", None))
            ack = (0, REPLY_ACK, (1, 0, list(range(200))))
            second = self.raw_frame(ack)
            # Header plus two payload bytes: the timeout fires mid-frame
            # and those bytes must be kept, not discarded.
            conn.sendall(first[:6])
            assert channel.recv(timeout=0.05) is None
            # Finish frame 1 and start frame 2 in the same segment.
            conn.sendall(first[6:] + second[:9])
            assert channel.recv(timeout=2.0) == (0, "ready", None)
            assert channel.recv(timeout=0.05) is None  # frame 2 partial
            conn.sendall(second[9:])
            assert channel.recv(timeout=2.0) == ack
            # The stream is still in sync for whole frames after all
            # that fragmentation.
            send_frame(conn, (0, "done", "x"))
            assert channel.recv(timeout=2.0) == (0, "done", "x")
            assert channel.recv(timeout=0.0) is None  # clean poll
        finally:
            if channel is not None:
                channel.kill()
            if conn is not None:
                conn.close()
            listener.close()


class TestStreamingFrontier:
    @pytest.mark.parametrize(
        "text,workers",
        ((KEYED, 3), (THETA, 1), (NEG_TRAIL, 1)),
        ids=("key", "single-theta", "single-negation"),
    )
    def test_incremental_feed_is_byte_identical_and_ordered(
        self, text, workers
    ):
        stream = mixed_stream(43, count=400)
        planned = plans_for(text, stream)
        expected = serial_records(planned, stream)
        with ParallelExecutor(
            planned,
            ParallelConfig(workers=3, backend="threads", batch_size=16),
        ) as executor:
            run = executor.session().stream()
            events = list(stream)
            out = []
            for start in range(0, len(events), 29):
                out.extend(run.feed(events[start : start + 29]))
            early = len(out)
            out.extend(run.finish())
            assert match_records(out) == expected
            # The frontier releases matches before the stream ends, and
            # emission order IS canonical order (no trailing re-sort).
            if len(out) > 10:
                assert early > 0
            assert run.metrics.worker_count == workers

    def test_empty_streaming_run_finishes_clean(self):
        stream = mixed_stream(53, count=50)
        planned = plans_for(THETA, stream)
        with ParallelExecutor(
            planned, ParallelConfig(workers=2, backend="serial")
        ) as executor:
            run = executor.session().stream()
            assert run.finish() == []
            assert run.metrics.worker_count == 0


class TestCrashRecovery:
    def executor(self, planned, recovery):
        return ParallelExecutor(
            planned,
            ParallelConfig(
                workers=2,
                partitioner="key",
                backend="processes",
                batch_size=32,
                recovery=recovery,
            ),
        )

    def kill_one_worker(self, session):
        channel = session.pool._channels[0]
        channel._process.kill()
        channel._process.join()

    def test_reseed_recovers_exactly_once(self):
        stream = mixed_stream(59, count=400)
        planned = plans_for(KEYED, stream)
        expected = serial_records(planned, stream)
        with self.executor(planned, "reseed") as executor:
            run = executor.session().stream()
            events = list(stream)
            out = list(run.feed(events[:200]))
            self.kill_one_worker(executor.session())
            out.extend(run.feed(events[200:]))
            out.extend(run.finish())
            assert match_records(out) == expected

    def test_fail_policy_surfaces_typed_error(self):
        stream = mixed_stream(61, count=400)
        planned = plans_for(KEYED, stream)
        with self.executor(planned, "fail") as executor:
            run = executor.session().stream()
            events = list(stream)
            run.feed(events[:200])
            self.kill_one_worker(executor.session())
            with pytest.raises(WorkerCrashError):
                run.feed(events[200:])
                run.finish()

    @pytest.mark.parametrize(
        "text", (THETA, NEG_TRAIL), ids=("theta", "negation")
    )
    def test_single_worker_run_reseeds_exactly(self, text):
        # A plan key routing cannot shard runs on one process worker;
        # killing it after acks landed must rebuild the engine from the
        # acked window log (pending negation matches included) and
        # reproduce the serial run byte for byte.
        stream = mixed_stream(67, count=400)
        planned = plans_for(text, stream)
        expected = serial_records(planned, stream)
        with ParallelExecutor(
            planned,
            ParallelConfig(
                workers=2,
                backend="processes",
                batch_size=32,
                recovery="reseed",
            ),
        ) as executor:
            run = executor.session().stream()
            events = list(stream)
            out = list(run.feed(events[:200]))
            out.extend(run.settle())
            self.kill_one_worker(executor.session())
            out.extend(run.feed(events[200:]))
            out.extend(run.finish())
            assert match_records(out) == expected
            assert run.metrics.worker_count == 1
            assert run.metrics.worker_reseeds >= 1

    def test_crash_after_all_acks_recovers_via_window_log(self):
        # Kill after the whole stream is acked but before FINISH: the
        # respawned worker is rebuilt purely from the seed log.
        stream = mixed_stream(71, count=300)
        planned = plans_for(KEYED, stream)
        expected = serial_records(planned, stream)
        with self.executor(planned, "reseed") as executor:
            run = executor.session().stream()
            out = list(run.feed(list(stream)))
            pool = executor.session().pool
            # Drain until nothing is in flight, then kill.
            for worker_id in range(pool.workers):
                pool._pump(
                    worker_id,
                    lambda worker_id=worker_id: not pool._unacked[worker_id],
                )
            self.kill_one_worker(executor.session())
            out.extend(run.finish())
            assert match_records(out) == expected


class TestIngestor:
    def test_async_ingestion_is_byte_identical(self):
        stream = mixed_stream(73, count=300)
        planned = plans_for(KEYED, stream)
        expected = serial_records(planned, stream)

        async def main():
            executor = ParallelExecutor(
                planned,
                ParallelConfig(
                    workers=2,
                    partitioner="key",
                    backend="threads",
                    batch_size=32,
                ),
            )
            got = []
            async with Ingestor(
                executor, flush_events=64, flush_seconds=0.01
            ) as ingestor:
                async def consume():
                    async for match in ingestor.matches():
                        got.append(match)

                consumer = asyncio.create_task(consume())
                for event in stream:
                    assert await ingestor.put(event)
                await ingestor.close()
                await consumer
            assert match_records(got) == expected
            assert ingestor.shed == 0
            assert ingestor.events_in == len(stream)
            # Every emitted match carries an arrival-stamped latency.
            assert len(ingestor.metrics.detection_latency) == len(got)
            assert ingestor.metrics.detection_latency.p95 >= 0.0
            executor.close()

        asyncio.run(main())

    def test_shed_policy_drops_and_counts_instead_of_blocking(self):
        stream = mixed_stream(79, count=200)
        planned = plans_for(KEYED, stream)

        async def main():
            executor = ParallelExecutor(
                planned,
                ParallelConfig(
                    workers=1, partitioner="key", backend="serial"
                ),
            )
            async with Ingestor(
                executor,
                max_pending=4,
                backpressure="shed",
                flush_events=256,
                flush_seconds=5.0,
            ) as ingestor:
                # Flood without yielding: the pump cannot drain between
                # puts, so the bounded queue must shed the overflow.
                accepted = 0
                for event in stream:
                    accepted += await ingestor.put(event)
                await ingestor.close()
                assert ingestor.shed > 0
                assert accepted + ingestor.shed == len(stream)
                assert ingestor.events_in == accepted
            executor.close()

        asyncio.run(main())

    def test_out_of_order_timestamps_are_rejected(self):
        stream = mixed_stream(83, count=20)
        planned = plans_for(KEYED, stream)

        async def main():
            executor = ParallelExecutor(
                planned,
                ParallelConfig(workers=1, partitioner="key", backend="serial"),
            )
            async with Ingestor(executor) as ingestor:
                await ingestor.put(Event("A", 5.0, {"k": 1, "v": 0.5}))
                with pytest.raises(Exception, match="arrives before"):
                    await ingestor.put(Event("B", 1.0, {"k": 1, "v": 0.5}))
                await ingestor.close()
            executor.close()

        asyncio.run(main())

    def test_concurrent_producers_get_unique_sequence_numbers(self):
        # put() is documented as multi-producer safe: admission is
        # serialized, so no two accepted events may share a sequence
        # number (duplicates would corrupt the frontier math).
        stream = mixed_stream(97, count=30)
        planned = plans_for(KEYED, stream)
        per_producer, producers = 60, 4

        async def main():
            executor = ParallelExecutor(
                planned,
                ParallelConfig(workers=2, partitioner="key", backend="serial"),
            )
            async with Ingestor(
                executor, max_pending=8, flush_events=16, flush_seconds=0.005
            ) as ingestor:
                fed_seqs = []
                real_feed = ingestor._stream.feed

                def spying_feed(events, arrivals=None):
                    fed_seqs.extend(event.seq for event in events)
                    return real_feed(events, arrivals)

                ingestor._stream.feed = spying_feed

                async def produce(worker):
                    for i in range(per_producer):
                        # Equal timestamps keep every interleaving
                        # non-decreasing; the bounded queue forces the
                        # blocking awaits the old race needed.
                        await ingestor.put(
                            Event("A", 1.0, {"k": worker, "v": 0.5})
                        )

                await asyncio.gather(
                    *(produce(worker) for worker in range(producers))
                )
                await ingestor.close()
                total = per_producer * producers
                assert ingestor.events_in == total
                assert sorted(fed_seqs) == list(range(total))
            executor.close()

        asyncio.run(main())

    @pytest.mark.parametrize("inflight", [None, "feed", "settle"])
    def test_exception_in_body_tears_down_pump_and_run(
        self, inflight, monkeypatch
    ):
        # __aexit__ on an exception must await the cancelled pump (no
        # destroyed-task warnings, no feed or settle left running on an
        # executor thread) and close the stream run so the pool is
        # reusable — also when the exception lands while that executor
        # call is still in flight.
        stream = mixed_stream(101, count=120)
        planned = plans_for(KEYED, stream)
        entered, left = threading.Event(), threading.Event()
        # Settle after every frame that leaves the queue empty, acked
        # or not, so the "settle" row does not depend on ack timing.
        monkeypatch.setattr(
            SessionStream,
            "outstanding",
            property(lambda run: run._started and not run._finished),
        )

        async def main():
            executor = ParallelExecutor(
                planned,
                ParallelConfig(
                    workers=2, partitioner="key", backend="threads"
                ),
            )
            holder = {}
            with pytest.raises(RuntimeError, match="boom"):
                async with Ingestor(
                    executor, flush_events=8, flush_seconds=0.005
                ) as ingestor:
                    holder["ingestor"] = ingestor
                    if inflight:
                        real = getattr(ingestor._stream, inflight)

                        def slow(*args):
                            entered.set()
                            time.sleep(0.1)
                            try:
                                return real(*args)
                            finally:
                                left.set()

                        setattr(ingestor._stream, inflight, slow)
                    for event in list(stream)[:60]:
                        await ingestor.put(event)
                    await asyncio.sleep(0.02)
                    for _ in range(1000 if inflight else 0):
                        if entered.is_set():
                            break
                        await asyncio.sleep(0.002)
                    assert entered.is_set() == bool(inflight)
                    assert not left.is_set()
                    raise RuntimeError("boom")
            ingestor = holder["ingestor"]
            assert ingestor._pump_task.done()
            assert ingestor._stream.finished
            assert left.is_set() or not inflight  # waited out, not abandoned
            # The abandoned run was closed cleanly: the same session
            # pool serves a fresh full run with correct output.
            matches = executor.run(stream)
            assert match_records(matches) == serial_records(planned, stream)
            executor.close()

        asyncio.run(main())


class TestSnapshotCrossProcess:
    """EngineSnapshot pickled into a fresh OS process and reseeded
    there must continue exactly where the donor stopped — including
    negation buffers and pending (deferred) matches."""

    @pytest.mark.parametrize("algorithm", ("GREEDY", "ZSTREAM"))
    def test_pickle_seed_roundtrip_in_new_process(self, tmp_path, algorithm):
        stream = mixed_stream(89, count=400)
        planned = plans_for(NEG_TRAIL, stream, algorithm)
        events = list(stream)

        # Pick a cut where matches are actually pending (a completed
        # SEQ(A, B) still waiting out its negation window), so the round
        # trip exercises the deferred-state machinery, not just buffers.
        donor = build_engines(planned)
        cut = None
        for index, event in enumerate(events[:300]):
            donor.process(event)
            if index >= 150 and donor.export_state().pending:
                cut = index + 1
                break
        assert cut is not None, "no cut point had pending matches"
        snapshot = donor.export_state()
        tail = events[cut:]
        assert snapshot.pending
        assert any(e.type == "D" for e in snapshot.events)

        expected = []
        for event in tail:
            expected.extend(donor.process(event))
        expected.extend(donor.finalize())

        payload = tmp_path / "snapshot.pkl"
        outcome = tmp_path / "records.pkl"
        with open(payload, "wb") as fh:
            pickle.dump(
                {
                    "spec": EngineSpec.from_planned(planned),
                    "snapshot": snapshot,
                    "tail": tail,
                },
                fh,
            )
        script = (
            "import pickle, sys\n"
            "from repro.parallel.ordering import match_records\n"
            "with open(sys.argv[1], 'rb') as fh:\n"
            "    data = pickle.load(fh)\n"
            "engine = data['spec'].build()\n"
            "engine.seed_from(data['snapshot'])\n"
            "matches = []\n"
            "for event in data['tail']:\n"
            "    matches.extend(engine.process(event))\n"
            "matches.extend(engine.finalize())\n"
            "with open(sys.argv[2], 'wb') as fh:\n"
            "    pickle.dump(match_records(matches), fh)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script, str(payload), str(outcome)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        with open(outcome, "rb") as fh:
            records = pickle.load(fh)
        assert records == match_records(expected)
