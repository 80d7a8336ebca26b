"""The batch-while-busy front door (:mod:`repro.service.ingest`).

``test_service.py`` holds the ingestor's byte-identity and policy rows;
this file pins the *mechanism*: how many event-loop tasks and feeds an
ingest costs, that framing never changes the output, that a lull does
not hold matches back, that a dead pump never strands a producer, and
that ``put_many`` accounts exactly like the ``put`` sequence it
replaces.
"""

from __future__ import annotations

import asyncio
import math
import time

import pytest

from repro import ParallelConfig, ParallelExecutor
from repro.events import Event
from repro.parallel import match_records
from repro.service import FaultPlan, Ingestor

from .test_service import KEYED, mixed_stream, plans_for, serial_records


def pool(planned, backend="serial", **overrides):
    settings = dict(
        workers=2, partitioner="key", backend=backend, batch_size=32
    )
    settings.update(overrides)
    return ParallelExecutor(planned, ParallelConfig(**settings))


def spy_on_feed(ingestor) -> list:
    """Record the frames the pump feeds (as lists of sequence numbers)."""
    frames: list = []
    real_feed = ingestor._stream.feed

    def spying_feed(events, arrivals=None):
        frames.append([event.seq for event in events])
        return real_feed(events, arrivals)

    ingestor._stream.feed = spying_feed
    return frames


async def collect(ingestor, into: list) -> None:
    async for match in ingestor.matches():
        into.append(match)


async def wait_until(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        await asyncio.sleep(0.005)
    return True


class TestMechanism:
    def test_closed_loop_costs_o1_tasks_and_one_feed_per_frame(self):
        count, flush_events = 5000, 256
        stream = mixed_stream(301, count=count, keys=40)
        planned = plans_for(KEYED, stream)
        expected = serial_records(planned, stream)

        async def main():
            tasks = []

            def counting_factory(loop, coro, **kwargs):
                tasks.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            asyncio.get_running_loop().set_task_factory(counting_factory)
            with pool(planned) as executor:
                got: list = []
                async with Ingestor(
                    executor, flush_events=flush_events
                ) as ingestor:
                    frames = spy_on_feed(ingestor)
                    consumer = asyncio.create_task(collect(ingestor, got))
                    for event in stream:
                        await ingestor.put(event)
                    await ingestor.close()
                    await consumer
            return tasks, frames, got

        tasks, frames, got = asyncio.run(main())
        assert match_records(got) == expected
        # The pump and this test's consumer; never one per event.
        assert len(tasks) <= 4, len(tasks)
        assert len(frames) <= 2 * math.ceil(count / flush_events) + 2
        assert max(map(len, frames)) <= flush_events
        assert [seq for frame in frames for seq in frame] == list(range(count))

    @pytest.mark.parametrize("flush_events", [1, 7, 256])
    @pytest.mark.parametrize("pacing", ["never", "every-put", "sleepy"])
    def test_framing_never_changes_the_output(self, flush_events, pacing):
        stream = mixed_stream(307, count=300)
        planned = plans_for(KEYED, stream)

        async def main():
            got: list = []
            with pool(planned, backend="threads") as executor:
                async with Ingestor(
                    executor, flush_events=flush_events
                ) as ingestor:
                    consumer = asyncio.create_task(collect(ingestor, got))
                    for position, event in enumerate(stream):
                        await ingestor.put(event)
                        if pacing == "every-put":
                            await asyncio.sleep(0)
                        elif pacing == "sleepy" and position % 50 == 49:
                            await asyncio.sleep(0.001)
                    await ingestor.close()
                    await consumer
            return got

        got = asyncio.run(main())
        assert match_records(got) == serial_records(planned, stream)


class TestLull:
    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_trailing_matches_do_not_wait_for_the_next_arrival(self, backend):
        # feed() releases only what was acknowledged when it returned;
        # with nothing else arriving, the pump must settle the rest
        # instead of holding it until close().
        stream = mixed_stream(311, count=400)
        planned = plans_for(KEYED, stream)
        expected = serial_records(planned, stream)

        async def main():
            got: list = []
            with pool(planned, backend=backend) as executor:
                async with Ingestor(executor, flush_events=64) as ingestor:
                    consumer = asyncio.create_task(collect(ingestor, got))
                    for event in stream:
                        await ingestor.put(event)
                    settled = await wait_until(
                        lambda: len(got) == len(expected), 0.5
                    )
                    before_close = len(got)
                    await ingestor.close()
                    await consumer
            return settled, before_close, got

        settled, before_close, got = asyncio.run(main())
        assert settled, f"{before_close} of {len(expected)} before close()"
        assert match_records(got) == expected

    def test_worker_lost_mid_settle_is_healed_exactly_once(self):
        # Worker 0 takes its only batch and goes silent, so the feed
        # returns with that batch outstanding and the crash (liveness
        # deadline, respawn, reseed replay) happens inside settle().
        stream = mixed_stream(313, count=200)
        planned = plans_for(KEYED, stream)
        expected = serial_records(planned, stream)
        plan = FaultPlan(seed=11).freeze_worker(0, at_batch=0)

        async def main():
            got: list = []
            with pool(
                planned,
                backend="processes",
                batch_size=256,
                recovery="reseed",
                fault_plan=plan,
                heartbeat_seconds=0.1,
                liveness_seconds=0.5,
            ) as executor:
                async with Ingestor(executor, flush_events=256) as ingestor:
                    consumer = asyncio.create_task(collect(ingestor, got))
                    await ingestor.put_many(stream)
                    settled = await wait_until(
                        lambda: len(got) == len(expected), 10.0
                    )
                    await ingestor.close()
                    await consumer
                    return settled, got, ingestor.metrics

        settled, got, metrics = asyncio.run(main())
        assert [entry["action"] for entry in plan.log] == ["freeze"]
        assert settled, "the settle never delivered the healed matches"
        assert metrics.worker_crashes >= 1
        assert match_records(got) == expected


class TestDeadPump:
    def failing(self, planned, **kwargs):
        executor = pool(planned)
        ingestor = Ingestor(
            executor, max_pending=8, backpressure="block", **kwargs
        )

        def broken_feed(events, arrivals=None):
            time.sleep(0.05)  # long enough for the queue to refill
            raise RuntimeError("feed failed")

        ingestor._stream.feed = broken_feed
        return executor, ingestor

    def test_blocked_producer_is_woken_with_the_failure(self):
        stream = mixed_stream(317, count=100)
        planned = plans_for(KEYED, stream)

        async def main():
            executor, ingestor = self.failing(planned)
            with executor:
                with pytest.raises(RuntimeError, match="feed failed"):
                    async with ingestor:
                        # Times out (TimeoutError) if the producer stays
                        # parked on the full queue of a dead pump.
                        await asyncio.wait_for(
                            ingestor.put_many(stream), 3.0
                        )
                event = Event("A", 99.0, {"k": 1, "v": 0.5})
                for call in (
                    lambda: ingestor.put(event),
                    lambda: ingestor.put_many([event]),
                    ingestor.close,
                ):
                    with pytest.raises(RuntimeError, match="feed failed"):
                        await asyncio.wait_for(call(), 3.0)

        asyncio.run(main())

    def test_close_parked_on_a_full_queue_is_woken_too(self):
        stream = mixed_stream(319, count=9)
        planned = plans_for(KEYED, stream)

        async def main():
            executor, ingestor = self.failing(planned, flush_events=1)
            with executor:
                with pytest.raises(RuntimeError, match="feed failed"):
                    async with ingestor:
                        # The pump takes the first event into the doomed
                        # feed; the other eight fill the queue, so
                        # close() parks on it until the pump dies.
                        for event in stream:
                            await ingestor.put(event)
                        await asyncio.wait_for(ingestor.close(), 3.0)

        asyncio.run(main())


class TestPutMany:
    CHUNK = 37

    def ingest(self, policy, max_delay, chunked):
        stream = mixed_stream(331, count=300)
        events = list(stream)
        if max_delay:
            # Swap neighbours: disorder well inside the bound.
            for i in range(0, len(events) - 1, 2):
                events[i], events[i + 1] = events[i + 1], events[i]
        planned = plans_for(KEYED, stream)

        async def main():
            with pool(planned) as executor:
                # flush_events above the stream length: the producer
                # never yields on its own, which makes every counter
                # below a function of the input alone.
                async with Ingestor(
                    executor,
                    max_pending=8,
                    backpressure=policy,
                    flush_events=512,
                    max_delay=max_delay,
                ) as ingestor:
                    frames = spy_on_feed(ingestor)
                    accepted = 0
                    if chunked:
                        for start in range(0, len(events), self.CHUNK):
                            accepted += await ingestor.put_many(
                                events[start:start + self.CHUNK]
                            )
                    else:
                        for event in events:
                            accepted += await ingestor.put(event)
                    await ingestor.close()
                    return {
                        "accepted": accepted,
                        "shed": ingestor.shed,
                        "shed_at_release": ingestor.shed_at_release,
                        "blocked": ingestor.blocked,
                        "events_in": ingestor.events_in,
                        "fed": [seq for frame in frames for seq in frame],
                        "disorder_events": ingestor.disorder.events_processed,
                    }

        return asyncio.run(main())

    @pytest.mark.parametrize("max_delay", [0.0, 0.3])
    @pytest.mark.parametrize("policy", ["block", "shed"])
    def test_accounting_equals_the_put_sequence(self, policy, max_delay):
        one_by_one = self.ingest(policy, max_delay, chunked=False)
        chunked = self.ingest(policy, max_delay, chunked=True)
        assert chunked == one_by_one
        assert chunked["fed"] == list(range(chunked["events_in"]))
        # Ingestor.metrics adds the disorder counters to the engine's:
        # they must carry no events of their own.
        assert chunked["disorder_events"] == 0
        if policy == "block":
            assert chunked["accepted"] == chunked["events_in"] == 300
            assert chunked["blocked"] > 0 and chunked["shed"] == 0
        else:
            assert chunked["shed"] > 0 and chunked["blocked"] == 0
            assert (
                chunked["events_in"] + chunked["shed_at_release"]
                == chunked["accepted"]
            )
            if max_delay:
                assert chunked["shed_at_release"] > 0

    def test_concurrent_chunk_producers_get_consecutive_sequences(self):
        stream = mixed_stream(337, count=30)
        planned = plans_for(KEYED, stream)
        producers, chunks, size = 4, 5, 15

        async def main():
            with pool(planned) as executor:
                async with Ingestor(
                    executor, max_pending=8, flush_events=16
                ) as ingestor:
                    frames = spy_on_feed(ingestor)

                    async def produce(worker):
                        accepted = 0
                        for _ in range(chunks):
                            accepted += await ingestor.put_many(
                                Event("A", 1.0, {"k": worker, "v": 0.5})
                                for _ in range(size)
                            )
                        return accepted

                    accepted = await asyncio.wait_for(
                        asyncio.gather(*map(produce, range(producers))),
                        10.0,
                    )
                    await ingestor.close()
                    return accepted, frames

        accepted, frames = asyncio.run(main())
        total = producers * chunks * size
        assert sum(accepted) == total
        assert sorted(s for frame in frames for s in frame) == list(range(total))
