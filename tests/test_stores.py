"""Unit tests for the indexed partial-match stores (repro.engines.stores).

The equivalence guarantees live in test_store_equivalence.py; here we
pin down the mechanics: key extraction, bucket probing with trigger
bounds, watermark-gated expiry, tombstone removal, compaction, and the
degradation paths for unhashable / missing key attributes.
"""

from __future__ import annotations

import pytest

from repro.engines.buffers import VariableBuffer
from repro.engines.matches import PartialMatch
from repro.engines.metrics import EngineMetrics
from repro.engines.stores import (
    PartialMatchStore,
    equality_key_pairs,
    make_event_key_fn,
    make_key_fn,
)
from repro.events import Event
from repro.patterns.predicates import Attr, Comparison, Const, TimestampOrder


def ev(type_: str, ts: float, seq: int, **attrs) -> Event:
    return Event(type_, ts, attrs, seq=seq)


def pm_of(variable: str, event: Event) -> PartialMatch:
    return PartialMatch.singleton(variable, event)


class TestEqualityKeyPairs:
    def test_extracts_spanning_equality(self):
        preds = [
            Comparison(Attr("a", "x"), "=", Attr("b", "x")),
            Comparison(Attr("a", "y"), "<", Attr("b", "y")),
        ]
        left, right, extracted = equality_key_pairs(preds, ["a"], ["b"])
        assert left == (("a", "x"),)
        assert right == (("b", "x"),)

    def test_orientation_is_normalized(self):
        preds = [Comparison(Attr("b", "x"), "==", Attr("a", "x"))]
        left, right, extracted = equality_key_pairs(preds, ["a"], ["b"])
        assert left == (("a", "x"),)
        assert right == (("b", "x"),)

    def test_composite_keys_align(self):
        preds = [
            Comparison(Attr("a", "x"), "=", Attr("c", "x")),
            Comparison(Attr("c", "y"), "=", Attr("b", "y")),
        ]
        left, right, extracted = equality_key_pairs(preds, ["a", "b"], ["c"])
        assert len(extracted) == 2
        assert left == (("a", "x"), ("b", "y"))
        assert right == (("c", "x"), ("c", "y"))

    def test_excludes_const_theta_and_same_side_keeps_kleene(self):
        preds = [
            Comparison(Attr("a", "x"), "=", Attr("k", "x")),  # kleene: kept
            Comparison(Attr("a", "x"), "=", Const(3)),  # unary
            TimestampOrder("a", "b"),  # theta (op <)
            Comparison(Attr("a", "x"), "=", Attr("a2", "x")),  # same side
        ]
        left, right, extracted = equality_key_pairs(
            preds, ["a", "a2"], ["k", "b"], kleene=["k"]
        )
        # Kleene variables key on the common element value now; the
        # other three predicate shapes stay excluded.
        assert left == (("a", "x"),)
        assert right == (("k", "x"),)
        assert len(extracted) == 1

    def test_key_fns_resolve_bindings_and_events(self):
        key_of = make_key_fn((("a", "x"), ("b", "y")))
        a, b = ev("A", 1.0, 1, x=7), ev("B", 2.0, 2, y="s")
        assert key_of({"a": a, "b": b}) == (7, "s")
        ev_key = make_event_key_fn((("c", "x"),))
        assert ev_key(ev("C", 3.0, 3, x=9)) == (9,)
        assert make_key_fn(()) is None and make_event_key_fn(()) is None

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_key_fns_of_every_width_agree_with_the_spec(self, width):
        spec = (("a", "x"), ("b", "y"), ("a", "z"))[:width]
        a = ev("A", 1.0, 1, x=1, z=3)
        b = ev("B", 2.0, 2, y=2)
        bindings = {"a": a, "b": b}
        assert make_key_fn(spec)(bindings) == tuple(
            bindings[v][attr] for v, attr in spec
        )
        event = ev("C", 3.0, 3, x=1, y=2, z=3)
        assert make_event_key_fn(spec)(event) == (1, 2, 3)[:width]
        with pytest.raises(KeyError):
            make_key_fn(spec)({"a": ev("A", 0.0, 0), "b": b})


class TestPartialMatchStore:
    def make(self, metrics=None):
        store = PartialMatchStore(metrics)
        index = store.add_index(make_key_fn((("a", "x"),)))
        return store, index

    def test_probe_hits_one_bucket_with_trigger_bound(self):
        store, index = self.make()
        pms = [pm_of("a", ev("A", float(i), i, x=i % 2)) for i in range(6)]
        for pm in pms:
            store.insert(pm)
        # key x=0 -> seqs 0,2,4; trigger bound 4 keeps 0 and 2 only.
        got = list(store.probe(index, (0,), 4))
        assert [p.trigger_seq for p in got] == [0, 2]
        assert list(store.probe(index, (5,), 99)) == []

    def test_iter_before_uses_bisect_bound(self):
        store, _ = self.make()
        for i in range(5):
            store.insert(pm_of("a", ev("A", float(i), i, x=0)))
        assert [p.trigger_seq for p in store.iter_before(3)] == [0, 1, 2]

    def test_expiry_is_watermark_gated_and_counted(self):
        metrics = EngineMetrics()
        store, index = self.make(metrics)
        for i in range(4):
            store.insert(pm_of("a", ev("A", float(i), i, x=0)))
        assert store.expire(0.0) == 0  # watermark: nothing can expire
        assert metrics.pm_expired == 0
        assert store.expire(2.5) == 3  # min_ts 0,1,2 die
        assert metrics.pm_expired == 3
        assert len(store) == 1
        assert [p.trigger_seq for p in store.probe(index, (0,), 99)] == [3]

    def test_purge_seqs_tombstones_without_rebuild(self):
        store, index = self.make()
        pms = [pm_of("a", ev("A", float(i), i, x=0)) for i in range(4)]
        for pm in pms:
            store.insert(pm)
        assert store.purge_seqs(frozenset({1, 3})) == 2
        assert [p.trigger_seq for p in store] == [0, 2]
        assert [p.trigger_seq for p in store.probe(index, (0,), 99)] == [0, 2]
        assert len(store) == 2

    def test_discard_then_compaction_keeps_answers_right(self):
        store, index = self.make()
        pms = [pm_of("a", ev("A", float(i), i, x=0)) for i in range(200)]
        for pm in pms:
            store.insert(pm)
        for pm in pms[:150]:  # force compaction (dead > live, dead > 64)
            store.discard(pm)
        assert len(store) == 50
        assert [p.trigger_seq for p in store.probe(index, (0,), 175)] == list(
            range(150, 175)
        )

    def test_unhashable_store_key_lands_in_overflow(self):
        store, index = self.make()
        weird = pm_of("a", ev("A", 0.0, 0, x=[1, 2]))  # unhashable
        plain = pm_of("a", ev("A", 1.0, 1, x=5))
        store.insert(weird)
        store.insert(plain)
        # The overflow entry is visible to every probe of that index.
        assert list(store.probe(index, (5,), 99)) == [weird, plain]
        assert list(store.probe(index, (6,), 99)) == [weird]

    def test_missing_attr_entry_is_unreachable_via_index(self):
        store, index = self.make()
        store.insert(pm_of("a", ev("A", 0.0, 0)))  # no attribute x at all
        assert list(store.probe(index, (0,), 99)) == []
        assert len(store) == 1  # still live for scans and accounting

    def test_unhashable_probe_key_degrades_to_scan(self):
        metrics = EngineMetrics()
        store, index = self.make(metrics)
        store.insert(pm_of("a", ev("A", 0.0, 0, x=5)))
        assert list(store.probe(index, ([1],), 99)) == list(store)
        assert metrics.index_misses == 1

    def test_probe_metrics(self):
        metrics = EngineMetrics()
        store, index = self.make(metrics)
        store.insert(pm_of("a", ev("A", 0.0, 0, x=5)))
        list(store.probe(index, (5,), 99))
        list(store.probe(index, (6,), 99))
        assert metrics.index_probes == 2
        assert metrics.index_hits == 1
        assert metrics.index_misses == 1

    def test_indexes_must_precede_inserts(self):
        store = PartialMatchStore()
        store.insert(pm_of("a", ev("A", 0.0, 0, x=1)))
        with pytest.raises(ValueError):
            store.add_index(make_key_fn((("a", "x"),)))


class TestVariableBuffer:
    def test_remove_seq_is_a_tombstone(self):
        buffer = VariableBuffer("a", "A")
        for i in range(4):
            buffer.offer(ev("A", float(i), i))
        buffer.remove_seq(2)
        assert len(buffer) == 3
        assert [e.seq for e in buffer] == [0, 1, 3]
        assert [e.seq for e in buffer.events_before(3)] == [0, 1]

    def test_prune_drains_tombstones_and_expired(self):
        buffer = VariableBuffer("a", "A")
        for i in range(4):
            buffer.offer(ev("A", float(i), i))
        buffer.remove_seq(0)
        buffer.prune(1.5)  # drops seq 0 (dead) and seq 1 (expired)
        assert len(buffer) == 2
        assert [e.seq for e in buffer] == [2, 3]

    def test_indexed_probe_bucket_and_trigger_bound(self):
        metrics = EngineMetrics()
        buffer = VariableBuffer("a", "A", metrics=metrics)
        index = buffer.set_index(lambda e: (e["x"],))
        for i in range(6):
            buffer.offer(ev("A", float(i), i, x=i % 2))
        assert [e.seq for e in buffer.probe(index, (0,), 4)] == [0, 2]
        assert [e.seq for e in buffer.probe(index, (1,), 99)] == [1, 3, 5]
        assert list(buffer.probe(index, (7,), 99)) == []
        assert metrics.index_probes == 3
        assert metrics.index_hits == 2

    def test_probe_respects_prune_and_tombstones(self):
        buffer = VariableBuffer("a", "A")
        index = buffer.set_index(lambda e: (e["x"],))
        for i in range(6):
            buffer.offer(ev("A", float(i), i, x=0))
        buffer.remove_seq(3)
        buffer.prune(2.0)
        assert [e.seq for e in buffer.probe(index, (0,), 99)] == [2, 4, 5]

    def test_index_exact_flags_overflow(self):
        store = PartialMatchStore()
        index = store.add_index(make_key_fn((("a", "x"),)))
        store.insert(pm_of("a", ev("A", 0.0, 0, x=5)))
        assert store.index_exact(index)
        store.insert(pm_of("a", ev("A", 1.0, 1, x=[1])))  # unhashable
        assert not store.index_exact(index)
        buffer = VariableBuffer("a", "A")
        index = buffer.set_index(lambda e: (e["x"],))
        buffer.offer(ev("A", 0.0, 0, x=5))
        assert buffer.index_exact(index)
        buffer.offer(ev("A", 1.0, 1, x=[1]))
        assert not buffer.index_exact(index)

    def test_buffer_index_does_not_leak_unique_keys(self):
        # Regression: buckets of never-reprobed keys must be reclaimed
        # by pruning, not retained for the stream's lifetime.
        buffer = VariableBuffer("a", "A")
        buffer.set_index(lambda e: (e["x"],))
        for i in range(5000):
            buffer.offer(ev("A", float(i), i, x=i))
            buffer.prune(float(i) - 10.0)
        assert len(buffer) == 11
        assert len(buffer._buckets) < 200

    def test_duplicate_unassigned_seqs_count_per_copy(self):
        # The negation checker buffers events never admitted to a
        # stream; they all carry seq=-1 and must be counted per copy.
        buffer = VariableBuffer("n", "B")
        buffer.offer(ev("B", 1.0, -1))
        buffer.offer(ev("B", 8.0, -1))
        buffer.prune(5.0)
        assert len(buffer) == 1


class TestRangeKeyPairs:
    def test_extracts_spanning_theta(self):
        from repro.engines.stores import range_key_pairs

        preds = [
            Comparison(Attr("a", "x"), "=", Attr("b", "x")),
            Comparison(Attr("a", "y"), "<", Attr("b", "y")),
        ]
        spec = range_key_pairs(preds, ["a"], ["b"])
        left_item, left_op, right_item, right_op, predicate = spec
        assert left_item == ("a", "y") and left_op == "<"
        assert right_item == ("b", "y") and right_op == ">"
        assert predicate is preds[1]

    def test_orientation_flips_operator(self):
        from repro.engines.stores import range_key_pairs

        # b.y >= a.y with a on the left side: a stored left value L
        # matches a probe value P iff P >= L, i.e. L <= P.
        preds = [Comparison(Attr("b", "y"), ">=", Attr("a", "y"))]
        left_item, left_op, right_item, right_op, _ = range_key_pairs(
            preds, ["a"], ["b"]
        )
        assert left_item == ("a", "y") and left_op == "<="
        assert right_item == ("b", "y") and right_op == ">="

    def test_excludes_kleene_const_equality_and_unary(self):
        from repro.engines.stores import range_key_pairs

        preds = [
            Comparison(Attr("a", "x"), "=", Attr("b", "x")),  # equality
            Comparison(Attr("a", "x"), "<", Const(3)),  # const operand
            Comparison(Attr("k", "x"), "<", Attr("b", "x")),  # kleene
            Comparison(Attr("a", "x"), "<", Attr("a", "y")),  # same side
        ]
        assert range_key_pairs(preds, ["a", "k"], ["b"], kleene=["k"]) is None

    def test_first_usable_theta_wins(self):
        from repro.engines.stores import range_key_pairs

        preds = [
            Comparison(Attr("a", "y"), "<", Attr("b", "y")),
            Comparison(Attr("a", "z"), ">", Attr("b", "z")),
        ]
        spec = range_key_pairs(preds, ["a"], ["b"])
        assert spec[0] == ("a", "y")


class TestRangeProbes:
    def store_with_range(self, op="<", key=False):
        from repro.engines.stores import make_key_fn, make_value_fn

        metrics = EngineMetrics()
        store = PartialMatchStore(metrics)
        key_of = make_key_fn((("a", "k"),)) if key else None
        index = store.add_index(
            key_of, value_of=make_value_fn(("a", "v")), op=op
        )
        return store, index, metrics

    def insert(self, store, seq, v, ts=None, **extra):
        event = ev("A", ts if ts is not None else seq * 0.1, seq, v=v, **extra)
        pm = pm_of("a", event)
        store.insert(pm)
        return pm

    def test_bisect_selects_range_in_insertion_order(self):
        store, index, metrics = self.store_with_range(op="<")
        pms = [self.insert(store, seq, v)
               for seq, v in ((0, 5.0), (1, 1.0), (2, 3.0), (3, 2.0))]
        got = list(store.probe(index, (), trigger_seq=10, bound=3.0))
        # stored < 3.0 keeps v=1.0 (seq 1) and v=2.0 (seq 3), in
        # insertion order — never value order.
        assert got == [pms[1], pms[3]]
        assert metrics.range_probes == 1
        assert metrics.range_hits == 1

    def test_trigger_bound_applies_inside_range(self):
        store, index, _ = self.store_with_range(op="<")
        pms = [self.insert(store, seq, v) for seq, v in ((0, 1.0), (5, 2.0))]
        got = list(store.probe(index, (), trigger_seq=5, bound=9.9))
        assert got == [pms[0]]

    def test_operator_variants(self):
        from repro.engines.stores import make_value_fn

        values = (1.0, 2.0, 2.0, 3.0)
        expect = {
            "<": {1.0}, "<=": {1.0, 2.0}, ">": {3.0}, ">=": {2.0, 3.0},
        }
        for op, expected in expect.items():
            store, index, _ = self.store_with_range(op=op)
            for seq, v in enumerate(values):
                self.insert(store, seq, v)
            got = {
                pm.bindings["a"]["v"]
                for pm in store.probe(index, (), 99, bound=2.0)
            }
            assert got == expected, op

    def test_nan_and_missing_values_are_exactly_excluded(self):
        store, index, _ = self.store_with_range(op="<")
        good = self.insert(store, 0, 1.0)
        nan_pm = pm_of("a", ev("A", 0.1, 1, v=float("nan")))
        store.insert(nan_pm)
        missing = pm_of("a", ev("A", 0.2, 2))  # no "v" at all
        store.insert(missing)
        # NaN / missing can never satisfy the theta predicate — the
        # range path may drop them; the plain bucket path must not.
        assert list(store.probe(index, (), 99, bound=5.0)) == [good]
        assert len(list(store.probe(index, (), 99))) == 3

    def test_unorderable_stored_values_stay_probe_visible(self):
        store, index, metrics = self.store_with_range(op="<")
        a = self.insert(store, 0, 1.0)
        weird = pm_of("a", ev("A", 0.1, 1, v="str"))  # insort TypeError
        store.insert(weird)
        got = list(store.probe(index, (), 99, bound=0.5))
        # 1.0 < 0.5 fails the bisect; the unorderable entry must still
        # be yielded (the residual predicate rejects it exactly).
        assert got == [weird]

    def test_unorderable_bound_degrades_to_bucket_scan(self):
        store, index, metrics = self.store_with_range(op="<")
        pms = [self.insert(store, seq, float(seq)) for seq in range(3)]
        got = list(store.probe(index, (), 99, bound="zzz"))
        assert got == pms
        assert metrics.range_probes == 0  # no bisect was applied

    def test_hash_and_range_compose(self):
        store, index, metrics = self.store_with_range(op="<", key=True)
        in_bucket = pm_of("a", ev("A", 0.0, 0, k=1, v=1.0))
        other_bucket = pm_of("a", ev("A", 0.1, 1, k=2, v=1.0))
        too_big = pm_of("a", ev("A", 0.2, 2, k=1, v=9.0))
        for pm in (in_bucket, other_bucket, too_big):
            store.insert(pm)
        got = list(store.probe(index, (1,), 99, bound=5.0))
        assert got == [in_bucket]
        assert metrics.index_probes == 1 and metrics.index_hits == 1
        assert metrics.range_probes == 1

    def test_expiry_and_compaction_preserve_range_runs(self):
        store, index, _ = self.store_with_range(op="<")
        for seq in range(200):
            self.insert(store, seq, float(seq % 7), ts=seq * 0.1)
        store.expire(cutoff=10.0)  # first 100 entries die
        got = list(store.probe(index, (), 10_000, bound=1.0))
        assert {pm.bindings["a"]["v"] for pm in got} == {0.0}
        assert all(pm.min_ts >= 10.0 for pm in got)
        assert [pm.trigger_seq for pm in got] == sorted(
            pm.trigger_seq for pm in got
        )

    def test_range_hits_counts_probes_with_candidates(self):
        store, index, metrics = self.store_with_range(op="<")
        self.insert(store, 0, 5.0)
        list(store.probe(index, (), 99, bound=1.0))  # empty
        list(store.probe(index, (), 99, bound=9.0))  # one candidate
        assert metrics.range_probes == 2
        assert metrics.range_hits == 1


class TestBufferRangeProbes:
    def buffer_with_range(self, op="<", key=False):
        metrics = EngineMetrics()
        buffer = VariableBuffer("b", "B", metrics=metrics)
        key_of = (lambda e: (e["k"],)) if key else None
        self.index = buffer.set_index(key_of, value_of=lambda e: e["v"], op=op)
        return buffer, metrics

    def test_bisect_selects_range_in_seq_order(self):
        buffer, metrics = self.buffer_with_range(op=">")
        events = [
            ev("B", 0.1, 0, v=5.0),
            ev("B", 0.2, 1, v=1.0),
            ev("B", 0.3, 2, v=7.0),
        ]
        for event in events:
            buffer.offer(event)
        got = list(buffer.probe(self.index, (), trigger_seq=10, bound=4.0))
        assert got == [events[0], events[2]]  # seq order, not value order
        assert metrics.range_probes == 1 and metrics.range_hits == 1

    def test_pruned_and_consumed_events_filtered(self):
        buffer, _ = self.buffer_with_range(op="<")
        events = [ev("B", 0.1 * i, i, v=float(i)) for i in range(6)]
        for event in events:
            buffer.offer(event)
        buffer.remove_seq(2)
        buffer.prune(0.15)  # seqs 0 and 1 (ts 0.0, 0.1) expire
        got = list(buffer.probe(self.index, (), trigger_seq=10, bound=99.0))
        assert [e.seq for e in got] == [3, 4, 5]

    def test_hash_and_range_compose_on_buffers(self):
        buffer, _ = self.buffer_with_range(op="<", key=True)
        inside = ev("B", 0.1, 0, k=1, v=1.0)
        wrong_key = ev("B", 0.2, 1, k=2, v=1.0)
        too_big = ev("B", 0.3, 2, k=1, v=9.0)
        for event in (inside, wrong_key, too_big):
            buffer.offer(event)
        assert list(buffer.probe(self.index, (1,), 99, bound=5.0)) == [inside]

    def test_range_runs_do_not_leak_under_unbounded_probes(self):
        """Regression: with every probe taking the non-range path
        (``bound=NO_BOUND``, e.g. a predicate with no usable range
        bound), the probe-time prefix-trim shrinks ``_indexed_total``
        and used to mask the sorted runs' staleness forever — the runs
        grew with the whole stream."""
        from repro.engines.stores import NO_BOUND

        buffer, _ = self.buffer_with_range(op="<")
        for i in range(5000):
            buffer.offer(ev("B", 0.001 * i, i, v=float(i % 10)))
            buffer.prune(0.001 * i - 0.05)  # ~50-event window
            # Non-range probe: trims the bucket prefix, not the runs.
            list(buffer.probe(self.index, (), trigger_seq=i, bound=NO_BOUND))
        run_entries = sum(
            len(bucket.rvals) + len(bucket.runordered)
            for bucket in buffer._buckets.values()
        )
        assert run_entries < 4 * len(buffer) + 256, (
            f"{run_entries} run entries against {len(buffer)} live events"
        )


class TestBucketSweep:
    """Per-bucket tombstone sweeps (probe-time, physical-only)."""

    def make(self):
        store = PartialMatchStore()
        index = store.add_index(make_key_fn((("a", "x"),)))
        return store, index

    def bucket(self, store, index, key):
        return store._indexes[index].buckets[key]

    def fill(self, store, count, key=0):
        pms = [
            pm_of("a", ev("A", float(i), i, x=key)) for i in range(count)
        ]
        for pm in pms:
            store.insert(pm)
        return pms

    def test_expiry_counts_dead_per_bucket_and_probe_sweeps(self):
        store, index = self.make()
        pms = self.fill(store, 20)
        # Expire 12 (>= _BUCKET_MIN_DEAD and at least half the bucket)
        # but stay far below the global compaction threshold of 64.
        store.expire(12.0)
        bucket = self.bucket(store, index, (0,))
        assert bucket.dead == 12
        assert len(bucket.pms) == 20  # tombstoned, not yet removed
        got = list(store.probe(index, (0,), 99))
        assert got == pms[12:]  # answers unchanged by the sweep...
        assert len(bucket.pms) == 8  # ...but the tombstones are gone
        assert bucket.dead == 0

    def test_small_dead_counts_do_not_trigger_a_sweep(self):
        store, index = self.make()
        pms = self.fill(store, 20)
        for pm in pms[:5]:  # below _BUCKET_MIN_DEAD
            store.discard(pm)
        list(store.probe(index, (0,), 99))
        bucket = self.bucket(store, index, (0,))
        assert len(bucket.pms) == 20 and bucket.dead == 5

    def test_unprobed_buckets_keep_their_tombstones(self):
        store, index = self.make()
        hot = self.fill(store, 20, key=0)
        cold = [
            pm_of("a", ev("A", float(i), 100 + i, x=1)) for i in range(20)
        ]
        for pm in cold:
            store.insert(pm)
        for pm in hot[:12] + cold[:12]:
            store.discard(pm)
        list(store.probe(index, (0,), 999))
        assert len(self.bucket(store, index, (0,)).pms) == 8
        # The cold bucket was never probed: sweep cost is only ever
        # paid by the keys that are actually hot.
        assert len(self.bucket(store, index, (1,)).pms) == 20
        assert self.bucket(store, index, (1,)).dead == 12

    def test_sweep_preserves_range_runs(self):
        from repro.engines.stores import make_value_fn

        store = PartialMatchStore()
        index = store.add_index(
            make_key_fn((("a", "x"),)),
            value_of=make_value_fn(("a", "v")),
            op="<",
        )
        pms = [
            pm_of("a", ev("A", float(i), i, x=0, v=float(i % 7)))
            for i in range(20)
        ]
        for pm in pms:
            store.insert(pm)
        for pm in pms[:12]:
            store.discard(pm)
        expected = [
            pm for pm in pms[12:] if pm.bindings["a"]["v"] < 4.0
        ]
        got = list(store.probe(index, (0,), 999, bound=4.0))
        assert got == expected
        bucket = store._indexes[index].buckets[(0,)]
        assert len(bucket.pms) == 8 and len(bucket.rvals) == 8
        # A second probe after the sweep answers identically.
        assert list(store.probe(index, (0,), 999, bound=4.0)) == expected

    def test_purge_seqs_feeds_the_bucket_counters(self):
        store, index = self.make()
        self.fill(store, 20)
        store.purge_seqs(frozenset(range(10)))
        assert self.bucket(store, index, (0,)).dead == 10


class TestStoreModel:
    """Randomized store operations checked step by step against a
    plain-list model: every candidate list (content and order) and
    ``len()`` must match, through expiry, discards, purges, bucket
    sweeps and compactions."""

    NAN = float("nan")

    def make(self):
        from repro.engines.stores import make_value_fn

        store = PartialMatchStore(EngineMetrics())
        key_of = make_key_fn((("a", "k"),))
        value_of = make_value_fn(("a", "v"))
        handles = {
            "hash": store.add_index(key_of),
            "hash_range": store.add_index(key_of, value_of=value_of, op="<"),
            "range": store.add_index(None, value_of=value_of, op=">="),
        }
        return store, handles

    def random_event(self, rng, seq, ts):
        attrs = {}
        k = rng.choice((0, 1, 2, 3, "nan", "list", "missing"))
        if k == "nan":
            attrs["k"] = self.NAN if rng.random() < 0.5 else float("nan")
        elif k == "list":
            attrs["k"] = [1]  # unhashable: overflow
        elif k != "missing":
            attrs["k"] = k
        v = rng.choice(("num", "num", "num", "nan", "missing"))
        if v == "num":
            attrs["v"] = float(rng.randrange(6))
        elif v == "nan":
            attrs["v"] = float("nan")
        return ev("A", ts, seq, **attrs)

    @staticmethod
    def key_matches(stored, probe) -> bool:
        """Dict-lookup semantics: identity first, then equality."""
        return stored is probe or stored == probe

    def expected_probe(self, model, handle, key, trigger_seq, bound):
        from repro.engines.stores import NO_BOUND

        live = [
            pm for pm, alive in model if alive and pm.trigger_seq < trigger_seq
        ]
        if handle == "range":
            keyed = live
        else:
            try:
                hash(key)
            except TypeError:  # unhashable probe key: plain scan
                return live
            keyed = []
            for pm in live:
                attrs = pm.bindings["a"]
                if "k" not in attrs:
                    continue  # unreachable through the index
                stored = attrs["k"]
                try:
                    hash(stored)
                except TypeError:
                    keyed.append(pm)  # overflow: visible to every probe
                    continue
                if self.key_matches(stored, key[0]):
                    keyed.append(pm)
        if handle == "hash" or bound is NO_BOUND:
            return keyed
        op = "<" if handle == "hash_range" else ">="
        out = []
        for pm in keyed:
            attrs = pm.bindings["a"]
            if handle == "hash_range" and isinstance(attrs.get("k"), list):
                out.append(pm)  # overflow stays a conservative candidate
                continue
            value = attrs.get("v")
            if value is None or value != value:
                continue
            if (value < bound) if op == "<" else (value >= bound):
                out.append(pm)
        return out

    @pytest.mark.parametrize("seed", range(8))
    def test_random_operations_match_list_model(self, seed):
        import random

        from repro.engines.stores import NO_BOUND

        rng = random.Random(seed)
        store, handles = self.make()
        model = []  # [pm, alive] in insertion order
        seq, clock, cutoff = 0, 0.0, float("-inf")
        compactions = 0
        for _ in range(900):
            before = len(store._pms)
            op = rng.choices(
                ("insert", "expire", "discard", "purge", "probe", "before"),
                (10, 2, 2, 1, 4, 1),
            )[0]
            if op == "insert":
                clock += rng.uniform(0.0, 1.0)
                # min_ts jitters below the clock, so the expiry run's
                # order differs from insertion order.
                event = self.random_event(rng, seq, clock - rng.uniform(0, 3))
                pm = pm_of("a", event)
                store.insert(pm)
                model.append([pm, True])
                seq += 1
            elif op == "expire":
                cutoff = max(cutoff, clock - rng.uniform(2.0, 12.0))
                died = sum(
                    1 for entry in model if entry[1] and entry[0].min_ts < cutoff
                )
                for entry in model:
                    if entry[0].min_ts < cutoff:
                        entry[1] = False
                assert store.expire(cutoff) == died
            elif op == "discard" and model:
                entry = rng.choice(model)
                entry[1] = False
                store.discard(entry[0])
            elif op == "purge" and seq:
                seqs = frozenset(rng.sample(range(seq), k=min(seq, 5)))
                died = 0
                for entry in model:
                    if entry[1] and entry[0].trigger_seq in seqs:
                        entry[1] = False
                        died += 1
                assert store.purge_seqs(seqs) == died
            elif op == "probe":
                name = rng.choice(sorted(handles))
                if name == "range":
                    key = ()
                else:
                    key = (rng.choice((0, 1, 2, 3, 9, self.NAN, [1])),)
                trigger_seq = rng.randrange(seq + 2)
                bound = rng.choice((NO_BOUND, 0.0, 2.5, 3.0, 6.0))
                got = list(
                    store.probe(handles[name], key, trigger_seq, bound)
                )
                assert got == self.expected_probe(
                    model, name, key, trigger_seq, bound
                ), (name, key, trigger_seq, bound)
            elif op == "before":
                trigger_seq = rng.randrange(seq + 2)
                assert list(store.iter_before(trigger_seq)) == [
                    pm for pm, alive in model
                    if alive and pm.trigger_seq < trigger_seq
                ]
            live = [pm for pm, alive in model if alive]
            assert len(store) == len(live)
            assert list(store) == live
            compactions += len(store._pms) < before
        assert compactions, "the run never compacted"

    def test_unique_keys_do_not_leak(self):
        # Store twin of the buffer regression: with a unique key per
        # entry under window expiry, buckets and runs stay O(live).
        from repro.engines.stores import make_value_fn

        store = PartialMatchStore()
        store.add_index(make_key_fn((("a", "x"),)))
        store.add_index(
            make_key_fn((("a", "x"),)),
            value_of=make_value_fn(("a", "x")),
            op="<",
        )
        for i in range(5000):
            store.insert(pm_of("a", ev("A", float(i), i, x=i)))
            store.expire(float(i) - 10.0)
        assert len(store) == 11
        assert len(store._pms) < 200 and len(store._exp_pms) < 200
        for index in store._indexes:
            assert len(index.buckets) < 200
            assert sum(len(b.pms) for b in index.buckets.values()) < 200

    def test_an_entry_belongs_to_one_store(self):
        first, second = PartialMatchStore(), PartialMatchStore()
        pm = pm_of("a", ev("A", 0.0, 0, x=1))
        first.insert(pm)
        with pytest.raises(ValueError):
            second.insert(pm)
        first.discard(pm)
        with pytest.raises(ValueError):
            second.insert(pm)  # a dead entry is not reusable either


class TestStoreCycles:
    """Store entries hold keys, never store structures: with the cyclic
    collector off, deleting an engine must leave the same garbage
    whatever the stream length — no entry↔bucket reference cycles that
    grow with the data."""

    @staticmethod
    def keyed_stream(count: int, seed: int):
        import random

        from repro.events import Stream

        rng = random.Random(seed)
        events, t = [], 0.0
        for _ in range(count):
            t += rng.expovariate(50.0)
            name = rng.choices("ABC", (0.27, 0.33, 0.40))[0]
            events.append(
                Event(name, t, {"k": rng.randrange(50), "v": rng.random()})
            )
        return Stream(events)

    @pytest.mark.parametrize("runtime", ["nfa", "dag"])
    def test_garbage_does_not_grow_with_the_stream(self, runtime):
        import dataclasses
        import gc

        from repro import estimate_pattern_catalog, parse_pattern, plan_pattern
        from repro.engines import build_engines
        from repro.plans import TreePlan

        pattern = parse_pattern(
            "PATTERN SEQ(A a, B b, C c) WHERE a.k = b.k AND b.k = c.k "
            "WITHIN 4"
        )
        catalog = estimate_pattern_catalog(pattern, self.keyed_stream(1000, 0))
        planned = plan_pattern(pattern, catalog, algorithm="TRIVIAL")
        if runtime == "dag":
            planned = [
                dataclasses.replace(item, plan=TreePlan.left_deep(item.plan))
                for item in planned
            ]
        counts = []
        for count in (1000, 4000):
            stream = self.keyed_stream(count, 1)
            gc.collect()
            gc.disable()
            try:
                engine = build_engines(planned)
                assert engine.run(stream)
                del engine
                counts.append(gc.collect())
            finally:
                gc.enable()
        assert counts[0] == counts[1], counts
