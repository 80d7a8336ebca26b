"""Indexed partial-match stores: the shared storage layer of all runtimes.

Every join the engines perform — tree-node pairings, the NFA's buffer
scans and state probes, and the multi-query DAG's shared-node pairings,
all reached through :mod:`repro.engines.access` — used to be a
nested-loop scan over a plain ``list[PartialMatch]``, re-filtered and
fully rebuilt on every event.
The paper's cost models (Section 4) count partial matches; on the
hardware it is the *per-pair* work that caps throughput.  This module
makes the per-pair work proportional to the candidates that can actually
merge, following the indexed per-relation delta stores of Idris et al.
("Conjunctive Queries with Theta Joins Under Updates") and Dossinger &
Michel ("Optimizing Multiple Multi-Way Stream Joins"):

**Hash partitioning on equality cross-predicates.**  At plan-build time
:func:`equality_key_pairs` extracts the ``Attr == Attr`` comparisons
spanning a join's two sides and :func:`make_key_fn` compiles each side
into a key function.  A store then keeps, besides its insertion-ordered
primary run, one hash index per registered prober: probing touches one
bucket instead of the whole store.  Indexing is a pure *access path*:
the extracted equality predicates stay in the residual predicate list,
so any index corner case (``NaN`` identity in dict lookups, unhashable
attribute values, missing attributes) degrades to a slower scan or an
extra cheap re-check — never to a different match set.

**Watermark-gated, binary-search window expiry.**  The store maintains
a parallel run sorted by ``min_ts`` (a partial match expires exactly
when its earliest constituent leaves the window).  All stores and
buffers of one engine share a :class:`Holdings` tally, so per-event
expiry is one comparison of the engine's cutoff against the tally's
watermark — however many stores the engine has — until something can
actually expire; then a ``bisect`` per store locates the dead prefix,
which is dropped wholesale.  The tally's live counts likewise spare
the per-event peak sampling a sum over every structure.

**Ordered ``trigger_seq`` iteration.**  Partial matches are inserted
while processing their trigger event, so the primary run and every
bucket are automatically sorted by ``trigger_seq``.  The strictly-
earlier-trigger discipline (see :mod:`repro.engines.matches`) therefore
becomes a ``bisect`` range bound rather than a per-element ``if``.

Removal (window expiry from the sorted run, consumed-event purges,
restrictive-strategy instance drops) is tombstone-based.  Each entry
carries its own liveness in :attr:`PartialMatch.home`: the bucket key it
was filed under in every index, set at insert and cleared to ``False``
when it dies.  Iteration skips dead entries by reading that slot, and
the stored keys say which buckets each death is charged to — no key or
theta value is recomputed after insert.  Reclaim runs at two
granularities: a store-wide compaction once tombstones outnumber live
entries, which filters every run and bucket in place (insertion serials
keep their relative order, so nothing is re-filed) and drops emptied
buckets; and a **per-bucket sweep** — a probe that finds its bucket at
least half dead filters that one bucket in place.  The sweep is what
keeps long-lived service sessions flat: a hot key whose entries
continually expire pays its probe cost on the live entries, not on the
accumulated history.

Leaf stores remain the cost-model buffers: a tree leaf contributes
``PM(l) = W * r_i`` (Section 4.2), and that accounting is unchanged —
the store only changes *how* those instances are probed and expired,
never which instances are live.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from ..patterns.predicates import Attr, Comparison, Predicate, TimestampOrder
from .matches import PartialMatch
from .metrics import EngineMetrics

#: ``(variable, attribute)`` pairs making up one side of a composite key.
KeySpec = Tuple[Tuple[str, str], ...]

#: Compiled key function: bindings -> hashable composite key.  May raise
#: ``KeyError`` (missing attribute) or ``TypeError`` (unhashable value);
#: callers fall back to a scan, which the residual predicates make exact.
KeyFn = Callable[[dict], tuple]

_EQUALITY_OPS = ("=", "==")
#: Operators a sorted-run range index supports (shared with buffers).
RANGE_OPS = ("<", "<=", ">", ">=")
#: Direction flip when the stored side moves to the other end of the
#: comparison: ``stored < probe``  ⇔  ``probe > stored``.
_RANGE_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: No range constraint for this probe (distinct from a legitimate None
#: attribute value).
NO_BOUND = object()
#: The probe-side theta value can never satisfy the predicate (missing
#: attribute or NaN): the probe has zero candidates, exactly.
EMPTY_RANGE = object()

#: Compaction triggers once this many tombstones accumulate *and* they
#: outnumber the live entries — O(n) reclaim, amortized O(1) per removal.
_COMPACT_MIN_DEAD = 64


class Holdings:
    """Live store entries, pending matches and buffered events of one
    engine, and ``oldest``, a lower bound on the timestamps held: inserts
    and offers lower it, a sweep resets it before each ``expire``/
    ``prune`` reports its oldest survivor."""

    __slots__ = ("partial_matches", "pending", "events", "oldest")

    def __init__(self) -> None:
        self.partial_matches = 0
        self.pending = 0
        self.events = 0
        self.oldest = float("inf")


def equality_key_pairs(
    predicates: Iterable[Predicate],
    left_vars: Iterable[str],
    right_vars: Iterable[str],
    kleene: Iterable[str] = (),
) -> Tuple[KeySpec, KeySpec, Tuple[Predicate, ...]]:
    """Split a join's cross-predicates into aligned equi-key specs.

    Returns ``(left_spec, right_spec, extracted)``: position-aligned
    ``(variable, attribute)`` tuples such that two partial matches can
    merge only if their composite keys compare equal, plus the predicate
    objects the specs encode (callers may skip re-evaluating them on
    bucket candidates — exact provided the probe key passed
    :func:`key_is_reflexive`).  Only plain ``Attr == Attr`` comparisons
    spanning the two sides qualify.  Kleene variables participate too:
    a Kleene binding keys on the *common* element value
    (:func:`kleene_key_value` — universal equality holds against a probe
    value iff every element equals it), with empty tuples kept
    probe-visible in the overflow and disagreeing/NaN tuples unreachable
    — both dispositions exact, see :func:`kleene_key_value`.  Pass the
    spec's Kleene names to :func:`make_key_fn` to get that handling.
    Empty specs mean the join has no usable equality and probes fall
    back to a linear scan.
    """
    left_set = set(left_vars)
    right_set = set(right_vars)
    left_spec: List[Tuple[str, str]] = []
    right_spec: List[Tuple[str, str]] = []
    extracted: List[Predicate] = []
    for predicate in predicates:
        if not isinstance(predicate, Comparison):
            continue
        if predicate.op not in _EQUALITY_OPS:
            continue
        lhs, rhs = predicate.left, predicate.right
        if not (isinstance(lhs, Attr) and isinstance(rhs, Attr)):
            continue
        if lhs.variable in left_set and rhs.variable in right_set:
            left_spec.append((lhs.variable, lhs.attribute))
            right_spec.append((rhs.variable, rhs.attribute))
        elif lhs.variable in right_set and rhs.variable in left_set:
            left_spec.append((rhs.variable, rhs.attribute))
            right_spec.append((lhs.variable, lhs.attribute))
        else:
            continue
        extracted.append(predicate)
    return tuple(left_spec), tuple(right_spec), tuple(extracted)


def key_is_reflexive(key: tuple) -> bool:
    """True when every key element equals itself.

    Guards the bucket-implies-equality shortcut: container lookups use
    an identity-then-``==`` comparison, so a non-reflexive element (NaN)
    could hit a bucket whose stored key is the same object even though
    the equality predicate is False.  Non-reflexive probe keys must fall
    back to a scan with the full predicate set.
    """
    for value in key:
        if value != value:
            return False
    return True


def probe_key(key_of, subject) -> Optional[tuple]:
    """Compute a probe key, or None when the caller must fall back to a
    linear scan with the full predicate set.

    The single guard used by every runtime's probe path: a missing
    attribute (KeyError) or unhashable value (TypeError) cannot be
    looked up, and a non-reflexive key (NaN, see
    :func:`key_is_reflexive`) would make bucket hits untrustworthy.
    """
    try:
        key = key_of(subject)
        hash(key)
    except (KeyError, TypeError):
        return None
    return key if key_is_reflexive(key) else None


def kleene_key_value(binding: tuple, attribute: str):
    """Common attribute value of a Kleene tuple binding.

    Universal equality (``k.attr == probe`` for every element of ``k``)
    holds iff all elements share one value and that value equals the
    probe — so the common value *is* the entry's equi-key.  The failure
    modes raise exactly the exceptions the index layer already maps to
    the correct disposition:

    * empty tuple → ``TypeError``: vacuously true against every probe,
      so the entry must stay probe-visible (``_Index.add`` overflow;
      :func:`probe_key` scan fallback);
    * element disagreement or NaN → ``KeyError``: universal equality is
      False against every probe, so the entry is unreachable through
      the index (``_Index.add`` skips it) and a probe falls back to an
      exact scan.
    """
    if not binding:
        raise TypeError("empty Kleene binding matches vacuously")
    value = binding[0][attribute]
    if value != value:  # NaN: equality is False against everything
        raise KeyError(attribute)
    for event in binding[1:]:
        if event[attribute] != value:
            raise KeyError(attribute)
    return value


def make_key_fn(spec: KeySpec, kleene: Iterable[str] = ()) -> Optional[KeyFn]:
    """Compile a key spec into ``bindings -> tuple`` (None when empty).

    Variables named in ``kleene`` bind tuples of events; their key
    element is the tuple's common value (:func:`kleene_key_value`).
    """
    if not spec:
        return None
    kleene_set = frozenset(kleene)
    if not any(variable in kleene_set for variable, _ in spec):
        # One- and two-item keys (nearly every plan) skip the generator.
        if len(spec) == 1:
            ((v0, a0),) = spec
            return lambda bindings: (bindings[v0][a0],)
        if len(spec) == 2:
            (v0, a0), (v1, a1) = spec
            return lambda bindings: (bindings[v0][a0], bindings[v1][a1])
        return lambda bindings: tuple(bindings[v][a] for v, a in spec)
    items = tuple(
        (variable, attr, variable in kleene_set) for variable, attr in spec
    )

    def key_of(bindings: dict, _items=items) -> tuple:
        out = []
        for variable, attr, is_kleene in _items:
            binding = bindings[variable]
            if is_kleene:
                out.append(kleene_key_value(binding, attr))
            else:
                out.append(binding[attr])
        return tuple(out)

    return key_of


def make_event_key_fn(spec: KeySpec) -> Optional[Callable[[object], tuple]]:
    """Key function over a single event (the attribute side of a spec)."""
    if not spec:
        return None
    attrs = tuple(attr for _, attr in spec)
    if len(attrs) == 1:
        (a0,) = attrs
        return lambda event: (event[a0],)
    if len(attrs) == 2:
        a0, a1 = attrs
        return lambda event: (event[a0], event[a1])
    return lambda event: tuple(event[a] for a in attrs)


#: One extracted theta access path: ``(left_item, left_op, right_item,
#: right_op, predicate)``.  ``left_item``/``right_item`` are the
#: ``(variable, attribute)`` operands on each join side; ``left_op`` is
#: the comparison a *stored left-side value* must satisfy against a
#: right-side probe value (``stored left_op probe``), ``right_op`` the
#: mirror for the right store.
RangeSpec = Tuple[Tuple[str, str], str, Tuple[str, str], str, Predicate]


def range_key_pairs(
    predicates: Iterable[Predicate],
    left_vars: Iterable[str],
    right_vars: Iterable[str],
    kleene: Iterable[str] = (),
) -> Optional[RangeSpec]:
    """Pick the first order-based (``< <= > >=``) cross-predicate.

    Mirrors :func:`equality_key_pairs` for theta joins, following the
    order-based delta access paths of Idris et al. ("Conjunctive
    Queries with Theta Joins Under Updates"): the returned spec lets
    each side keep a value-sorted run so the other side's probes become
    bisect ranges.  The range is a *candidate filter only* — the
    predicate stays in the residual list, so every corner case (NaN,
    missing attributes, unorderable values) degrades to a scan or an
    empty-but-exact candidate set, never to a different match set.
    Only one predicate is extracted (a sorted run supports one
    dimension); additional thetas stay residual.  Kleene variables are
    excluded exactly as for equality keys.  Explicit payload
    comparisons are preferred over the implied SEQ timestamp orderings
    (typically far more selective; the orderings remain a usable
    fallback — the stream being timestamp-ordered makes them cheap
    prefix bisects).
    """
    explicit = [
        p for p in predicates if not isinstance(p, TimestampOrder)
    ]
    implied = [p for p in predicates if isinstance(p, TimestampOrder)]
    left_set = set(left_vars)
    right_set = set(right_vars)
    kleene_set = set(kleene)
    for predicate in explicit + implied:
        if not isinstance(predicate, Comparison):
            continue
        if predicate.op not in RANGE_OPS:
            continue
        lhs, rhs = predicate.left, predicate.right
        if not (isinstance(lhs, Attr) and isinstance(rhs, Attr)):
            continue
        if lhs.variable in kleene_set or rhs.variable in kleene_set:
            continue
        if lhs.variable == rhs.variable:
            continue
        if lhs.variable in left_set and rhs.variable in right_set:
            # lhs OP rhs with lhs stored left: stored OP probe on the
            # left store; probe OP stored — i.e. stored FLIP(OP) probe —
            # on the right store.
            return (
                (lhs.variable, lhs.attribute),
                predicate.op,
                (rhs.variable, rhs.attribute),
                _RANGE_FLIP[predicate.op],
                predicate,
            )
        if lhs.variable in right_set and rhs.variable in left_set:
            return (
                (rhs.variable, rhs.attribute),
                _RANGE_FLIP[predicate.op],
                (lhs.variable, lhs.attribute),
                predicate.op,
                predicate,
            )
    return None


def make_value_fn(item: Tuple[str, str]) -> Callable[[dict], object]:
    """Single-attribute accessor over bindings (theta run / probe value)."""
    variable, attribute = item

    def value_of(bindings: dict, _v=variable, _a=attribute):
        return bindings[_v][_a]

    return value_of


def make_event_value_fn(item: Tuple[str, str]) -> Callable[[object], object]:
    """Single-attribute accessor over a bare event."""
    attribute = item[1]

    def value_of(event, _a=attribute):
        return event[_a]

    return value_of


def nan_like(value) -> bool:
    """True for values unequal to themselves (NaN): every order
    comparison against them is False, so sorted runs and range probes
    may exclude them exactly."""
    try:
        return bool(value != value)
    except TypeError:
        return False


def range_probe_value(value_of, subject):
    """Probe-side theta value, :data:`EMPTY_RANGE` when it cannot match.

    A missing attribute (KeyError) or NaN probe value makes the
    extracted comparison False against *every* stored entry — and the
    predicate is always still in the caller's residual list — so an
    empty candidate set is exact, not an approximation.
    """
    try:
        value = value_of(subject)
    except KeyError:
        return EMPTY_RANGE
    if nan_like(value):  # NaN never satisfies an order comparison
        return EMPTY_RANGE
    return value


def range_slice(values: list, op: str, bound) -> Tuple[int, int]:
    """Index range of stored values satisfying ``stored op bound``.

    Raises TypeError when ``bound`` is unorderable against the run —
    callers degrade to the full bucket scan.
    """
    if op == "<":
        return 0, bisect_left(values, bound)
    if op == "<=":
        return 0, bisect_right(values, bound)
    if op == ">":
        return bisect_right(values, bound), len(values)
    return bisect_left(values, bound), len(values)


#: Per-bucket sweep trigger: at least this many tombstones *and* at
#: least half the bucket dead.  Small because the point is probe cost —
#: a hot bucket is rescanned on every probe, so its dead fraction is
#: paid over and over, unlike the primary run's.
_BUCKET_MIN_DEAD = 8


class _Bucket:
    """One hash bucket: trigger-ordered entries plus an optional
    value-sorted run for the index's theta predicate."""

    __slots__ = ("pms", "trigs", "rvals", "rentries", "runordered", "dead")

    def __init__(self, ranged: bool) -> None:
        self.pms: List[PartialMatch] = []
        self.trigs: List[int] = []
        # Parallel sorted run: rvals[i] is the theta value of rentries[i]
        # = (insertion_serial, pm).  Entries whose value cannot be
        # ordered into the run sit in runordered and join every range
        # probe's candidate set (conservative, never lossy).
        self.rvals: Optional[list] = [] if ranged else None
        self.rentries: Optional[list] = [] if ranged else None
        self.runordered: Optional[list] = [] if ranged else None
        # Tombstones known to sit in this bucket (window expiry,
        # discards, purges); once enough accumulate the next probe
        # sweeps them out physically instead of skipping them forever.
        self.dead = 0

    def sweep(self) -> None:
        """Physically drop the bucket's tombstones; live entries, their
        order and every probe's candidate set are unchanged.  Lists are
        replaced, not mutated, so an iterator over a slice keeps it."""
        self.pms = keep = [pm for pm in self.pms if pm.home is not False]
        self.trigs = [pm.trigger_seq for pm in keep]
        if self.rvals is not None:
            kept = [
                (value, entry)
                for value, entry in zip(self.rvals, self.rentries)
                if entry[1].home is not False
            ]
            self.rvals = [value for value, _ in kept]
            self.rentries = [entry for _, entry in kept]
            self.runordered = [
                entry for entry in self.runordered if entry[1].home is not False
            ]
        self.dead = 0


class _Index:
    """One access path over a store: hash buckets (``key_of``), an
    optional per-bucket sorted theta run (``value_of``/``op``), or both
    composed (bucket first, bisect within).  ``key_of=None`` keeps one
    implicit bucket — a pure range index."""

    __slots__ = ("key_of", "value_of", "op", "buckets",
                 "overflow", "overflow_trigs", "overflow_ins")

    def __init__(
        self,
        key_of: Optional[KeyFn],
        value_of: Optional[Callable[[dict], object]] = None,
        op: Optional[str] = None,
    ) -> None:
        if key_of is None and value_of is None:
            raise ValueError("an index needs a key function, a range, or both")
        if value_of is not None and op not in RANGE_OPS:
            raise ValueError(f"range index needs an op in {RANGE_OPS}")
        self.key_of = key_of
        self.value_of = value_of
        self.op = op
        self.buckets: dict = {}
        # Entries whose key could not be hashed; scanned on every probe.
        self.overflow: List[PartialMatch] = []
        self.overflow_trigs: List[int] = []
        self.overflow_ins: List[int] = []

    def add(self, pm: PartialMatch, ins: int) -> Optional[tuple]:
        """File ``pm`` under its key; returns that key, or None when the
        entry has no bucket (missing attribute, unhashable overflow)."""
        if self.key_of is None:
            key = ()
        else:
            try:
                key = self.key_of(pm.bindings)
            except KeyError:
                # Missing attribute: the equality predicate evaluates
                # False against every probe, so the entry is unreachable
                # through this index and needs no bucket.
                return None
        try:
            bucket = self.buckets.get(key)
        except TypeError:
            # Unhashable value: equality could still hold, so keep the
            # entry probe-visible in the overflow.
            self.overflow.append(pm)
            self.overflow_trigs.append(pm.trigger_seq)
            self.overflow_ins.append(ins)
            return None
        if bucket is None:
            bucket = self.buckets[key] = _Bucket(self.value_of is not None)
        bucket.pms.append(pm)
        bucket.trigs.append(pm.trigger_seq)
        if self.value_of is not None:
            self._add_to_run(bucket, pm, ins)
        return key

    def compact(self) -> None:
        """Sweep every bucket holding tombstones, drop the emptied ones,
        and filter the overflow.  Insertion serials keep their relative
        order, so no entry is re-filed."""
        buckets = self.buckets
        emptied = []
        for key, bucket in buckets.items():
            if bucket.dead:
                bucket.sweep()
            if not bucket.pms:
                emptied.append(key)
        for key in emptied:
            del buckets[key]
        if self.overflow:
            kept = [
                entry
                for entry in zip(self.overflow, self.overflow_trigs,
                                 self.overflow_ins)
                if entry[0].home is not False
            ]
            self.overflow = [pm for pm, _, _ in kept]
            self.overflow_trigs = [trig for _, trig, _ in kept]
            self.overflow_ins = [ins for _, _, ins in kept]

    def _add_to_run(self, bucket: _Bucket, pm: PartialMatch, ins: int) -> None:
        try:
            value = self.value_of(pm.bindings)
        except KeyError:
            # Missing theta attribute: the predicate is False against
            # every probe — exact to omit from range candidates (the
            # entry stays in the bucket for non-range iteration).
            return
        if nan_like(value):  # NaN: same always-False argument
            return
        try:
            position = bisect_left(bucket.rvals, value)
        except TypeError:
            bucket.runordered.append((ins, pm))
            return
        bucket.rvals.insert(position, value)
        bucket.rentries.insert(position, (ins, pm))


class PartialMatchStore:
    """Trigger-ordered partial matches with hash probes and fast expiry.

    One store backs one runtime node (a tree-plan node, an NFA chain
    state, or a shared DAG node).  Insertion order is trigger order —
    engines insert a partial match while processing its trigger event —
    which makes every run binary-searchable by ``trigger_seq``.  The
    expiry run is kept sorted by ``min_ts`` so window expiry is a
    watermark check plus a bisected prefix drop.

    An entry belongs to exactly one store: :meth:`insert` claims its
    :attr:`~PartialMatch.home` slot, and removal marks it ``False``.
    """

    __slots__ = (
        "_pms",
        "_trigs",
        "_live",
        "_dead",
        "_ins",
        "_indexes",
        "_exp_ts",
        "_exp_pms",
        "metrics",
        "holdings",
        "window",
    )

    def __init__(
        self,
        metrics: Optional[EngineMetrics] = None,
        holdings: Optional[Holdings] = None,
        window: float = float("inf"),
    ) -> None:
        self._pms: List[PartialMatch] = []  # primary run, trigger order
        self._trigs: List[int] = []
        self._live = 0  # live entries
        self._dead = 0  # tombstones awaiting compaction
        self._ins = 0  # insertion serial (orders range candidates)
        self._indexes: List[_Index] = []
        self._exp_ts: List[float] = []  # min_ts, sorted
        self._exp_pms: List[PartialMatch] = []
        self.metrics = metrics
        self.holdings = holdings if holdings is not None else Holdings()
        # The node's window: its engine expires it at ``now - window``.
        self.window = window

    # -- setup --------------------------------------------------------------
    def add_index(
        self,
        key_of: Optional[KeyFn],
        value_of: Optional[Callable[[dict], object]] = None,
        op: Optional[str] = None,
    ) -> int:
        """Register an access path; returns its probe handle.

        ``key_of`` hash-partitions on equality keys; ``value_of``/``op``
        add a per-bucket sorted run for one theta cross-predicate
        (``stored_value op probe_value`` selects the candidates).  With
        ``key_of=None`` the whole store forms one implicit bucket and
        the index is a pure range access path (probe with ``key=()``).
        """
        if self._pms:
            raise ValueError("indexes must be registered before inserts")
        self._indexes.append(_Index(key_of, value_of, op))
        return len(self._indexes) - 1

    def index_exact(self, index_id: int) -> bool:
        """True when every candidate :meth:`probe` yields for this index
        is bucket-guaranteed to satisfy the extracted equalities.

        False while unhashable-key overflow entries exist — callers must
        then evaluate the full predicate list on the candidates instead
        of skipping the extracted equalities.
        """
        return not self._indexes[index_id].overflow

    # -- mutation -----------------------------------------------------------
    def insert(self, pm: PartialMatch) -> None:
        if pm.home is not None:
            raise ValueError(f"{pm!r} was already inserted into a store")
        self._pms.append(pm)
        self._trigs.append(pm.trigger_seq)
        ins = self._ins
        self._ins = ins + 1
        indexes = self._indexes
        if len(indexes) == 1:  # the common case, without the list
            pm.home = (indexes[0].add(pm, ins),)
        else:
            pm.home = tuple([index.add(pm, ins) for index in indexes])
        self._live += 1
        min_ts = pm.min_ts
        position = bisect_left(self._exp_ts, min_ts)
        self._exp_ts.insert(position, min_ts)
        self._exp_pms.insert(position, pm)
        held = self.holdings
        held.partial_matches += 1
        if min_ts < held.oldest:
            held.oldest = min_ts

    def _bury(self, pm: PartialMatch) -> None:
        """Tombstone one live entry and charge the buckets holding it."""
        for index, key in zip(self._indexes, pm.home):
            if key is not None:
                index.buckets[key].dead += 1
        pm.home = False

    def expire(self, cutoff: float) -> int:
        """Drop entries with ``min_ts < cutoff``; returns how many died.

        O(1) when the smallest ``min_ts`` is inside the window;
        otherwise one bisect plus O(expired) tombstoning.  The oldest
        surviving ``min_ts`` is reported to the holdings watermark.
        """
        exp_ts = self._exp_ts
        expired = 0
        if exp_ts and exp_ts[0] < cutoff:
            boundary = bisect_left(exp_ts, cutoff)
            bury = self._bury
            for pm in self._exp_pms[:boundary]:
                if pm.home is not False:
                    bury(pm)
                    expired += 1
            del exp_ts[:boundary]
            del self._exp_pms[:boundary]
            self._live -= expired
            self._dead += expired
            self.holdings.partial_matches -= expired
            if self.metrics is not None:
                self.metrics.pm_expired += expired
            self._maybe_compact()
            exp_ts = self._exp_ts
        if exp_ts and exp_ts[0] < self.holdings.oldest:
            self.holdings.oldest = exp_ts[0]
        return expired

    def discard(self, pm: PartialMatch) -> None:
        """Tombstone one entry unless already dead (restrictive-strategy
        advance)."""
        if pm.home is not False:
            self._bury(pm)
            self._live -= 1
            self._dead += 1
            self.holdings.partial_matches -= 1
            self._maybe_compact()

    def purge_seqs(self, seqs: frozenset) -> int:
        """Tombstone every entry using one of the consumed events."""
        dead = [pm for pm in self if pm.event_seqs() & seqs]
        for pm in dead:
            self._bury(pm)
        self._live -= len(dead)
        self._dead += len(dead)
        self.holdings.partial_matches -= len(dead)
        self._maybe_compact()
        return len(dead)

    # -- access -------------------------------------------------------------
    def __len__(self) -> int:
        return self._live

    def __iter__(self) -> Iterator[PartialMatch]:
        """Live entries in insertion (trigger) order."""
        for pm in self._pms:
            if pm.home is not False:
                yield pm

    def iter_before(self, trigger_seq: int) -> Iterator[PartialMatch]:
        """Live entries with ``trigger_seq`` strictly below the bound."""
        boundary = bisect_left(self._trigs, trigger_seq)
        for pm in self._pms[:boundary]:
            if pm.home is not False:
                yield pm

    def probe(
        self,
        index_id: int,
        key: tuple,
        trigger_seq: int,
        bound=NO_BOUND,
        on_excluded=None,
    ) -> Iterator[PartialMatch]:
        """Bucket candidates with ``trigger_seq`` strictly below the bound.

        The bucket holds exactly the entries whose equality key matches
        (plus, rarely, unhashable overflow entries); residual predicates
        are evaluated by the caller, so a spurious bucket hit can never
        produce a spurious match.  ``bound`` (for a range index) further
        narrows the bucket to its value-bisected theta range; the
        candidates are re-sorted into insertion (= trigger) order so
        emission order and first-candidate semantics are identical to a
        scan.

        ``on_excluded`` (selectivity feedback, see
        :meth:`~repro.engines.base.BaseEngine.set_selectivity_tracker`)
        is called with the number of live, trigger-eligible sorted-run
        entries the bisect excluded — each is exactly one candidate the
        extracted theta predicate rejects.  Scan fallbacks never call
        it: their candidates get the predicate evaluated for real.
        """
        index = self._indexes[index_id]
        metrics = self.metrics
        counted = index.key_of is not None
        try:
            bucket = index.buckets.get(key)
        except TypeError:  # unhashable probe key
            if metrics is not None and counted:
                metrics.index_probes += 1
                metrics.index_misses += 1
            yield from self.iter_before(trigger_seq)
            return
        if metrics is not None and counted:
            metrics.index_probes += 1
            if bucket is None:
                metrics.index_misses += 1
            else:
                metrics.index_hits += 1
        if bucket is None:
            if index.overflow:
                boundary = bisect_left(index.overflow_trigs, trigger_seq)
                for pm in index.overflow[:boundary]:
                    if pm.home is not False:
                        yield pm
            return
        if bucket.dead >= _BUCKET_MIN_DEAD and bucket.dead * 2 >= len(bucket.pms):
            bucket.sweep()
        if index.value_of is not None and bound is not NO_BOUND:
            yield from self._range_candidates(
                index, bucket, trigger_seq, bound, on_excluded
            )
        elif index.overflow:
            yield from self._bucket_scan(index, bucket, trigger_seq)
        else:  # the hot path, inlined
            for pm in bucket.pms[: bisect_left(bucket.trigs, trigger_seq)]:
                if pm.home is not False:
                    yield pm

    def _range_candidates(
        self, index: _Index, bucket: _Bucket, trigger_seq: int, bound,
        on_excluded=None,
    ) -> Iterator[PartialMatch]:
        """Theta-bisected candidates of one bucket, insertion-ordered."""
        metrics = self.metrics
        try:
            lo, hi = range_slice(bucket.rvals, index.op, bound)
        except TypeError:
            # Bound unorderable against this run: degrade to the full
            # bucket (the residual predicates keep the result exact).
            yield from self._bucket_scan(index, bucket, trigger_seq)
            return
        if metrics is not None:
            metrics.range_probes += 1
        candidates = [
            entry
            for entry in bucket.rentries[lo:hi]
            if entry[1].trigger_seq < trigger_seq
            and entry[1].home is not False
        ]
        if on_excluded is not None:
            eligible = sum(
                1
                for entry in bucket.rentries
                if entry[1].trigger_seq < trigger_seq
                and entry[1].home is not False
            )
            if eligible > len(candidates):
                on_excluded(eligible - len(candidates))
        # Unorderable stored values, then unhashable-key overflow: both
        # conservative supersets that must stay probe-visible.
        for ins, pm in chain(
            bucket.runordered, zip(index.overflow_ins, index.overflow)
        ):
            if pm.trigger_seq < trigger_seq and pm.home is not False:
                candidates.append((ins, pm))
        candidates.sort(key=lambda entry: entry[0])
        if metrics is not None and candidates:
            metrics.range_hits += 1
        for _, pm in candidates:
            yield pm

    def _bucket_scan(
        self, index: _Index, bucket: _Bucket, trigger_seq: int
    ) -> Iterator[PartialMatch]:
        candidates = bucket.pms[: bisect_left(bucket.trigs, trigger_seq)]
        if index.overflow:
            # Rare path: merge the bucket with the unhashable-key
            # overflow in trigger order so "first candidate" semantics
            # (restrictive strategies) stay exact.
            over = index.overflow[
                : bisect_left(index.overflow_trigs, trigger_seq)
            ]
            candidates = sorted(
                candidates + over, key=lambda p: p.trigger_seq
            )
        for pm in candidates:
            if pm.home is not False:
                yield pm

    # -- housekeeping --------------------------------------------------------
    def _maybe_compact(self) -> None:
        if self._dead < _COMPACT_MIN_DEAD or self._dead <= self._live:
            return
        # Filtered copies, not in-place edits: an iterator over the old
        # primary run (a caller mid-scan) keeps its view.
        self._pms = pms = [pm for pm in self._pms if pm.home is not False]
        self._trigs = [pm.trigger_seq for pm in pms]
        keep = [
            (ts, pm)
            for ts, pm in zip(self._exp_ts, self._exp_pms)
            if pm.home is not False
        ]
        self._exp_ts = [ts for ts, _ in keep]
        self._exp_pms = [pm for _, pm in keep]
        for index in self._indexes:
            index.compact()
        self._dead = 0

    def __repr__(self) -> str:
        return (
            f"PartialMatchStore({self._live} live, "
            f"{len(self._indexes)} indexes, {self._dead} tombstones)"
        )
