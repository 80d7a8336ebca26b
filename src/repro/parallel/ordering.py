"""Canonical match ordering: the parallel runtime's output contract.

A single-process engine emits matches in *arrival order with cascade
ties*: matches complete when their last constituent event arrives, and
several matches completed by the same event are emitted in the order
the evaluation cascade happens to create them — an order that is
deterministic for one engine but meaningless across stream shards.  A
parallel run therefore needs a total order that (a) is computable from
a match alone, (b) refines arrival order, and (c) is independent of how
the stream was partitioned and of the worker count.

:func:`match_sort_key` provides it:

``(completion_seq, pattern_name, content_key, detection_ts)``

* ``completion_seq`` — the largest constituent sequence number: the
  arrival position of the event that completed the match.  Workers
  preserve the *global* sequence numbers of the input stream (shards
  are never re-numbered), so this component is shard-independent.
* ``pattern_name`` / ``content_key`` — which query matched, and the
  full variable -> event-sequence binding.  The trigger discipline
  (:mod:`repro.engines.matches`) forms every combination exactly once,
  so no two distinct matches of one run share all three components.
* ``detection_ts`` — tie-breaker for deferred (trailing-negation)
  emissions; like the rest of the key it is partition-independent,
  because engines stamp deferred matches with the negation *deadline*,
  not with the arrival time of whichever event released them.

:func:`canonical_order` applies the key to any match list — including a
single-process engine's output, which is how the equivalence tests
compare the two runtimes byte for byte (:func:`match_records`).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..engines.matches import Match

#: ``((variable, (seq, ...)), ...)`` sorted by variable — the binding
#: identity of a match with Kleene tuples expanded.
ContentKey = Tuple[Tuple[str, Tuple[int, ...]], ...]


def content_key(match: Match) -> ContentKey:
    """Order-independent identity of a match's bindings.

    Derived from :meth:`Match.key` — the codebase's single definition
    of match identity — normalized into a homogeneous, sortable shape
    (single bindings become one-element sequence tuples so keys
    compare without int/tuple type clashes).
    """
    return tuple(
        sorted(
            (variable, value if isinstance(value, tuple) else (value,))
            for variable, value in match.key()
        )
    )


def completion_seq(match: Match) -> int:
    """Sequence number of the latest-arriving constituent event."""
    latest = -1
    for value in match.bindings.values():
        if isinstance(value, tuple):
            for event in value:
                if event.seq > latest:
                    latest = event.seq
        elif value.seq > latest:
            latest = value.seq
    return latest


def match_min_seq(match: Match) -> int:
    """Earliest constituent sequence number.

    The adaptive controller's migration accounting uses this: a match
    emitted after a plan switch whose earliest constituent predates the
    switch is exactly a match a restart-based swap would have lost.
    """
    earliest = None
    for value in match.bindings.values():
        if isinstance(value, tuple):
            for event in value:
                if earliest is None or event.seq < earliest:
                    earliest = event.seq
        elif earliest is None or value.seq < earliest:
            earliest = value.seq
    return -1 if earliest is None else earliest


def match_sort_key(match: Match):
    """Total order over one run's matches; see the module docstring."""
    return (
        completion_seq(match),
        match.pattern_name or "",
        content_key(match),
        match.detection_ts,
    )


def canonical_order(matches: Iterable[Match]) -> List[Match]:
    """Matches sorted into the canonical (partition-independent) order."""
    return sorted(matches, key=match_sort_key)


def match_records(matches: Sequence[Match]) -> List[tuple]:
    """Serializable identity records, order-preserving.

    ``(pattern_name, content_key, detection_ts, latency)`` per match —
    everything partition-independent a match carries.  Two runs are
    equivalent exactly when their canonically ordered record lists are
    equal; the seeded equivalence tests assert that identity.
    (``wall_latency`` is wall-clock measurement noise and excluded.)
    """
    return [
        (m.pattern_name, content_key(m), m.detection_ts, m.latency)
        for m in matches
    ]
