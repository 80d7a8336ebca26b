"""Plan-independent engine state snapshots (live plan migration).

A long-running engine holds three kinds of state that matter across a
plan switch:

* the **live window events** — every pattern-relevant primitive event
  whose timestamp is still inside the sliding window (variable-buffer
  contents, tree leaf instances, and negation candidate buffers are all
  subsets of this set);
* the **partial matches** in flight (including the accepting-state
  pending matches deferred on trailing-negation deadlines);
* the **consumed-event sets** (one per root) of the restrictive
  selection strategies.

Everything an engine stores beyond that — which node/state a partial
match is buffered at, which hash bucket an event occupies — is a
function of the *plan*, not of the stream.  :class:`EngineSnapshot`
therefore captures exactly the plan-independent part: any engine built
for an equivalent pattern (any plan shape, tree or order) can rebuild
its intermediate stores from it by replaying the window buffer
(:meth:`repro.engines.base.BaseEngine.seed_from`), because every live
partial match binds only events with ``timestamp >= now - window``:

* window expiry drops partial matches whose earliest constituent left
  the window (``min_ts >= now - W`` for everything live), and
* pending matches are released when their negation deadline
  (``<= min_ts + W``) passes, so open pendings satisfy the same bound.

The descriptors in :attr:`EngineSnapshot.partial_matches` and
:attr:`EngineSnapshot.pending` are diagnostic views (variable ->
bound-event sequence numbers); migration correctness rests on the event
replay, and the migration counters (``pm_migrated``) rest on these
counts.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..events import Event
from .matches import PartialMatch

#: ``variable -> (seq, ...)`` with Kleene tuples expanded, plus the
#: trigger sequence number — the plan-independent identity of one
#: partial match.
PMDescriptor = Tuple[Tuple[Tuple[str, Tuple[int, ...]], ...], int]


def describe_partial_match(pm: PartialMatch) -> PMDescriptor:
    """Plan-independent descriptor of one partial match."""
    bound = []
    for variable, value in sorted(pm.bindings.items()):
        if isinstance(value, tuple):
            bound.append((variable, tuple(e.seq for e in value)))
        else:
            bound.append((variable, (value.seq,)))
    return tuple(bound), pm.trigger_seq


def replay(engine, events: Iterable[Event], suppress: bool = False) -> List:
    """Rebuild ``engine``'s state from a retained event log; return the
    matches re-derived on the way.

    The one replay primitive: plan migration and crash reseed
    (:meth:`~repro.engines.base.BaseEngine.seed_from`) and the disorder
    layer's window-bounded corrections all come through here.  With
    ``suppress`` a donor already reported the matches: their metrics
    entries are rolled back and ``events_processed`` zeroed.  The replay
    *work* (partial matches, predicate evaluations, index probes) stays
    either way — it is the real cost of the rebuild.
    """
    metrics = engine.metrics
    reported = len(metrics.latencies)
    matches: List = []
    for event in events:
        matches.extend(engine.process(event))
    if suppress:
        metrics.matches_emitted -= len(metrics.latencies) - reported
        del metrics.latencies[reported:]
        del metrics.wall_latencies[reported:]
        metrics.events_processed = 0
    return matches


class EngineSnapshot:
    """Plan-independent state of one engine at a point in stream time."""

    __slots__ = (
        "events",
        "now",
        "window",
        "consumed",
        "partial_matches",
        "pending",
    )

    def __init__(
        self,
        events: Sequence[Event],
        now: float,
        window: float,
        consumed: Sequence[Iterable[int]] = (),
        partial_matches: Sequence[PMDescriptor] = (),
        pending: Sequence[Tuple[PMDescriptor, float]] = (),
    ) -> None:
        self.events = tuple(events)
        self.now = float(now)
        self.window = float(window)
        # One set of consumed sequence numbers per engine root (empty:
        # nothing consumed).
        self.consumed = tuple(frozenset(seqs) for seqs in consumed)
        self.partial_matches = tuple(partial_matches)
        self.pending = tuple(pending)

    @property
    def partial_match_count(self) -> int:
        """Live partial matches captured (pending matches excluded)."""
        return len(self.partial_matches)

    @property
    def migrated_count(self) -> int:
        """Partial matches plus pending matches — the ``pm_migrated``
        accounting unit."""
        return len(self.partial_matches) + len(self.pending)

    def __repr__(self) -> str:
        return (
            f"EngineSnapshot({len(self.events)} events, "
            f"{len(self.partial_matches)} partial matches, "
            f"{len(self.pending)} pending, now={self.now:g})"
        )

