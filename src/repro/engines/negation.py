"""Negation support (Section 5.3).

The paper's strategy: plan the *positive* part of the pattern, then check
for the forbidden event "at the earliest point possible, when all
positive events it depends on are already received".  For a timestamp-
ordered stream this check is exact as soon as the temporal range in which
the forbidden event could occur lies in the past; ranges extending into
the future (trailing negation, and negation under AND) delay the match in
a *pending* set until the range closes (see DESIGN.md); the checker owns
that set for every runtime.

The admissible range of a forbidden event for a partial match ``pm``:

* bounded on the left by the latest ``preceding`` binding (exclusive),
  else by ``pm.max_ts − W`` (inclusive; window co-occurrence);
* bounded on the right by the earliest ``following`` binding (exclusive),
  else by ``pm.min_ts + W`` (inclusive).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..events import Event
from ..patterns.predicates import ConditionSet
from ..patterns.transformations import NegationSpec
from .buffers import VariableBuffer
from .matches import PartialMatch
from .stores import Holdings


class PreparedSpec:
    """A negation spec with precomputed dependency information."""

    __slots__ = ("spec", "required", "predicates")

    def __init__(self, spec: NegationSpec, conditions: ConditionSet) -> None:
        self.spec = spec
        self.predicates = [
            p for p in conditions if spec.variable in p.variables
        ]
        required = set(spec.preceding) | set(spec.following)
        for predicate in self.predicates:
            required.update(
                v for v in predicate.variables if v != spec.variable
            )
        self.required = frozenset(required)

    @property
    def trailing(self) -> bool:
        """True when the admissible range can extend past the bindings."""
        return not self.spec.following

    def admissible_range(
        self, pm: PartialMatch, window: float
    ) -> tuple[float, bool, float, bool]:
        """``(lo, lo_inclusive, hi, hi_inclusive)`` for the forbidden event."""
        if self.spec.preceding:
            lo = max(_binding_ts_max(pm, v) for v in self.spec.preceding)
            lo_inclusive = False
        else:
            lo = pm.max_ts - window
            lo_inclusive = True
        if self.spec.following:
            hi = min(_binding_ts_min(pm, v) for v in self.spec.following)
            hi_inclusive = False
        else:
            hi = pm.min_ts + window
            hi_inclusive = True
        return lo, lo_inclusive, hi, hi_inclusive


class PendingMatch:
    """A complete match waiting for a trailing negation range to close."""

    __slots__ = ("pm", "deadline", "specs")

    def __init__(
        self, pm: PartialMatch, deadline: float, specs: list[PreparedSpec]
    ) -> None:
        self.pm = pm
        self.deadline = deadline
        self.specs = specs


def _binding_ts_max(pm: PartialMatch, variable: str) -> float:
    value = pm.bindings[variable]
    if isinstance(value, tuple):
        return max(e.timestamp for e in value)
    return value.timestamp


def _binding_ts_min(pm: PartialMatch, variable: str) -> float:
    value = pm.bindings[variable]
    if isinstance(value, tuple):
        return min(e.timestamp for e in value)
    return value.timestamp


class NegationChecker:
    """Buffers forbidden-event candidates and evaluates negation specs."""

    def __init__(
        self,
        specs: Iterable[NegationSpec],
        conditions: ConditionSet,
        window: float,
        holdings: Optional[Holdings] = None,
    ) -> None:
        self.window = float(window)
        self.prepared = [PreparedSpec(spec, conditions) for spec in specs]
        self._buffers: dict[str, VariableBuffer] = {}
        for prepared in self.prepared:
            spec = prepared.spec
            unary = tuple(conditions.filters_for(spec.variable))
            unary_filter = None
            if unary:
                def unary_filter(event, _preds=unary, _var=spec.variable):
                    return all(p.evaluate({_var: event}) for p in _preds)
            self._buffers[spec.variable] = VariableBuffer(
                spec.variable, spec.event_type, unary_filter,
                holdings=holdings,
            )
        self.holdings = holdings if holdings is not None else Holdings()
        self.pending: list[PendingMatch] = []

    @property
    def active(self) -> bool:
        return bool(self.prepared)

    def buffered_events(self) -> int:
        return sum(len(b) for b in self._buffers.values())

    # -- stream plumbing -----------------------------------------------------
    def offer(self, event: Event) -> bool:
        """Buffer a potential forbidden event; True when admitted anywhere."""
        admitted = False
        for buffer in self._buffers.values():
            admitted |= buffer.offer(event)
        return admitted

    def prune(self, cutoff_ts: float) -> None:
        for buffer in self._buffers.values():
            buffer.prune(cutoff_ts)

    def retract(self, seq: int) -> None:
        """Drop a retracted forbidden-event candidate everywhere.

        Removal alone cannot resurrect matches the candidate already
        suppressed — the engines rejected those at completion time — so
        the disorder layer (:mod:`repro.streams.disorder`) routes
        retractions of negation-relevant events through its bounded
        re-derivation and uses this only to keep the buffers consistent.
        """
        for buffer in self._buffers.values():
            buffer.remove_seq(seq)

    # -- the pending set -----------------------------------------------------
    def keep_pending(self, still: list[PendingMatch]) -> None:
        """Replace the pending matches (the holdings count follows)."""
        self.holdings.pending += len(still) - len(self.pending)
        self.pending = still

    def offer_against(self, event: Event) -> None:
        """Buffer ``event`` as a forbidden candidate and drop the pending
        matches it violates."""
        if self.offer(event):
            self.keep_pending(
                [
                    entry
                    for entry in self.pending
                    if not any(
                        self.violated(spec, entry.pm, candidate=event)
                        for spec in entry.specs
                    )
                ]
            )

    def release(self, now: float, emit) -> list:
        """``emit(pm, deadline)`` every pending match whose range closed
        before ``now``; return what the calls returned."""
        released: list = []
        still: list[PendingMatch] = []
        for entry in self.pending:
            if entry.deadline < now:
                released.append(emit(entry.pm, entry.deadline))
            else:
                still.append(entry)
        self.keep_pending(still)
        return released

    def completion(
        self, pm: PartialMatch, now: float, checks: list[PreparedSpec]
    ) -> bool:
        """True when the complete match ``pm`` can be emitted now.  False
        when a buffered forbidden event rules it out (``checks``, then
        the trailing specs), or when it joins the pending set until its
        trailing ranges still open at ``now`` close."""
        for prepared in checks:
            if self.violated(prepared, pm):
                return False
        open_specs: list[PreparedSpec] = []
        deadline = float("-inf")
        for prepared in self.trailing_specs():
            if self.violated(prepared, pm):
                return False
            spec_deadline = self.deadline(prepared, pm)
            if spec_deadline >= now:
                open_specs.append(prepared)
                deadline = max(deadline, spec_deadline)
        if open_specs:
            self.pending.append(PendingMatch(pm, deadline, open_specs))
            self.holdings.pending += 1
            return False
        return True

    # -- checks -------------------------------------------------------------------
    def specs_checkable_with(self, bound: frozenset) -> list[PreparedSpec]:
        """Bounded specs exact on a partial match binding ``bound``.

        Specs without a ``preceding`` bound are excluded even when their
        dependencies are covered: their admissible range starts at
        ``max_ts − W`` of the *complete* match, so checking them against
        a partial match would use a too-early left bound and reject
        matches the reference semantics admit (leading NOT under SEQ).
        They are checked by :func:`leading_specs` at completion instead.
        """
        return [
            p
            for p in self.prepared
            if not p.trailing and p.spec.preceding and p.required <= bound
        ]

    def leading_specs(self) -> list[PreparedSpec]:
        """Bounded specs with no ``preceding`` bound (leading NOT).

        Their forbidden range ``[max_ts − W, min following)`` is only
        final once the whole match is bound; the engines evaluate them
        in ``_complete``.  The range's future edge is a binding
        timestamp, so — unlike trailing specs — no pending is needed.
        """
        return [
            p
            for p in self.prepared
            if not p.trailing and not p.spec.preceding
        ]

    def trailing_specs(self) -> list[PreparedSpec]:
        return [p for p in self.prepared if p.trailing]

    def violated(
        self,
        prepared: PreparedSpec,
        pm: PartialMatch,
        candidate: Optional[Event] = None,
    ) -> bool:
        """Does a buffered (or the given) forbidden event invalidate ``pm``?"""
        lo, lo_inc, hi, hi_inc = prepared.admissible_range(pm, self.window)
        events: Iterable[Event]
        if candidate is not None:
            events = (candidate,)
        else:
            events = self._buffers[prepared.spec.variable]
        for event in events:
            ts = event.timestamp
            if ts < lo or (ts == lo and not lo_inc):
                continue
            if ts > hi or (ts == hi and not hi_inc):
                continue
            if self._predicates_hold(prepared, pm, event):
                return True
        return False

    def deadline(self, prepared: PreparedSpec, pm: PartialMatch) -> float:
        """Stream time after which no new forbidden event can appear."""
        _, _, hi, _ = prepared.admissible_range(pm, self.window)
        return hi

    def _predicates_hold(
        self, prepared: PreparedSpec, pm: PartialMatch, event: Event
    ) -> bool:
        if not prepared.predicates:
            return True
        bindings = dict(pm.bindings)
        bindings[prepared.spec.variable] = event
        return all(
            set(p.variables) <= set(bindings) and p.evaluate(bindings)
            for p in prepared.predicates
        )
