"""Order-based evaluation: the lazy chain NFA (Section 2.2, [28, 29]).

Given an :class:`~repro.plans.OrderPlan` ``O = (v_1, ..., v_n)``, the
engine maintains one list of partial matches per chain state: state ``s``
holds the instances that bound exactly ``v_1..v_s``.  Events arriving
out of plan order are buffered per variable; an instance that advances to
state ``s`` immediately scans the buffer of ``v_{s+1}`` for events that
arrived earlier — this is the *lazy* out-of-order evaluation that lets
any of the n! orders detect the exact same matches.

Kleene variables hold tuples of events; the engine grows subsets
incrementally (singleton creation + one-event absorptions), generating
each non-empty subset exactly once (Section 5.2).  Negation follows the
earliest-check strategy of the base engine (Section 5.3).

Under skip-till-any-match the instance *forks* on every extension; under
the restrictive strategies (Section 6.2) it *advances* — each instance
binds at most one event per position, and events of reported matches are
consumed.

Each chain transition is a two-sided join between a state's instance
store (a :class:`~repro.engines.stores.PartialMatchStore`) and the next
variable's buffer; both are expired by the base engine's
watermark-gated sweep.  How
each side finds its candidates in the other — hash bucket, theta
bisect or scan — is one :class:`~repro.engines.access.AccessPath` per
side, built by :func:`~repro.engines.access.transition_paths`.
"""

from __future__ import annotations

from typing import Optional

from ..events import Event
from ..patterns.compile import compile_event_kernel
from ..patterns.predicates import Predicate
from ..patterns.transformations import DecomposedPattern
from ..plans.order_plan import OrderPlan
from .access import AccessPath, extension_kernel, transition_paths
from .base import INTERPRET, SELECTION_ANY, BaseEngine, traced
from .buffers import VariableBuffer
from .matches import Match, PartialMatch
from .stores import PartialMatchStore


class NFAEngine(BaseEngine):
    """Lazy chain NFA following an explicit evaluation order."""

    def __init__(
        self,
        decomposed: DecomposedPattern,
        plan: OrderPlan,
        selection: str = SELECTION_ANY,
        max_kleene_size: Optional[int] = None,
        pattern_name: Optional[str] = None,
        indexed: bool = True,
        compiled: bool = True,
        codegen: bool = True,
    ) -> None:
        super().__init__(
            [(pattern_name, decomposed)],
            selection=selection,
            max_kleene_size=max_kleene_size,
            indexed=indexed,
            compiled=compiled,
            codegen=codegen,
        )
        plan.validate_for(decomposed)
        self.plan = plan
        self._root = self._roots[0]
        self._negation = self._root.checker
        self._consumed = self._root.consumed
        self._conditions = decomposed.conditions
        self._kleene = decomposed.kleene
        # Predicates indexed by variable for incremental checking.
        self._preds_by_var: dict[str, list[Predicate]] = {
            v: list(self._conditions.involving(v))
            for v, _ in decomposed.positives
        }
        self._order = plan.variables
        self._n = len(self._order)
        self._position = {v: i for i, v in enumerate(self._order)}
        # Per-variable windowed buffers with unary-filter admission.
        for variable, type_name in decomposed.positives:
            unary = tuple(self._conditions.filters_for(variable))
            unary_filter = None
            if unary:
                def unary_filter(event, _preds=unary, _var=variable,
                                 _engine=self):
                    for p in _preds:
                        passed = p.evaluate({_var: event})
                        if _engine._sel_tracker is not None:
                            _engine._observe_predicate(p, passed)
                        if not passed:
                            return False
                    return True
            self._buffers[variable] = VariableBuffer(
                variable, type_name, unary_filter, metrics=self.metrics,
                holdings=self._held,
            )
        # _disjoint[p]: no earlier position has order[p]'s event type, so
        # binding order[p] onto an instance never needs the reuse check.
        types = dict(decomposed.positives)
        self._disjoint = [
            types[v] not in {types[u] for u in self._order[:p]}
            for p, v in enumerate(self._order)
        ]
        # _states[s] holds instances with the first s variables bound, for
        # s in 1..n-1.  State n is normally transient (instances are
        # emitted immediately), but when the *last* plan position is a
        # Kleene variable the accepting state keeps its instances so that
        # later events can still grow the tuple (each growth emits a
        # further match) — the self-loop of the Kleene NFA state.
        self._states: dict[int, PartialMatchStore] = {
            s: PartialMatchStore(self.metrics, self._held, self.window)
            for s in range(1, self._n + 1)
        }
        self._stores = self._root.stores = list(self._states.values())
        self._absorbing_accept = (
            self._order[-1] in self._kleene
        )
        # The chain transition into position p is a binary join between
        # state p (instances binding order[:p]) and the buffer of
        # order[p], probed from both sides (repro.engines.access).
        self._state_paths: dict[int, AccessPath] = {}
        self._buffer_paths: dict[int, AccessPath] = {}
        for position in range(1, self._n):
            variable = self._order[position]
            into_state, into_buffer = transition_paths(
                self._preds_by_var[variable],
                self._order[:position],
                variable,
                self._kleene,
                self._states[position],
                self._buffers[variable],
                self.metrics,
                indexed=indexed,
                codegen=codegen,
            )
            self._state_paths[position] = into_state
            self._buffer_paths[position] = into_buffer
            self._access_paths += (into_state, into_buffer)
        # Per-position trace counters (repro.observe); None = no tracer.
        self._tstats = None
        # Per-position full extension kernel, also the absorption kernel
        # of a Kleene variable at that position (INTERPRET = interpreted).
        self._ext_full: dict[int, object] = dict.fromkeys(
            range(self._n), INTERPRET
        )
        if compiled:
            self._recompile_kernels()

    def _recompile_kernels(self) -> None:
        """Fuse each chain position's predicate lists into kernels.

        Position ``p``'s kernels cover binding ``order[p]`` onto an
        instance whose bound set is ``order[:p]`` — the static per-state
        equivalent of the interpreted ``vars ⊆ bound`` filter.  The full
        kernel doubles as the absorption kernel for a Kleene variable at
        that position (the new element is checked as a scalar either
        way), and both sides of a transition share one kernel pair.
        Each variable buffer's admission filter is compiled too.
        """
        tracker, keys = self._sel_tracker, self._sel_key_by_pred
        for variable, buffer in self._buffers.items():
            unary = tuple(self._conditions.filters_for(variable))
            if unary:
                buffer.set_filter(
                    compile_event_kernel(
                        unary, variable, self.metrics, tracker=tracker,
                        sel_key_by_pred=keys, count="none",
                        codegen=self.codegen,
                    )
                )
        first = self._order[0]
        self._ext_full[0] = extension_kernel(
            self._preds_by_var[first], {first}, first, self._kleene,
            self.metrics, self.codegen, tracker, keys,
        )
        for position, into_state in self._state_paths.items():
            into_state.compile(tracker, keys)
            into_buffer = self._buffer_paths[position]
            into_buffer.kernel = into_state.kernel
            into_buffer.residual_kernel = into_state.residual_kernel
            self._ext_full[position] = into_state.kernel

    def _register_trace_nodes(self) -> None:
        """One :class:`~repro.observe.trace.NodeStat` per chain position."""
        tracer = self._tracer
        if tracer is None:
            self._tstats = self._expiry_stats = None
            return
        self._tstats = [
            tracer.register_node(
                f"{position}:{variable}", "state", engine="nfa"
            )
            for position, variable in enumerate(self._order)
        ]
        # _stores[i] is chain state i + 1, which binds position i.
        self._expiry_stats = self._tstats

    # -- event loop -----------------------------------------------------------
    def _admit(self, event: Event) -> list[str]:
        """Offer ``event`` to every variable buffer; the admitting ones."""
        return [
            variable
            for variable, buffer in self._buffers.items()
            if buffer.offer(event)
        ]

    def _arrive(self, event: Event, admitted: list[str]) -> list[Match]:
        created: list[tuple[PartialMatch, int]] = []
        tstats = self._tstats
        for variable in admitted:
            position = self._position[variable]
            if tstats is None:
                created.extend(
                    self._arrival_extensions(variable, position, event)
                )
            else:
                stat = tstats[position]
                stat.events += 1
                created.extend(
                    traced(
                        self, stat, self._arrival_extensions,
                        variable, position, event,
                    )
                )
        return self._cascade(created)

    # -- arrival-driven extensions -------------------------------------------------
    def _arrival_extensions(
        self, variable: str, position: int, event: Event, stat=None
    ) -> list[tuple[PartialMatch, int]]:
        """Pair the arriving event with all existing eligible instances."""
        created: list[tuple[PartialMatch, int]] = []
        is_kleene = variable in self._kleene

        if position == 0:
            if self._check_first(variable, event):
                pm = (
                    PartialMatch.kleene_singleton(variable, event)
                    if is_kleene
                    else PartialMatch.singleton(variable, event)
                )
                created.append((pm, 1))
                if self._consuming:
                    # The run owns its first event outright.
                    self._buffers[variable].remove_seq(event.seq)
        else:
            state = self._states[position]
            path = self._state_paths[position]
            candidates, preds, kernel = path.candidates(event, event.seq)
            if stat is not None:
                candidates = list(candidates)
                stat.probed += len(candidates)
            disjoint = self._disjoint[position]
            if self._consuming:
                # Restrictive strategies: the event binds to at most one
                # instance, and that instance advances (no fork).
                for pm in candidates:
                    if self._check_extension(
                        pm, variable, event, preds, kernel, disjoint
                    ):
                        bound = self._bind(pm, variable, event, event.seq)
                        created.append((bound, position + 1))
                        state.discard(pm)
                        self._buffers[variable].remove_seq(event.seq)
                        break
            else:
                for pm in candidates:
                    if self._check_extension(
                        pm, variable, event, preds, kernel, disjoint
                    ):
                        bound = self._bind(pm, variable, event, event.seq)
                        created.append((bound, position + 1))

        # Kleene absorption: instances whose *last* bound variable is this
        # Kleene variable may take one more event (fork, skip-till-any
        # only).  This includes the accepting state when the Kleene
        # variable sits last in the plan.
        if is_kleene and not self._consuming:
            state_index = position + 1
            kernel = self._ext_full[position]
            for pm in list(self._states[state_index]):
                if not self._kleene_room(pm, variable, self.max_kleene_size):
                    continue
                if self._check_extension(
                    pm, variable, event, kernel=kernel
                ):
                    created.append(
                        (pm.kleene_extended(variable, event), state_index)
                    )
        return created

    def _bind(
        self, pm: PartialMatch, variable: str, event: Event, trigger_seq: int
    ) -> PartialMatch:
        """Bind ``variable`` (Kleene: a one-event tuple); an arriving
        event is the trigger, a buffered one keeps ``pm``'s."""
        if variable in self._kleene:
            bindings = dict(pm.bindings)
            bindings[variable] = (event,)
            return PartialMatch(
                bindings,
                trigger_seq,
                min(pm.min_ts, event.timestamp),
                max(pm.max_ts, event.timestamp),
            )
        return pm.extended(variable, event, trigger_seq=trigger_seq)

    def _check_first(self, variable: str, event: Event) -> bool:
        """Admission of the plan's first variable (unary filters only —
        already applied by the buffer — plus consumption)."""
        return event.seq not in self._consumed

    # -- cascade: buffer scans for newly created instances ----------------------------
    def _cascade(
        self, seed: list[tuple[PartialMatch, int]]
    ) -> list[Match]:
        matches: list[Match] = []
        queue = list(seed)
        tstats = self._tstats
        while queue:
            pm, state = queue.pop()
            self.metrics.partial_matches_created += 1
            if tstats is not None:
                tstats[state - 1].created += 1
            bound_var = self._order[state - 1]
            if not self._bounded_negation_ok(pm, bound_var):
                continue
            if state == self._n:
                match = self._complete(self._root, pm)
                if match is not None:
                    matches.append(match)
                    if tstats is not None:
                        tstats[state - 1].matches += 1
                if self._absorbing_accept and not self._consuming:
                    # Keep the instance absorbable and grow it with any
                    # already-buffered Kleene events.
                    self._states[state].insert(pm)
                    queue.extend(
                        self._buffer_absorptions(pm, bound_var, state)
                    )
                continue
            self._states[state].insert(pm)

            # Absorb already-buffered Kleene events (arrived before the
            # trigger, later than the current newest tuple element).
            if bound_var in self._kleene and not self._consuming:
                queue.extend(self._buffer_absorptions(pm, bound_var, state))

            if tstats is None:
                queue.extend(self._buffer_extensions(pm, state))
            else:
                # Buffer-scan work belongs to the position it binds.
                queue.extend(
                    traced(self, tstats[state], self._buffer_extensions, pm, state)
                )
        return matches

    def _buffer_extensions(
        self, pm: PartialMatch, state: int, stat=None
    ) -> list[tuple[PartialMatch, int]]:
        """Scan the next variable's buffer for earlier-arrived events
        through the transition's access path."""
        variable = self._order[state]
        candidates, preds, kernel = self._buffer_paths[state].candidates(
            pm.bindings, pm.trigger_seq
        )
        if stat is not None:
            candidates = list(candidates)
            stat.probed += len(candidates)
        created: list[tuple[PartialMatch, int]] = []
        disjoint = self._disjoint[state]
        for event in candidates:
            if self._check_extension(
                pm, variable, event, preds, kernel, disjoint
            ):
                extended = self._bind(pm, variable, event, pm.trigger_seq)
                created.append((extended, state + 1))
                if self._consuming:
                    # Advance with the earliest eligible event only; the
                    # instance takes ownership of that event.
                    self._states[state].discard(pm)
                    self._buffers[variable].remove_seq(event.seq)
                    break
        return created

    def _buffer_absorptions(
        self, pm: PartialMatch, variable: str, state: int
    ) -> list[tuple[PartialMatch, int]]:
        created: list[tuple[PartialMatch, int]] = []
        tuple_events = pm.bindings[variable]
        newest = tuple_events[-1].seq
        if not self._kleene_room(pm, variable, self.max_kleene_size):
            return created
        kernel = self._ext_full[state - 1]
        for event in self._buffers[variable].events_before(pm.trigger_seq):
            if event.seq <= newest:
                continue
            if self._check_extension(pm, variable, event, kernel=kernel):
                absorbed = pm.kleene_extended(
                    variable, event, trigger_seq=pm.trigger_seq
                )
                created.append((absorbed, state))
        return created

    # -- checks --------------------------------------------------------------
    def _check_extension(
        self,
        pm: PartialMatch,
        variable: str,
        event: Event,
        predicates: Optional[list] = None,
        kernel=INTERPRET,
        disjoint: bool = False,
    ) -> bool:
        """Window + reuse + predicate check for binding ``event``.

        ``predicates`` overrides the per-variable predicate list — used
        by indexed probes to skip equalities the hash bucket already
        guarantees (see :mod:`repro.engines.access`).  ``kernel``
        replaces the interpreted evaluation with a compiled conjunction
        (``None`` = empty predicate list, vacuously true); the
        :data:`INTERPRET` sentinel keeps the interpreted path.
        ``disjoint`` is the plan-time fact that no variable ``pm``
        binds has ``variable``'s event type, so ``pm`` cannot already
        hold ``event`` and the reuse check is skipped.
        """
        if event.seq in self._consumed:
            return False
        if not disjoint and pm.contains_seq(event.seq):
            return False
        if not pm.span_with(event, self.window):
            return False
        if kernel is not INTERPRET:
            return True if kernel is None else kernel(pm.bindings, event)
        if predicates is None:
            predicates = self._preds_by_var[variable]
        bindings = dict(pm.bindings)
        if variable in self._kleene and variable in bindings:
            # Absorbing into an existing tuple: check the new element only.
            probe = dict(bindings)
            probe[variable] = event
            bound = set(probe)
            for predicate in predicates:
                if set(predicate.variables) <= bound:
                    self.metrics.predicate_evaluations += 1
                    passed = predicate.evaluate(probe)
                    if self._sel_tracker is not None:
                        self._observe_predicate(predicate, passed)
                    if not passed:
                        return False
            return True
        bindings[variable] = event
        bound = set(bindings)
        for predicate in predicates:
            if set(predicate.variables) <= bound:
                self.metrics.predicate_evaluations += 1
                passed = predicate.evaluate(bindings)
                if self._sel_tracker is not None:
                    self._observe_predicate(predicate, passed)
                if not passed:
                    return False
        return True

    def _bounded_negation_ok(self, pm: PartialMatch, new_variable: str) -> bool:
        """Run the bounded negation specs that just became checkable.

        A spec is evaluated when ``new_variable`` completed its dependency
        set — the "earliest point possible" rule of Section 5.3; specs not
        involving the new variable were already checked earlier.
        """
        if not self._negation.active:
            return True
        bound = frozenset(pm.bindings)
        for prepared in self._negation.specs_checkable_with(bound):
            if new_variable not in prepared.required:
                continue
            if self._negation.violated(prepared, pm):
                return False
        return True

    @staticmethod
    def _kleene_room(pm: PartialMatch, variable: str, limit: Optional[int]) -> bool:
        if limit is None:
            return True
        value = pm.bindings.get(variable)
        return not isinstance(value, tuple) or len(value) < limit

    def __repr__(self) -> str:
        return f"NFAEngine(plan={self.plan!r}, selection={self.selection!r})"
