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
variable's buffer: when the transition carries ``Attr == Attr``
predicates, both sides are hash-partitioned at build time, so arrival
probes and ``events_before`` scans touch one bucket instead of the
whole store, and window expiry of the states is watermark-gated.
"""

from __future__ import annotations

from typing import Optional

from ..events import Event
from ..patterns.compile import compile_extension_kernel
from ..patterns.transformations import DecomposedPattern
from ..plans.order_plan import OrderPlan
from .base import INTERPRET, SELECTION_ANY, BaseEngine
from .matches import Match, PartialMatch
from .stores import (
    EMPTY_RANGE,
    NO_BOUND,
    PartialMatchStore,
    equality_key_pairs,
    make_event_key_fn,
    make_event_value_fn,
    make_key_fn,
    make_value_fn,
    probe_key,
    range_key_pairs,
    range_probe_value,
)


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
            decomposed,
            selection=selection,
            max_kleene_size=max_kleene_size,
            pattern_name=pattern_name,
            indexed=indexed,
            compiled=compiled,
            codegen=codegen,
        )
        plan.validate_for(decomposed)
        self.plan = plan
        self._order = plan.variables
        self._n = len(self._order)
        self._position = {v: i for i, v in enumerate(self._order)}
        # _states[s] holds instances with the first s variables bound, for
        # s in 1..n-1.  State n is normally transient (instances are
        # emitted immediately), but when the *last* plan position is a
        # Kleene variable the accepting state keeps its instances so that
        # later events can still grow the tuple (each growth emits a
        # further match) — the self-loop of the Kleene NFA state.
        self._states: dict[int, PartialMatchStore] = {
            s: PartialMatchStore(self.metrics) for s in range(1, self._n + 1)
        }
        self._absorbing_accept = (
            self._order[-1] in self._kleene
        )
        # Access paths (see repro.engines.stores): the chain transition
        # into position p is a two-sided join between state p (instances
        # binding order[0..p-1]) and the buffer of order[p].  Each side
        # gets a hash index keyed on its half of the Attr == Attr
        # predicates, composed with a value-sorted run for the first
        # Attr </<=/>/>= Attr cross-predicate; the other side supplies
        # the probe key and the theta bound.
        # -> (id, ev_key, ev_val, range_pred)
        self._state_probe: dict[int, tuple] = {}
        # -> (pm_key, pm_val, range_pred)
        self._buffer_probe: dict[str, tuple] = {}
        # Per-position trace counters (repro.observe); None = no tracer.
        self._tstats = None
        # Per variable: predicates minus the equalities its transition's
        # hash bucket already guarantees (used on indexed candidates).
        self._residual_preds: dict[str, list] = {}
        if indexed:
            for position in range(1, self._n):
                variable = self._order[position]
                prior_spec, event_spec, extracted = equality_key_pairs(
                    self._conditions,
                    self._order[:position],
                    (variable,),
                    self._kleene,
                )
                range_spec = range_key_pairs(
                    self._conditions,
                    self._order[:position],
                    (variable,),
                    self._kleene,
                )
                if not prior_spec and range_spec is None:
                    continue
                pm_key = make_key_fn(prior_spec, self._kleene)  # None without equalities
                ev_key = make_event_key_fn(event_spec)
                pm_val = ev_val = None
                state_op = buffer_op = None
                range_pred = None
                if range_spec is not None:
                    prior_item, state_op, event_item, buffer_op, range_pred = (
                        range_spec
                    )
                    pm_val = make_value_fn(prior_item)
                    ev_val = make_event_value_fn(event_item)
                index_id = self._states[position].add_index(
                    pm_key, value_of=pm_val, op=state_op
                )
                self._state_probe[position] = (
                    index_id, ev_key, ev_val, range_pred
                )
                self._buffers[variable].set_index(
                    ev_key,
                    value_of=ev_val,
                    op=buffer_op,
                )
                self._buffer_probe[variable] = (pm_key, pm_val, range_pred)
                skip = set(map(id, extracted))
                self._residual_preds[variable] = [
                    p
                    for p in self._preds_by_var[variable]
                    if id(p) not in skip
                ]
        # Compiled per-position extension kernels (repro.patterns.compile):
        # _ext_full[p] checks binding order[p] onto an instance holding
        # order[:p] (also the absorption kernel of that position);
        # _ext_resid[p] is the same minus bucket-guaranteed equalities.
        self._ext_full: dict[int, object] = {}
        self._ext_resid: dict[int, object] = {}
        if compiled:
            self._recompile_kernels()

    def _recompile_kernels(self) -> None:
        """Fuse each chain transition's predicate list into one kernel.

        Kernel ``p`` covers binding ``order[p]`` onto an instance whose
        bound set is ``order[:p]`` — the static per-state equivalent of
        the interpreted ``vars ⊆ bound`` filter — and doubles as the
        absorption kernel for a Kleene variable at that position (the
        new element is checked as a scalar either way).
        """
        super()._recompile_kernels()
        for position in range(self._n):
            variable = self._order[position]
            bound = set(self._order[: position + 1])
            applicable = [
                p
                for p in self._preds_by_var[variable]
                if set(p.variables) <= bound
            ]
            self._ext_full[position] = compile_extension_kernel(
                applicable,
                variable,
                self._kleene,
                self.metrics,
                tracker=self._sel_tracker,
                sel_key_by_pred=self._sel_key_by_pred,
                codegen=self.codegen,
            )
            residual = self._residual_preds.get(variable)
            if residual is not None:
                self._ext_resid[position] = compile_extension_kernel(
                    [p for p in residual if set(p.variables) <= bound],
                    variable,
                    self._kleene,
                    self.metrics,
                    tracker=self._sel_tracker,
                    sel_key_by_pred=self._sel_key_by_pred,
                    codegen=self.codegen,
                )

    def _kernel_for(self, position: int, residual: bool):
        """Kernel for a transition, or the INTERPRET sentinel."""
        if not self.compiled:
            return INTERPRET
        table = self._ext_resid if residual else self._ext_full
        return table.get(position)

    def _register_trace_nodes(self) -> None:
        """One :class:`~repro.observe.trace.NodeStat` per chain position."""
        tracer = self._tracer
        if tracer is None:
            self._tstats = None
            return
        self._tstats = [
            tracer.register_node(
                f"{position}:{variable}", "state", engine="nfa"
            )
            for position, variable in enumerate(self._order)
        ]

    # -- event loop -----------------------------------------------------------
    def process(self, event: Event) -> list[Match]:
        matches = self._advance_time(event)
        self._expire_instances()
        self._offer_negations(event)
        admitted = self._admit(event)
        if not admitted:
            self._note_state()
            return matches

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
                    self._traced_arrival(variable, position, event, stat)
                )

        matches.extend(self._cascade(created))
        self._note_state()
        return matches

    def _traced_arrival(
        self, variable: str, position: int, event: Event, stat
    ) -> list[tuple[PartialMatch, int]]:
        """Tracer-attached arrival: wall time and index counter deltas
        attributed to the arriving variable's chain position."""
        metrics = self.metrics
        ip0, ih0 = metrics.index_probes, metrics.index_hits
        rp0, rh0 = metrics.range_probes, metrics.range_hits
        started = self._tracer.clock()
        created = self._arrival_extensions(
            variable, position, event, stat=stat
        )
        stat.wall += self._tracer.clock() - started
        stat.index_probes += metrics.index_probes - ip0
        stat.index_hits += metrics.index_hits - ih0
        stat.range_probes += metrics.range_probes - rp0
        stat.range_hits += metrics.range_hits - rh0
        return created

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
            candidates, preds, kernel = self._state_candidates(
                state, position, event
            )
            if stat is not None:
                candidates = list(candidates)
                stat.probed += len(candidates)
            if self._consuming:
                # Restrictive strategies: the event binds to at most one
                # instance, and that instance advances (no fork).
                for pm in candidates:
                    if self._check_extension(
                        pm, variable, event, preds, kernel
                    ):
                        created.append(
                            (self._bind(pm, variable, event), position + 1)
                        )
                        state.discard(pm)
                        self._buffers[variable].remove_seq(event.seq)
                        break
            else:
                for pm in candidates:
                    if self._check_extension(
                        pm, variable, event, preds, kernel
                    ):
                        created.append(
                            (self._bind(pm, variable, event), position + 1)
                        )

        # Kleene absorption: instances whose *last* bound variable is this
        # Kleene variable may take one more event (fork, skip-till-any
        # only).  This includes the accepting state when the Kleene
        # variable sits last in the plan.
        if is_kleene and not self._consuming:
            state_index = position + 1
            kernel = self._kernel_for(position, residual=False)
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

    def _state_candidates(
        self, state: PartialMatchStore, position: int, event: Event
    ):
        """Instances eligible to take the arriving event, with the
        predicate list (and compiled kernel) to check them against — one
        hash bucket, theta-bisected when the transition has an extracted
        range predicate (checked against the residual predicates only
        when the bucket guarantees the equalities), the whole state
        (full predicates) otherwise.  Every stored trigger predates the
        arriving event, so ``event.seq`` is an inclusive-of-everything
        bound."""
        probe = self._state_probe.get(position)
        if probe is not None:
            index_id, ev_key, ev_val, range_pred = probe
            key = () if ev_key is None else probe_key(ev_key, event)
            if key is not None:
                bound = NO_BOUND
                on_excluded = None
                tracked = (
                    self._sel_tracker is not None and range_pred is not None
                )
                if ev_val is not None:
                    bound = range_probe_value(ev_val, event)
                    if bound is EMPTY_RANGE:
                        # The theta predicate rejects every instance; with
                        # a tracker attached each eligible one is reported
                        # as a failed evaluation so the observed theta
                        # selectivity stays unbiased.
                        if tracked:
                            self._observe_excluded(
                                range_pred,
                                sum(
                                    1
                                    for _ in state.probe(
                                        index_id, key, event.seq
                                    )
                                ),
                            )
                        return iter(()), None, self._kernel_for(
                            position, residual=False
                        )
                    if tracked:
                        on_excluded = self._excluded_observer(range_pred)
                exact = ev_key is not None and state.index_exact(index_id)
                preds = (
                    self._residual_preds[self._order[position]]
                    if exact
                    else None  # overflow present / no equality: full
                )
                return (
                    state.probe(
                        index_id,
                        key,
                        event.seq,
                        bound=bound,
                        on_excluded=on_excluded,
                    ),
                    preds,
                    self._kernel_for(position, residual=exact),
                )
        return iter(state), None, self._kernel_for(position, residual=False)

    def _bind(
        self, pm: PartialMatch, variable: str, event: Event
    ) -> PartialMatch:
        if variable in self._kleene:
            bindings = dict(pm.bindings)
            bindings[variable] = (event,)
            return PartialMatch(
                bindings,
                event.seq,
                min(pm.min_ts, event.timestamp),
                max(pm.max_ts, event.timestamp),
            )
        return pm.extended(variable, event)

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
                match = self._complete(pm)
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
                queue.extend(self._traced_buffer_extensions(pm, state))
        return matches

    def _traced_buffer_extensions(
        self, pm: PartialMatch, state: int
    ) -> list[tuple[PartialMatch, int]]:
        """Tracer-attached buffer scan: wall time and index counter
        deltas attributed to the position the scan binds."""
        stat = self._tstats[state]
        metrics = self.metrics
        ip0, ih0 = metrics.index_probes, metrics.index_hits
        rp0, rh0 = metrics.range_probes, metrics.range_hits
        started = self._tracer.clock()
        created = self._buffer_extensions(pm, state, stat=stat)
        stat.wall += self._tracer.clock() - started
        stat.index_probes += metrics.index_probes - ip0
        stat.index_hits += metrics.index_hits - ih0
        stat.range_probes += metrics.range_probes - rp0
        stat.range_hits += metrics.range_hits - rh0
        return created

    def _buffer_extensions(
        self, pm: PartialMatch, state: int, stat=None
    ) -> list[tuple[PartialMatch, int]]:
        """Scan the next variable's buffer for earlier-arrived events —
        one hash bucket, theta-bisected when the transition carries an
        extracted range predicate."""
        variable = self._order[state]
        buffer = self._buffers[variable]
        candidates = None
        preds = None
        kernel = self._kernel_for(state, residual=False)
        probe = self._buffer_probe.get(variable)
        if probe is not None:
            pm_key_of, pm_val_of, range_pred = probe
            key = (
                () if pm_key_of is None else probe_key(pm_key_of, pm.bindings)
            )
            if key is not None:
                bound = NO_BOUND
                on_excluded = None
                tracked = (
                    self._sel_tracker is not None and range_pred is not None
                )
                if pm_val_of is not None:
                    bound = range_probe_value(pm_val_of, pm.bindings)
                    if bound is EMPTY_RANGE:
                        # The theta predicate rejects every buffered event;
                        # with a tracker attached each eligible one is
                        # reported as a failed evaluation so the observed
                        # theta selectivity stays unbiased.
                        if tracked:
                            self._observe_excluded(
                                range_pred,
                                sum(
                                    1
                                    for _ in buffer.probe(key, pm.trigger_seq)
                                ),
                            )
                        return []
                    if tracked:
                        on_excluded = self._excluded_observer(range_pred)
                candidates = buffer.probe(
                    key,
                    pm.trigger_seq,
                    bound=bound,
                    on_excluded=on_excluded,
                )
                if pm_key_of is not None and buffer.index_exact:
                    # Bucket-guaranteed: skip the extracted equalities.
                    preds = self._residual_preds[variable]
                    kernel = self._kernel_for(state, residual=True)
        if candidates is None:
            candidates = buffer.events_before(pm.trigger_seq)
        if stat is not None:
            candidates = list(candidates)
            stat.probed += len(candidates)
        created: list[tuple[PartialMatch, int]] = []
        for event in candidates:
            if self._check_extension(pm, variable, event, preds, kernel):
                extended = self._bind_from_buffer(pm, variable, event)
                created.append((extended, state + 1))
                if self._consuming:
                    # Advance with the earliest eligible event only; the
                    # instance takes ownership of that event.
                    self._drop_instance(pm, state)
                    buffer.remove_seq(event.seq)
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
        kernel = self._kernel_for(state - 1, residual=False)
        for event in self._buffers[variable].events_before(pm.trigger_seq):
            if event.seq <= newest:
                continue
            if self._check_extension(pm, variable, event, kernel=kernel):
                absorbed = pm.kleene_extended(
                    variable, event, trigger_seq=pm.trigger_seq
                )
                created.append((absorbed, state))
        return created

    def _bind_from_buffer(
        self, pm: PartialMatch, variable: str, event: Event
    ) -> PartialMatch:
        """Bind a buffered (earlier) event — the trigger stays the newest
        constituent, i.e. the current instance's trigger."""
        if variable in self._kleene:
            bindings = dict(pm.bindings)
            bindings[variable] = (event,)
            return PartialMatch(
                bindings,
                pm.trigger_seq,
                min(pm.min_ts, event.timestamp),
                max(pm.max_ts, event.timestamp),
            )
        return pm.extended(variable, event, trigger_seq=pm.trigger_seq)

    def _drop_instance(self, pm: PartialMatch, state: int) -> None:
        self._states[state].discard(pm)

    # -- housekeeping ---------------------------------------------------------------
    def _expire_instances(self) -> None:
        """Watermark-gated: O(1) per state until something can expire."""
        cutoff = self._now - self.window
        tstats = self._tstats
        if tstats is None:
            for store in self._states.values():
                store.expire(cutoff)
        else:
            for state, store in self._states.items():
                tstats[state - 1].expired += store.expire(cutoff)

    def _purge_consumed(self, seqs: frozenset) -> None:
        for store in self._states.values():
            store.purge_seqs(seqs)

    def _note_state(self) -> None:
        live = sum(len(v) for v in self._states.values()) + len(self._pending)
        self.metrics.note_state(live, self._buffered_total())

    # -- introspection ----------------------------------------------------------------
    def live_partial_matches(self) -> int:
        return sum(len(v) for v in self._states.values())

    def iter_partial_matches(self):
        """Live instances across every chain state."""
        for store in self._states.values():
            yield from store

    def __repr__(self) -> str:
        return f"NFAEngine(plan={self.plan!r}, selection={self.selection!r})"
