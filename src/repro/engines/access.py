"""Join access paths: how one input of a binary join finds its candidates.

The paper reduces CEP plans to join plans (Sections 3–4): an NFA order
plan is a left-deep join plan and a tree plan a bushy one.  An NFA
chain transition, a tree-plan node and a shared-DAG edge are therefore
all the same binary join — a stored set of partial matches (or buffered
events) probed by one new input — and this module decides, once for all
three runtimes, *how* that probe finds its candidates.

**Build time.**  :func:`join_paths` (tree nodes, DAG edges) and
:func:`transition_paths` (NFA chain transitions) extract the join's
``Attr == Attr`` equalities and its first ``< <= > >=`` theta
(:func:`~repro.engines.stores.equality_key_pairs`,
:func:`~repro.engines.stores.range_key_pairs`), register one index per
probing side on the opposite target, and split the cross-predicates into
the full list and the residual left once a hash bucket guarantees the
extracted equalities.  Each probing side becomes one :class:`AccessPath`.

**Probe time.**  :meth:`AccessPath.candidates` returns the candidate
iterable together with the predicate list and compiled kernel that must
still be checked on it: a hash bucket bisected to the theta range,
checked against the residuals when the bucket is exact; or the target's
scan with the full predicates when indexing is off, the join has no
extractable key, or the probe key is missing or unhashable.

Indexing is a pure access path: every extracted predicate stays in the
full list, so each corner case degrades to a scan or to the full
predicate list — never to a different match set.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from ..patterns.compile import compile_extension_kernel, compile_merge_kernel
from .base import INTERPRET
from .stores import (
    EMPTY_RANGE,
    NO_BOUND,
    equality_key_pairs,
    make_event_key_fn,
    make_event_value_fn,
    make_key_fn,
    make_value_fn,
    probe_key,
    range_key_pairs,
    range_probe_value,
)


class AccessPath:
    """One probing side of a binary join.

    ``target`` is the :class:`~repro.engines.stores.PartialMatchStore` or
    :class:`~repro.engines.buffers.VariableBuffer` probed; ``handle`` the
    index registered on it (None: scan only).  ``key_of``/``bound_of``
    map the probing subject (bindings or an arriving event) to the
    equality key and the theta bound; ``range_predicate`` is the theta
    behind ``bound_of``.  ``kernel``/``residual_kernel`` are the compiled
    forms of ``predicates``/``residual`` (:data:`INTERPRET` until
    :meth:`compile` runs).  ``on_excluded`` reports bisect-excluded
    candidates to a selectivity tracker (None without one).
    """

    __slots__ = (
        "target",
        "scan",
        "handle",
        "key_of",
        "bound_of",
        "range_predicate",
        "predicates",
        "residual",
        "kernel",
        "residual_kernel",
        "on_excluded",
        "_kernel_of",
    )

    def __init__(self, target, scan, predicates: list, kernel_of) -> None:
        self.target = target
        # trigger_seq -> every candidate, for probes that cannot use the
        # index.
        self.scan = scan
        self.handle = None
        self.key_of = None
        self.bound_of = None
        self.range_predicate = None
        self.predicates = predicates
        self.residual = predicates
        self.kernel = INTERPRET
        self.residual_kernel = INTERPRET
        self.on_excluded = None
        self._kernel_of = kernel_of

    def _index(self, handle, key_of, bound_of, range_predicate, residual):
        self.handle = handle
        self.key_of = key_of
        self.bound_of = bound_of
        self.range_predicate = range_predicate
        self.residual = residual

    def compile(self, tracker=None, sel_key_by_pred: Optional[dict] = None):
        """(Re)build both kernels against ``tracker`` (None: the
        observation-free variants)."""
        kernel_of = partial(
            self._kernel_of, tracker=tracker, sel_key_by_pred=sel_key_by_pred
        )
        self.kernel = kernel_of(self.predicates)
        self.residual_kernel = (
            self.kernel
            if self.residual is self.predicates
            else kernel_of(self.residual)
        )

    def candidates(self, subject, trigger_seq: int):
        """``(candidates, predicates, kernel)`` for one probe.

        ``subject`` is the probing side's bindings dict, or the arriving
        event for an NFA state probe; every candidate was triggered
        strictly before ``trigger_seq``.
        """
        handle = self.handle
        if handle is not None:
            key_of = self.key_of
            key = () if key_of is None else probe_key(key_of, subject)
            if key is not None:
                target = self.target
                bound = NO_BOUND
                if self.bound_of is not None:
                    bound = range_probe_value(self.bound_of, subject)
                    if bound is EMPTY_RANGE:
                        # The theta predicate rejects every candidate:
                        # zero candidates, exactly.  A tracker still sees
                        # each as a failed theta evaluation, keeping the
                        # observed selectivity unbiased.
                        if self.on_excluded is not None:
                            rejected = target.probe(handle, key, trigger_seq)
                            self.on_excluded(sum(1 for _ in rejected))
                        return (), self.predicates, self.kernel
                found = target.probe(
                    handle, key, trigger_seq, bound, self.on_excluded
                )
                if key_of is not None and target.index_exact(handle):
                    # Bucket-guaranteed: skip the extracted equalities.
                    return found, self.residual, self.residual_kernel
                return found, self.predicates, self.kernel
        return self.scan(trigger_seq), self.predicates, self.kernel


def _extract(predicates, left_vars, right_vars, kleene):
    """``(left_spec, right_spec, range_spec, residual)`` of a join, or
    None when it has neither an equality key nor a theta to bisect."""
    left_spec, right_spec, extracted = equality_key_pairs(
        predicates, left_vars, right_vars, kleene
    )
    range_spec = range_key_pairs(predicates, left_vars, right_vars, kleene)
    if not left_spec and range_spec is None:
        return None
    skip = set(map(id, extracted))
    residual = [p for p in predicates if id(p) not in skip]
    return left_spec, right_spec, range_spec, residual


def _key_fn(spec, kleene, rename):
    """Key function over one side's bindings, join-namespace names
    mapped to the side's own binding names (identity when None)."""
    if rename is None:
        return make_key_fn(spec, kleene)
    return make_key_fn(
        tuple((rename[v], attr) for v, attr in spec),
        frozenset(rename[v] for v in kleene if v in rename),
    )


def _value_fn(item, rename):
    variable, attribute = item
    return make_value_fn(
        (variable if rename is None else rename[variable], attribute)
    )


def join_paths(
    predicates: list,
    left_vars: Iterable[str],
    right_vars: Iterable[str],
    kleene: Iterable[str],
    left,
    right,
    metrics,
    indexed: bool = True,
    codegen: bool = True,
    left_rename: Optional[dict] = None,
    right_rename: Optional[dict] = None,
):
    """The two probing sides of a join between stores ``left`` and
    ``right``: ``(from_left, from_right)``, where ``from_left`` is how a
    new left instance finds its earlier partners in ``right``.

    ``predicates``, the variable sets and ``kleene`` are in the join's
    namespace; ``*_rename`` map it to each store's own binding names (a
    shared DAG edge), identity when None.  A self-join (both sides one
    store) registers two indexes there.
    """
    left_vars, right_vars = set(left_vars), set(right_vars)
    merge = partial(
        compile_merge_kernel, kleene=kleene, metrics=metrics, codegen=codegen
    )
    from_left = AccessPath(
        right,
        right.iter_before,
        predicates,
        partial(
            merge,
            left_variables=left_vars,
            right_variables=right_vars,
            left_rename=left_rename,
            right_rename=right_rename,
        ),
    )
    from_right = AccessPath(
        left,
        left.iter_before,
        predicates,
        partial(
            merge,
            left_variables=right_vars,
            right_variables=left_vars,
            left_rename=right_rename,
            right_rename=left_rename,
        ),
    )
    split = _extract(predicates, left_vars, right_vars, kleene) if indexed else None
    if split is not None:
        left_spec, right_spec, range_spec, residual = split
        left_key = _key_fn(left_spec, kleene, left_rename)
        right_key = _key_fn(right_spec, kleene, right_rename)
        left_val = right_val = left_op = right_op = range_pred = None
        if range_spec is not None:
            left_item, left_op, right_item, right_op, range_pred = range_spec
            left_val = _value_fn(left_item, left_rename)
            right_val = _value_fn(right_item, right_rename)
        from_left._index(
            right.add_index(right_key, value_of=right_val, op=right_op),
            left_key,
            left_val,
            range_pred,
            residual,
        )
        from_right._index(
            left.add_index(left_key, value_of=left_val, op=left_op),
            right_key,
            right_val,
            range_pred,
            residual,
        )
    return from_left, from_right


def extension_kernel(
    predicates, bound, variable, kleene, metrics, codegen,
    tracker=None, sel_key_by_pred=None,
):
    """Kernel binding ``variable`` onto an instance holding ``bound``
    minus it: the predicates whose variables are all bound by then (an
    NFA transition, or a Kleene absorption at that position)."""
    return compile_extension_kernel(
        [p for p in predicates if set(p.variables) <= bound],
        variable,
        kleene,
        metrics,
        tracker=tracker,
        sel_key_by_pred=sel_key_by_pred,
        codegen=codegen,
    )


def transition_paths(
    predicates: list,
    prior: Iterable[str],
    variable: str,
    kleene: Iterable[str],
    state,
    buffer,
    metrics,
    indexed: bool = True,
    codegen: bool = True,
):
    """The two probing sides of an NFA chain transition between
    ``state`` (instances binding ``prior``) and ``buffer`` (the events
    of ``variable``): ``(into_state, into_buffer)``.

    ``into_state`` is how an arriving event finds the instances it
    extends (every stored trigger predates it, so its unindexed scan is
    the whole state); ``into_buffer`` is how a new instance finds the
    earlier buffered events.  ``predicates`` are the predicates
    involving ``variable``; both sides check the same lists.
    """
    prior = tuple(prior)
    kernel_of = partial(
        extension_kernel,
        bound=set(prior) | {variable},
        variable=variable,
        kleene=kleene,
        metrics=metrics,
        codegen=codegen,
    )
    into_state = AccessPath(
        state, lambda _trigger_seq: iter(state), predicates, kernel_of
    )
    into_buffer = AccessPath(
        buffer, buffer.events_before, predicates, kernel_of
    )
    split = _extract(predicates, prior, (variable,), kleene) if indexed else None
    if split is not None:
        prior_spec, event_spec, range_spec, residual = split
        pm_key = make_key_fn(prior_spec, kleene)
        ev_key = make_event_key_fn(event_spec)
        pm_val = ev_val = state_op = buffer_op = range_pred = None
        if range_spec is not None:
            prior_item, state_op, event_item, buffer_op, range_pred = range_spec
            pm_val = make_value_fn(prior_item)
            ev_val = make_event_value_fn(event_item)
        into_state._index(
            state.add_index(pm_key, value_of=pm_val, op=state_op),
            ev_key,
            ev_val,
            range_pred,
            residual,
        )
        into_buffer._index(
            buffer.set_index(ev_key, value_of=ev_val, op=buffer_op),
            pm_key,
            pm_val,
            range_pred,
            residual,
        )
    return into_state, into_buffer
