"""Stream partitioning: how one logical stream becomes worker shards.

One rule.  When the pattern's ``Attr == Attr`` predicates place *every*
positive variable in one key-equivalence class, any match binds events
agreeing on that class's attribute values — so routing each event by
the hash of its class attribute sends every match wholly into one
worker (:class:`KeyPartitioner`).  No duplication, no boundary
handling; the same extraction the indexed stores use per join
(:func:`repro.engines.stores.equality_key_pairs`), here closed over the
whole pattern via union-find.  This is the CLASH-style partitioned
join store, and the one sharding that beats the serial engine.

Every other plan — theta-only, Kleene, negation, or a shared plan whose
queries disagree on a key — runs on one worker
(:class:`SingleWorkerRouter`).  Time-sliced and per-query sharding were
measured slower than the serial engine at every worker count: slice
overlap replicates events, and a query split forfeits the sub-joins the
shared plan exists to share.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ParallelError
from ..patterns.predicates import Attr, Comparison
from ..patterns.transformations import DecomposedPattern

_EQUALITY_OPS = ("=", "==")


# ---------------------------------------------------------------------------
# Key partitioning
# ---------------------------------------------------------------------------

def key_routing_map(
    decomposeds: Sequence[DecomposedPattern],
) -> Optional[Dict[str, str]]:
    """Event-type -> attribute routing map, or ``None`` when inapplicable.

    Applicable when, for every decomposed pattern, one equivalence class
    of the ``Attr == Attr`` predicates covers *all* positive variables,
    with a single routing attribute per event type; and when the per-
    pattern maps agree wherever they share an event type.  Patterns
    with Kleene variables (tuple bindings have no single key value) or
    negations (a forbidden event elsewhere in the key space must still
    be visible) disqualify key partitioning; such plans run on one
    worker (:class:`SingleWorkerRouter`).
    """
    merged: Dict[str, str] = {}
    for decomposed in decomposeds:
        local = _pattern_routing_map(decomposed)
        if local is None:
            return None
        for type_name, attr in local.items():
            if merged.setdefault(type_name, attr) != attr:
                return None
    return merged or None


def _pattern_routing_map(
    decomposed: DecomposedPattern,
) -> Optional[Dict[str, str]]:
    if decomposed.kleene or decomposed.negations:
        return None
    variables = set(decomposed.positive_variables)
    # Union-find over (variable, attribute) nodes of the equality graph.
    parent: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def find(node):
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(a, b):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for predicate in decomposed.conditions:
        if not isinstance(predicate, Comparison):
            continue
        if predicate.op not in _EQUALITY_OPS:
            continue
        lhs, rhs = predicate.left, predicate.right
        if not (isinstance(lhs, Attr) and isinstance(rhs, Attr)):
            continue
        if lhs.variable not in variables or rhs.variable not in variables:
            continue
        union(
            (lhs.variable, lhs.attribute), (rhs.variable, rhs.attribute)
        )

    classes: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
    for node in parent:
        classes.setdefault(find(node), []).append(node)

    types = decomposed.variable_types
    candidates: List[Dict[str, str]] = []
    for members in classes.values():
        attrs_by_var: Dict[str, set] = {}
        for variable, attr in members:
            attrs_by_var.setdefault(variable, set()).add(attr)
        if set(attrs_by_var) != variables:
            continue
        # One attribute per event type, shared by every variable of that
        # type (an event routes before anyone knows which variable it
        # will bind).
        attrs_by_type: Dict[str, set] = {}
        for variable, attrs in attrs_by_var.items():
            type_name = types[variable]
            if type_name in attrs_by_type:
                attrs_by_type[type_name] &= attrs
            else:
                attrs_by_type[type_name] = set(attrs)
        if all(attrs_by_type.values()):
            candidates.append(
                {t: min(attrs) for t, attrs in sorted(attrs_by_type.items())}
            )
    if not candidates:
        return None
    # Deterministic choice when several classes qualify.
    return min(candidates, key=lambda m: sorted(m.items()))


class KeyPartitioner:
    """Routes events to workers by equi-join key hash.

    Events of types outside the routing map cannot participate in any
    match and are dropped at the router (they still count toward the
    input, not toward ``events_routed``).
    """

    name = "key"

    def __init__(self, routing: Dict[str, str], workers: int) -> None:
        if workers <= 0:
            raise ParallelError("key partitioning needs workers >= 1")
        self.routing = dict(routing)
        self.workers = workers

    def route(self, event) -> Optional[int]:
        """Worker index for ``event``, or ``None`` to drop it."""
        attr = self.routing.get(event.type)
        if attr is None:
            return None
        value = event.get(attr)
        try:
            return hash(value) % self.workers
        except TypeError:
            raise ParallelError(
                f"unhashable routing key {event.type}.{attr}={value!r}; "
                "key partitioning requires hashable key attributes"
            ) from None

    def __repr__(self) -> str:
        keys = ", ".join(f"{t}.{a}" for t, a in sorted(self.routing.items()))
        return f"KeyPartitioner({keys}; {self.workers} workers)"


class SingleWorkerRouter:
    """Routes every event of a referenced type to worker 0.

    The fallback for plans key partitioning cannot shard: the run keeps
    the pool protocol (and so reseed recovery) on one worker.
    """

    def __init__(self, types: Iterable[str]) -> None:
        self.types = frozenset(types)

    def route(self, event) -> Optional[int]:
        """0 for an event some pattern references, else ``None``."""
        return 0 if event.type in self.types else None
