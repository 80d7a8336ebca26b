"""Workloads of patterns and canonical sub-pattern fingerprints.

A production CEP deployment serves many patterns over one stream; the
whole point of multi-query optimization (Dossinger & Michel,
arXiv:2104.07742) is that those patterns overlap — they watch the same
event types under the same predicates — so their evaluation plans can
share sub-results instead of recomputing them per query.

:class:`Workload` is the container: an ordered set of named patterns
destined for joint planning.  :func:`canonical_subpattern` is the
common-subexpression detector underneath the sharing optimizer
(:mod:`repro.multiquery.sharing`): it maps a subset of a pattern's
positive variables to a *fingerprint* — a canonical description of the
sub-pattern induced by those variables (event types, unary filters,
Kleene flags, the predicates among them, and the time window) that is
invariant under variable renaming.

Soundness of fingerprint-based merging rests on an invariant of the
instance-based plan-DAG runtime (:mod:`repro.multiquery.executor`):
the store of a plan node with leaf set ``V`` contains exactly the
bindings over ``V`` that satisfy *every* pattern predicate restricted
to ``V`` and fit the window — independent of the node's interior join
shape.  (Negation checks only ever sit on nodes a single root reads.)
The fingerprint captures precisely those ingredients, expressed over
canonical variable indices, so **equal fingerprints imply identical
stores**: two sub-patterns with the same fingerprint are literally the
same canonical structure, and the index-to-index correspondence is a
semantics-preserving variable renaming.  Unrecognized predicate kinds
fingerprint by object identity — they can never cause a false merge,
only a missed one.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import PatternError
from ..patterns.parser import parse_pattern
from ..patterns.pattern import Pattern
from ..patterns.predicates import (
    Adjacent,
    Attr,
    Comparison,
    Const,
    FunctionPredicate,
    Operand,
    Predicate,
)
from ..patterns.transformations import DecomposedPattern

Fingerprint = tuple


class Workload:
    """An ordered collection of uniquely named patterns over one stream.

    Accepts :class:`~repro.patterns.Pattern` objects or pattern-language
    strings (parsed with :func:`repro.patterns.parse_pattern`).  Query
    names default to the pattern's own name; collisions are uniquified
    with a ``#<k>`` suffix so per-query match reporting stays unambiguous.
    """

    __slots__ = ("_patterns",)

    def __init__(self, patterns: Iterable[Union[Pattern, str]]) -> None:
        resolved: Dict[str, Pattern] = {}
        for item in patterns:
            pattern = parse_pattern(item) if isinstance(item, str) else item
            name = pattern.name
            if name in resolved:
                suffix = 2
                while f"{name}#{suffix}" in resolved:
                    suffix += 1
                name = f"{name}#{suffix}"
            resolved[name] = pattern
        if not resolved:
            raise PatternError("a workload needs at least one pattern")
        self._patterns = resolved

    @classmethod
    def of(cls, *patterns: Union[Pattern, str]) -> "Workload":
        """Variadic convenience constructor."""
        return cls(patterns)

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self._patterns)

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._patterns.values())

    def __getitem__(self, name: str) -> Pattern:
        return self._patterns[name]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._patterns)

    def items(self) -> List[Tuple[str, Pattern]]:
        """``(query_name, pattern)`` pairs in insertion order."""
        return list(self._patterns.items())

    def event_types(self) -> set:
        """All event type names any query references."""
        types: set = set()
        for pattern in self:
            types.update(pattern.variable_types().values())
        return types

    def __repr__(self) -> str:
        return f"Workload({len(self._patterns)} queries: {list(self._patterns)})"


# ---------------------------------------------------------------------------
# Canonical fingerprints
# ---------------------------------------------------------------------------

def _operand_signature(operand: Operand, index: Mapping[str, object]) -> tuple:
    if isinstance(operand, Attr):
        return ("attr", index[operand.variable], operand.attribute)
    if isinstance(operand, Const):
        return ("const", repr(operand.value))
    return ("operand", id(operand))


def predicate_signature(
    predicate: Predicate, index: Mapping[str, object]
) -> tuple:
    """Structural signature of one predicate under a variable renaming.

    ``index`` maps each referenced variable to its canonical stand-in
    (an integer position, or a marker like ``"self"`` during refinement).
    Unknown predicate classes degrade to identity-based signatures:
    shareable only with themselves, which keeps merging conservative.
    """
    if isinstance(predicate, Comparison):
        return (
            "cmp",
            _operand_signature(predicate.left, index),
            predicate.op,
            _operand_signature(predicate.right, index),
        )
    if isinstance(predicate, Adjacent):
        return (
            "adj",
            index[predicate.before],
            index[predicate.after],
            predicate.mode,
        )
    if isinstance(predicate, FunctionPredicate):
        return (
            "fn",
            predicate.name,
            id(predicate.fn),
            tuple(index[v] for v in predicate.variables),
        )
    return ("opaque", id(predicate))


def _variable_base_colors(
    decomposed: DecomposedPattern,
    variables: Sequence[str],
    unary: Mapping[str, list],
) -> Dict[str, tuple]:
    types = dict(decomposed.positives)
    colors: Dict[str, tuple] = {}
    for variable in variables:
        filter_sigs = tuple(
            sorted(
                repr(predicate_signature(p, {variable: "self"}))
                for p in unary[variable]
            )
        )
        colors[variable] = (
            types[variable],
            variable in decomposed.kleene,
            filter_sigs,
        )
    return colors


def canonical_subpattern(
    decomposed: DecomposedPattern,
    variables: Sequence[str],
) -> Tuple[Fingerprint, Tuple[str, ...]]:
    """Fingerprint the sub-pattern induced by ``variables``.

    Returns ``(fingerprint, canonical_order)``: the rename-invariant key
    plus the variables listed in their canonical order.  Two calls (for
    possibly different patterns) returning equal fingerprints define a
    semantics-preserving bijection: position ``i`` of one canonical
    order corresponds to position ``i`` of the other.

    Only the *positive* structure is fingerprinted; negation specs stay
    per-query (the executor applies them at query roots), so a negated
    and an unnegated query can still share their positive sub-plans.
    """
    names = tuple(variables)
    subset = set(names)
    known = set(decomposed.positive_variables)
    unknown = subset - known
    if unknown:
        raise PatternError(
            f"variables {sorted(unknown)} are not positive variables of "
            "the pattern"
        )

    involved: List[Predicate] = [
        p
        for p in decomposed.conditions
        if set(p.variables) <= subset
    ]
    unary: Dict[str, list] = {v: [] for v in names}
    binary: List[Predicate] = []
    for predicate in involved:
        if len(predicate.variables) == 1:
            unary[predicate.variables[0]].append(predicate)
        else:
            binary.append(predicate)

    # Canonical variable order by iterated color refinement: start from
    # (type, kleene, unary filters) and repeatedly fold in the signatures
    # of incident pairwise predicates together with the neighbour's color.
    colors = _variable_base_colors(decomposed, names, unary)
    by_var: Dict[str, List[Predicate]] = {v: [] for v in names}
    for predicate in binary:
        for variable in predicate.variables:
            by_var[variable].append(predicate)
    for _ in range(min(len(names), 3)):
        refined: Dict[str, tuple] = {}
        for variable in names:
            incident = tuple(
                sorted(
                    (
                        repr(
                            predicate_signature(
                                p,
                                {
                                    variable: "self",
                                    _other(p, variable): "other",
                                },
                            )
                        ),
                        repr(colors[_other(p, variable)]),
                    )
                    for p in by_var[variable]
                )
            )
            refined[variable] = (colors[variable], incident)
        colors = refined

    # Stable tie-break by syntactic position: deterministic, and safe —
    # fingerprint equality still implies identical canonical structure.
    syntactic = {v: i for i, v in enumerate(decomposed.positive_variables)}
    order = tuple(
        sorted(names, key=lambda v: (repr(colors[v]), syntactic[v]))
    )
    index = {variable: position for position, variable in enumerate(order)}

    types = dict(decomposed.positives)
    leaf_specs = tuple(
        (
            types[variable],
            variable in decomposed.kleene,
            tuple(
                sorted(
                    repr(predicate_signature(p, {variable: "self"}))
                    for p in unary[variable]
                )
            ),
        )
        for variable in order
    )
    binary_sigs = tuple(
        sorted(repr(predicate_signature(p, index)) for p in binary)
    )
    fingerprint: Fingerprint = (
        len(names),
        decomposed.window,
        leaf_specs,
        binary_sigs,
    )
    return fingerprint, order


def _other(predicate: Predicate, variable: str) -> str:
    first, second = predicate.variables
    return second if first == variable else first


def subpattern_fingerprint(
    decomposed: DecomposedPattern, variables: Sequence[str]
) -> Fingerprint:
    """Just the fingerprint half of :func:`canonical_subpattern`."""
    return canonical_subpattern(decomposed, variables)[0]


def pattern_fingerprint(pattern: Pattern) -> Optional[Fingerprint]:
    """Fingerprint of a whole *simple* pattern's positive part.

    Returns ``None`` for nested or disjunctive patterns (fingerprint
    their DNF disjuncts individually instead).  Useful for spotting
    fully duplicated queries in a workload.
    """
    from ..patterns.transformations import decompose

    if pattern.is_nested or pattern.is_disjunctive:
        return None
    decomposed = decompose(pattern)
    return subpattern_fingerprint(decomposed, decomposed.positive_variables)
