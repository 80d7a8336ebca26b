"""CEP pattern language: operators, predicates, parser, transformations,
and the compiled predicate kernels of the engine hot path."""

from .compile import (
    clear_codegen_cache,
    codegen_cache_size,
    compile_event_kernel,
    compile_extension_kernel,
    compile_merge_kernel,
)
from .formatter import format_pattern
from .operators import And, Kleene, Not, Or, PatternNode, Primitive, Seq
from .parser import parse_pattern
from .pattern import Pattern
from .predicates import (
    Adjacent,
    Attr,
    Comparison,
    ConditionSet,
    Const,
    FunctionPredicate,
    Predicate,
    TimestampOrder,
)
from .transformations import (
    DecomposedPattern,
    NegationSpec,
    add_contiguity_predicates,
    decompose,
    kleene_planning_rate,
    nested_to_dnf,
    sequence_to_conjunction,
    with_partition_serials,
)

__all__ = [
    "clear_codegen_cache",
    "codegen_cache_size",
    "compile_event_kernel",
    "compile_extension_kernel",
    "compile_merge_kernel",
    "format_pattern",
    "And",
    "Kleene",
    "Not",
    "Or",
    "PatternNode",
    "Primitive",
    "Seq",
    "parse_pattern",
    "Pattern",
    "Adjacent",
    "Attr",
    "Comparison",
    "ConditionSet",
    "Const",
    "FunctionPredicate",
    "Predicate",
    "TimestampOrder",
    "DecomposedPattern",
    "NegationSpec",
    "add_contiguity_predicates",
    "decompose",
    "kleene_planning_rate",
    "nested_to_dnf",
    "sequence_to_conjunction",
    "with_partition_serials",
]
