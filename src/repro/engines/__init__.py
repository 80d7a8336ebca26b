"""Evaluation engines: lazy NFA and instance-based tree runtime."""

from .base import (
    SELECTION_ANY,
    SELECTION_NEXT,
    SELECTION_PARTITION,
    SELECTION_STRICT,
    BaseEngine,
)
from .buffers import VariableBuffer
from .factory import (
    DisjunctionEngine,
    build_engine,
    build_engine_from_parts,
    build_engines,
)
from .matches import Match, PartialMatch
from .metrics import EngineMetrics, LatencyHistogram
from .negation import NegationChecker
from .nfa import NFAEngine
from .profiler import OutputProfiler
from .reference import reference_match_keys
from .snapshot import EngineSnapshot, describe_partial_match, snapshot_pm_count
from .stores import PartialMatchStore, kleene_key_value, make_key_fn
from .tree import TreeEngine

__all__ = [
    "SELECTION_ANY",
    "SELECTION_NEXT",
    "SELECTION_PARTITION",
    "SELECTION_STRICT",
    "BaseEngine",
    "VariableBuffer",
    "DisjunctionEngine",
    "build_engine",
    "build_engine_from_parts",
    "build_engines",
    "Match",
    "PartialMatch",
    "EngineMetrics",
    "LatencyHistogram",
    "EngineSnapshot",
    "describe_partial_match",
    "snapshot_pm_count",
    "NegationChecker",
    "NFAEngine",
    "OutputProfiler",
    "PartialMatchStore",
    "kleene_key_value",
    "make_key_fn",
    "reference_match_keys",
    "TreeEngine",
]
