"""Evaluation engines: the lazy NFA plus the machinery both runtimes
share.  The plan-DAG runtime that runs tree plans, disjunctions and
workloads lives in :mod:`repro.multiquery.executor`; the factory here
builds either."""

from .base import (
    SELECTION_ANY,
    SELECTION_NEXT,
    SELECTION_PARTITION,
    SELECTION_STRICT,
    BaseEngine,
)
from .buffers import VariableBuffer
from .factory import (
    build_engine,
    build_engine_from_parts,
    build_engines,
    build_runtime,
)
from .matches import Match, PartialMatch
from .metrics import EngineMetrics, LatencyHistogram
from .negation import NegationChecker
from .nfa import NFAEngine
from .profiler import OutputProfiler
from .reference import reference_match_keys
from .snapshot import EngineSnapshot, describe_partial_match
from .stores import PartialMatchStore, kleene_key_value, make_key_fn

__all__ = [
    "SELECTION_ANY",
    "SELECTION_NEXT",
    "SELECTION_PARTITION",
    "SELECTION_STRICT",
    "BaseEngine",
    "VariableBuffer",
    "build_engine",
    "build_engine_from_parts",
    "build_engines",
    "build_runtime",
    "Match",
    "PartialMatch",
    "EngineMetrics",
    "LatencyHistogram",
    "EngineSnapshot",
    "describe_partial_match",
    "NegationChecker",
    "NFAEngine",
    "OutputProfiler",
    "PartialMatchStore",
    "kleene_key_value",
    "make_key_fn",
    "reference_match_keys",
]
