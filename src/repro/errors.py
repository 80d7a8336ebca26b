"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at API boundaries while still being able
to distinguish configuration mistakes (:class:`PatternError`,
:class:`PlanError`) from runtime statistics problems
(:class:`StatisticsError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class PatternError(ReproError):
    """An invalid pattern definition (bad operator nesting, empty pattern,
    unknown event type referenced by a predicate, ...)."""


class PatternParseError(PatternError):
    """The SASE-like textual pattern specification could not be parsed."""


class PlanError(ReproError):
    """An evaluation plan is malformed or inconsistent with its pattern."""


class StatisticsError(ReproError):
    """Missing or invalid stream statistics (rates, selectivities)."""


class OptimizerError(ReproError):
    """A plan-generation algorithm was invoked with unsupported input."""


class EngineError(ReproError):
    """Runtime failure of an evaluation engine."""


class ReductionError(ReproError):
    """A CPG<->JQPG reduction cannot be applied to the given input."""


class ParallelError(ReproError):
    """The parallel runtime cannot partition or execute the given plan
    (inapplicable partitioner, unsupported selection strategy, worker
    failure, unusable routing key, ...)."""


class WorkerCrashError(ParallelError):
    """A session worker died mid-stream and the run could not be
    recovered.  "Died" covers a killed process, a dropped shard
    connection, and a worker that stayed silent past the configured
    liveness deadline (``ParallelConfig.liveness_seconds``) — frozen
    workers surface here instead of hanging the run.  Raised when
    recovery is disabled (``ParallelConfig.recovery="fail"``), when the
    crashed worker's backend is not restartable, or when every
    reconnect attempt
    (``reconnect_attempts``, exponential backoff) failed and
    ``degradation="fail"`` — set ``degradation="local"`` to demote the
    dead shard's partitions to a local worker instead."""
