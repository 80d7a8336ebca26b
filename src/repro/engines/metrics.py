"""Engine instrumentation.

The paper's performance metrics (Section 7.2):

* **throughput** — primitive events processed per second of wall time
  (computed by the runner from ``events_processed`` and elapsed time);
* **memory** — we report the partial-match and buffered-event peaks, the
  quantities the cost model predicts and the dominant memory terms (see
  DESIGN.md, "Substitutions");
* **latency** — per-match detection latency in stream-time units
  (Section 6.1), summarized here.

Field reference
---------------

The field table below is generated from
:data:`repro.engines.instruments.INSTRUMENTS` — the same data the
:class:`~repro.observe.registry.MetricsRegistry` exporters and the
README failure-mode matrix render — so the docs and the instruments
cannot drift apart.

{FIELD_TABLE}

The seven fault-tolerance counters are plain counters: they **add** under
both the concurrent and the sequential merge modes (each side's crashes
and retries happened regardless of whether the engines coexisted).
They are recorded by the :class:`~repro.service.session.WorkerPool` at
the driver, not inside workers, so worker-side metrics carry zeros and
the fold happens once, at finish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .instruments import DERIVED_SUMMARY, INSTRUMENTS, field_table_rst

if __doc__ is not None:  # stripped under ``python -OO``
    __doc__ = __doc__.replace("{FIELD_TABLE}", field_table_rst())


class LatencyHistogram:
    """A mergeable log-bucketed latency histogram.

    Values (seconds) land in geometrically spaced buckets —
    ``_GROWTH``-factor steps starting at ``_FLOOR`` — so the full
    microsecond-to-minute range is covered by ~120 integer counters,
    percentiles are exact to one bucket width (< 10% relative error),
    and two histograms merge by adding counts.  That mergeability is
    the point: per-worker histograms combine into a session-wide one
    exactly like the scalar counters in :class:`EngineMetrics`, under
    both the concurrent and the sequential merge rules (counts are
    counters; there is no peak semantics to distinguish).

    ``record`` is O(1); ``percentile`` walks the bucket table (bounded,
    small).  ``min``/``max``/``sum`` are tracked exactly, so ``mean``
    does not suffer bucket quantization.
    """

    #: Smallest resolvable latency (seconds); everything below lands in
    #: bucket 0.
    _FLOOR = 1e-6
    #: Geometric bucket growth: <10% relative quantization error.
    _GROWTH = 1.2
    _LOG_GROWTH = math.log(_GROWTH)

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    # -- updates ------------------------------------------------------------
    def record(self, seconds: float) -> None:
        if seconds < 0.0:
            seconds = 0.0
        bucket = self._bucket_of(seconds)
        self.counts[bucket] = self.counts.get(bucket, 0) + 1
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @classmethod
    def _bucket_of(cls, seconds: float) -> int:
        if seconds <= cls._FLOOR:
            return 0
        return 1 + int(math.log(seconds / cls._FLOOR) / cls._LOG_GROWTH)

    @classmethod
    def _bucket_upper(cls, bucket: int) -> float:
        if bucket == 0:
            return cls._FLOOR
        return cls._FLOOR * cls._GROWTH ** bucket

    # -- summaries ------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """Latency at quantile ``q`` in [0, 1] (bucket upper bound,
        clamped to the exactly-tracked min/max)."""
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * self.count
        seen = 0
        for bucket in sorted(self.counts):
            seen += self.counts[bucket]
            if seen >= rank:
                value = self._bucket_upper(bucket)
                return min(max(value, self.min), self.max)
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """New histogram holding both sides' samples (counts add)."""
        merged = LatencyHistogram()
        merged.counts = dict(self.counts)
        for bucket, count in other.counts.items():
            merged.counts[bucket] = merged.counts.get(bucket, 0) + count
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged

    @classmethod
    def of(cls, values: Iterable[float]) -> "LatencyHistogram":
        histogram = cls()
        for value in values:
            histogram.record(value)
        return histogram

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready summary + bucket table (benchmark artifacts)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": {str(k): v for k, v in sorted(self.counts.items())},
        }

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        if not self.count:
            return "LatencyHistogram(empty)"
        return (
            f"LatencyHistogram({self.count} samples, "
            f"p50={self.p50:.6f}s, p95={self.p95:.6f}s, "
            f"p99={self.p99:.6f}s)"
        )


@dataclass
class EngineMetrics:
    """Counters and peaks collected while an engine runs.

    See the module docstring for the full field table.
    """

    events_processed: int = 0
    matches_emitted: int = 0
    partial_matches_created: int = 0
    peak_partial_matches: int = 0
    peak_buffered_events: int = 0
    predicate_evaluations: int = 0
    index_probes: int = 0
    index_hits: int = 0
    index_misses: int = 0
    range_probes: int = 0
    range_hits: int = 0
    predicate_kernel_calls: int = 0
    kernels_generated: int = 0
    codegen_cache_hits: int = 0
    pm_expired: int = 0
    events_reordered: int = 0
    events_late_dropped: int = 0
    retractions_processed: int = 0
    matches_retracted: int = 0
    events_routed: int = 0
    worker_count: int = 0
    selectivity_observations: int = 0
    migrations: int = 0
    pm_migrated: int = 0
    matches_saved_by_migration: int = 0
    worker_crashes: int = 0
    worker_reseeds: int = 0
    socket_reconnects: int = 0
    heartbeats_missed: int = 0
    shards_degraded: int = 0
    shards_repromoted: int = 0
    send_retries: int = 0
    latencies: list = field(default_factory=list)
    wall_latencies: list = field(default_factory=list)
    detection_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    watermark_lag: LatencyHistogram = field(default_factory=LatencyHistogram)

    # -- updates ------------------------------------------------------------
    def note_state(self, live_partial_matches: int, buffered_events: int) -> None:
        """Record the current live totals (called once per event)."""
        if live_partial_matches > self.peak_partial_matches:
            self.peak_partial_matches = live_partial_matches
        if buffered_events > self.peak_buffered_events:
            self.peak_buffered_events = buffered_events

    def note_match(self, latency: float, wall_latency: float = 0.0) -> None:
        self.matches_emitted += 1
        self.latencies.append(latency)
        self.wall_latencies.append(wall_latency)

    # -- summaries ------------------------------------------------------------
    @property
    def peak_memory_units(self) -> int:
        """Peak partial matches + buffered events: the memory proxy."""
        return self.peak_partial_matches + self.peak_buffered_events

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def max_latency(self) -> float:
        return max(self.latencies, default=0.0)

    @property
    def mean_wall_latency(self) -> float:
        """Mean wall-clock detection latency in seconds (Section 6.1)."""
        if not self.wall_latencies:
            return 0.0
        return sum(self.wall_latencies) / len(self.wall_latencies)

    @property
    def max_wall_latency(self) -> float:
        return max(self.wall_latencies, default=0.0)

    def merge(
        self,
        other: "EngineMetrics",
        concurrent: bool = True,
    ) -> "EngineMetrics":
        """Combine the metrics of two engines into one report.

        Each field merges by its declared
        :class:`~repro.engines.instruments.Instrument` kind.  Counters
        add — ``events_processed`` too: merged engines each count the
        events they were fed (parallel workers their shards, adaptive
        generations their stream segments) — and sample lists
        concatenate in order.  Histograms merge bucket-wise.  With
        ``concurrent=True`` (the default) peaks add as well because the
        merged engines run side by side, so their live structures
        coexist (parallel workers over stream shards).
        ``concurrent=False`` takes the max of the peaks instead — the
        rule for *sequential* engine generations, e.g. the adaptive
        controller's retired engines, whose stores never coexist.
        """
        merged = EngineMetrics()
        for entry in INSTRUMENTS:
            mine = getattr(self, entry.name)
            theirs = getattr(other, entry.name)
            if entry.kind == "histogram":
                value = mine.merge(theirs)
            elif entry.kind == "peak" and not concurrent:
                value = max(mine, theirs)
            else:
                value = mine + theirs
            setattr(merged, entry.name, value)
        return merged

    def summary(self) -> dict:
        """Plain-dict summary for reports.

        Generated from :data:`repro.engines.instruments.INSTRUMENTS`
        (plus the derived convenience entries), so a new counter shows
        up here — and in every registry exporter — by describing it
        once.
        """
        out: dict = {}
        for entry in INSTRUMENTS:
            if not entry.summary_key:
                continue
            value = getattr(self, entry.name)
            if entry.kind == "histogram":
                continue  # appended last, like the hand-rolled dict
            out[entry.summary_key] = value
        for key, prop in DERIVED_SUMMARY:
            out[key] = getattr(self, prop)
        out["detection_latency"] = self.detection_latency.to_dict()
        out["watermark_lag"] = self.watermark_lag.to_dict()
        return out
