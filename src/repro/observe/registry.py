"""Metrics registry + exporters: named instruments over engine metrics.

A :class:`MetricsRegistry` wraps the existing telemetry —
:class:`~repro.engines.metrics.EngineMetrics` counters,
:class:`~repro.engines.metrics.LatencyHistogram`, the driver-side
fault counters, :class:`~repro.engines.profiler.OutputProfiler` —
into *named* counter / gauge / histogram instruments described once in
:data:`repro.engines.instruments.INSTRUMENTS`, and exports them two
ways:

* :meth:`MetricsRegistry.prometheus` — Prometheus text exposition
  (``# HELP`` / ``# TYPE`` / samples, histogram ``_bucket``/``_sum``/
  ``_count`` series), scrape-ready;
* :meth:`MetricsRegistry.snapshot` — a JSON-ready dict (the same data,
  machine-readable for artifacts and the report CLI).

The registry also owns bounded ring-buffer :class:`TimeSeries` the
service runtime samples into (ingest queue depth, backpressure blocks
and sheds, streaming frontier lag, per-worker liveness age) — capacity
bounded, so an always-on session cannot leak through its own
observability.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..engines.instruments import INSTRUMENTS
from ..engines.metrics import EngineMetrics, LatencyHistogram

#: Default ring-buffer capacity for a time series.
DEFAULT_SERIES_CAPACITY = 512


class TimeSeries:
    """A bounded ring buffer of ``(t, value)`` samples."""

    __slots__ = ("name", "_points", "_clock")

    def __init__(
        self,
        name: str,
        capacity: int = DEFAULT_SERIES_CAPACITY,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self._points: deque = deque(maxlen=capacity)
        self._clock = clock

    def sample(self, value: float, t: Optional[float] = None) -> None:
        self._points.append((self._clock() if t is None else t, value))

    @property
    def last(self) -> Optional[float]:
        return self._points[-1][1] if self._points else None

    def points(self) -> List[Tuple[float, float]]:
        return list(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:
        return f"TimeSeries({self.name!r}, {len(self._points)} samples)"


def _prom_escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_prom_escape(str(val))}"'
        for key, val in sorted(labels.items())
    )
    return "{" + inner + "}"


class MetricsRegistry:
    """Named instruments over live metric sources.

    Sources are *suppliers* — zero-argument callables returning the
    current :class:`EngineMetrics` — so one registry stays accurate
    across an engine swap (the adaptive controller's ``metrics``
    property) or a session's worker churn.  Bind with
    :meth:`bind_metrics`; plain values with :meth:`gauge`.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._sources: List[Tuple[str, Callable[[], EngineMetrics]]] = []
        self._gauges: Dict[str, Tuple[Callable[[], float], str]] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._profilers: List[Tuple[str, object]] = []

    # -- binding -------------------------------------------------------------
    def bind_metrics(self, supplier, source: str = "engine") -> None:
        """Register a metrics source.

        ``supplier`` is an :class:`EngineMetrics` or a callable
        returning one; ``source`` becomes the Prometheus label that
        keeps several sources apart.
        """
        if not callable(supplier):
            metrics = supplier
            supplier = lambda _m=metrics: _m  # noqa: E731
        self._sources.append((source, supplier))

    def gauge(
        self, name: str, supplier, help: str = ""  # noqa: A002
    ) -> None:
        """Register a named gauge (value or zero-argument callable)."""
        if not callable(supplier):
            value = supplier
            supplier = lambda _v=value: _v  # noqa: E731
        self._gauges[name] = (supplier, help)

    def series(
        self, name: str, capacity: int = DEFAULT_SERIES_CAPACITY
    ) -> TimeSeries:
        """Get or create the named ring-buffer time series."""
        existing = self._series.get(name)
        if existing is None:
            existing = self._series[name] = TimeSeries(name, capacity)
        return existing

    def bind_profiler(self, profiler, source: str = "profiler") -> None:
        """Surface an :class:`~repro.engines.profiler.OutputProfiler`:
        the observed arrival-order distribution and the most probable
        last variable become gauges."""
        self._profilers.append((source, profiler))

    # -- aggregation ---------------------------------------------------------
    def _collect(self) -> List[Tuple[str, EngineMetrics]]:
        return [(source, supplier()) for source, supplier in self._sources]

    def merged_metrics(self) -> EngineMetrics:
        """All sources folded into one (concurrent disjoint shards)."""
        merged = EngineMetrics()
        for _, metrics in self._collect():
            merged = merged.merge(metrics, concurrent=True)
        return merged

    # -- JSON export ---------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready snapshot of every instrument."""
        sources = {
            source: metrics.summary() for source, metrics in self._collect()
        }
        gauges = {}
        for name, (supplier, _) in sorted(self._gauges.items()):
            try:
                gauges[name] = supplier()
            except Exception:  # noqa: BLE001 — a dead gauge must not
                gauges[name] = None  # take the whole snapshot down
        profilers = {}
        for source, profiler in self._profilers:
            profilers[source] = {
                "observed": profiler.observed,
                "most_probable_last": profiler.most_frequent_last(),
                "last_distribution": profiler.last_distribution(),
            }
        return {
            "namespace": self.namespace,
            "sources": sources,
            "gauges": gauges,
            "profilers": profilers,
            "series": {
                name: series.points()
                for name, series in sorted(self._series.items())
            },
        }

    # -- Prometheus export ---------------------------------------------------
    def prometheus(self) -> str:
        """Prometheus text-exposition snapshot of every instrument."""
        ns = self.namespace
        lines: List[str] = []
        collected = self._collect()
        for entry in INSTRUMENTS:
            if entry.kind == "samples":
                continue
            if entry.kind == "histogram":
                self._histogram_lines(lines, entry, collected)
                continue
            metric = f"{ns}_{entry.name}"
            if entry.kind == "counter":
                metric += "_total"
            lines.append(f"# HELP {metric} {_prom_escape(entry.help)}")
            prom_type = "counter" if entry.kind == "counter" else "gauge"
            lines.append(f"# TYPE {metric} {prom_type}")
            for source, metrics in collected:
                value = getattr(metrics, entry.name)
                lines.append(
                    f"{metric}{_labels_text({'source': source})} {value}"
                )
        for name, (supplier, help_text) in sorted(self._gauges.items()):
            metric = f"{ns}_{name}"
            if help_text:
                lines.append(f"# HELP {metric} {_prom_escape(help_text)}")
            lines.append(f"# TYPE {metric} gauge")
            try:
                lines.append(f"{metric} {supplier()}")
            except Exception:  # noqa: BLE001
                lines.append(f"{metric} NaN")
        for source, profiler in self._profilers:
            metric = f"{ns}_profiler_last_variable_share"
            lines.append(
                f"# HELP {metric} empirical probability the variable "
                "arrives last in a match"
            )
            lines.append(f"# TYPE {metric} gauge")
            most = profiler.most_frequent_last()
            for variable, share in sorted(
                profiler.last_distribution().items()
            ):
                labels = {"source": source, "variable": variable}
                if variable == most:
                    labels["most_probable"] = "true"
                lines.append(f"{metric}{_labels_text(labels)} {share}")
            observed = f"{ns}_profiler_observed_total"
            lines.append(
                f"# HELP {observed} matches the output profiler inspected"
            )
            lines.append(f"# TYPE {observed} counter")
            lines.append(
                f"{observed}{_labels_text({'source': source})} "
                f"{profiler.observed}"
            )
        for name, series in sorted(self._series.items()):
            metric = f"{ns}_{name}"
            lines.append(
                f"# HELP {metric} last sample of the {name} time series"
            )
            lines.append(f"# TYPE {metric} gauge")
            last = series.last
            lines.append(f"{metric} {last if last is not None else 'NaN'}")
        return "\n".join(lines) + "\n"

    def _histogram_lines(self, lines, entry, collected) -> None:
        metric = f"{self.namespace}_{entry.name}_seconds"
        lines.append(f"# HELP {metric} {_prom_escape(entry.help)}")
        lines.append(f"# TYPE {metric} histogram")
        for source, metrics in collected:
            histogram: LatencyHistogram = getattr(metrics, entry.name)
            cumulative = 0
            for bucket in sorted(histogram.counts):
                cumulative += histogram.counts[bucket]
                upper = histogram._bucket_upper(bucket)
                labels = _labels_text({"source": source, "le": f"{upper:.9g}"})
                lines.append(f"{metric}_bucket{labels} {cumulative}")
            labels = _labels_text({"source": source, "le": "+Inf"})
            lines.append(f"{metric}_bucket{labels} {histogram.count}")
            lines.append(
                f"{metric}_sum{_labels_text({'source': source})} "
                f"{histogram.total}"
            )
            lines.append(
                f"{metric}_count{_labels_text({'source': source})} "
                f"{histogram.count}"
            )

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({self.namespace!r}, "
            f"{len(self._sources)} sources, {len(self._gauges)} gauges, "
            f"{len(self._series)} series)"
        )
