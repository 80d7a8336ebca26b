"""Instrument descriptions: the single source of metric documentation.

Every counter, peak, and histogram an engine or the service runtime
records is described exactly once, here, as plain data.  Three
consumers render it:

* :mod:`repro.engines.metrics` builds its module-docstring field table
  and :meth:`EngineMetrics.summary` from :data:`INSTRUMENTS`;
* :class:`repro.observe.registry.MetricsRegistry` turns each entry
  into a named Prometheus/JSON instrument;
* the README failure-mode matrix is rendered by
  :func:`failure_matrix_markdown` from :data:`FAILURE_MODES` (a test
  regenerates it and asserts the README block matches, so the docs
  cannot drift from the code).

This module is deliberately import-free (stdlib only, no repro
imports): it sits below :mod:`repro.engines.metrics` in the import
graph, so both the metrics layer and the observe layer can consume it
without cycles.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple


class Instrument(NamedTuple):
    """One described metric.

    ``name`` is the :class:`~repro.engines.metrics.EngineMetrics` field;
    ``kind`` is the instrument type (``counter`` adds under every merge,
    ``peak`` is a high-water gauge, ``histogram`` a mergeable
    :class:`~repro.engines.metrics.LatencyHistogram`); ``summary_key``
    is the key :meth:`EngineMetrics.summary` reports it under;
    ``scope`` groups the field table (engine / parallel / adaptive /
    disorder / service); ``help`` is the one-line Prometheus HELP string;
    ``detail`` is the full field-table prose.
    """

    name: str
    kind: str
    summary_key: str
    scope: str
    help: str
    detail: str


INSTRUMENTS: Tuple[Instrument, ...] = (
    Instrument(
        "events_processed", "counter", "events", "engine",
        "primitive events fed to process() by this engine",
        "primitive events fed to ``process`` by this engine",
    ),
    Instrument(
        "matches_emitted", "counter", "matches", "engine",
        "complete matches reported (all queries)",
        "complete matches reported (all queries)",
    ),
    Instrument(
        "partial_matches_created", "counter", "pm_created", "engine",
        "partial-match instances materialized",
        "partial-match instances materialized (the paper's\n"
        "central cost quantity, Section 4)",
    ),
    Instrument(
        "peak_partial_matches", "peak", "peak_pm", "engine",
        "max live partial matches + pending matches at any note_state",
        "max live partial matches + pending matches seen at\n"
        "any ``note_state`` call (once per event)",
    ),
    Instrument(
        "peak_buffered_events", "peak", "peak_buffered", "engine",
        "max buffered primitive events",
        "max buffered primitive events (variable buffers\n"
        "plus negation candidate buffers)",
    ),
    Instrument(
        "predicate_evaluations", "counter", "predicate_evals", "engine",
        "individual predicate evaluations performed",
        "individual predicate evaluations performed",
    ),
    Instrument(
        "index_probes", "counter", "index_probes", "engine",
        "hash probes against indexed stores",
        "hash probes against indexed stores\n"
        "(:mod:`repro.engines.stores`); each probe replaces\n"
        "a full sibling scan of the seed engines",
    ),
    Instrument(
        "index_hits", "counter", "index_hits", "engine",
        "probes that found a non-empty bucket",
        "probes that found a non-empty bucket",
    ),
    Instrument(
        "index_misses", "counter", "index_misses", "engine",
        "probes whose key paired with nothing at all",
        "probes whose key paired with nothing at all",
    ),
    Instrument(
        "range_probes", "counter", "range_probes", "engine",
        "sorted-run bisects applied for a theta cross-predicate",
        "probes that applied a sorted-run bisect for an\n"
        "``Attr < / <= / > / >= Attr`` cross-predicate\n"
        "(:mod:`repro.engines.stores`); each replaces a\n"
        "full bucket (or store) scan with a value range",
    ),
    Instrument(
        "range_hits", "counter", "range_hits", "engine",
        "range probes that yielded at least one candidate",
        "range probes that yielded at least one candidate",
    ),
    Instrument(
        "predicate_kernel_calls", "counter", "predicate_kernel_calls",
        "engine",
        "invocations of compiled predicate kernels",
        "invocations of compiled predicate kernels\n"
        "(:mod:`repro.patterns.compile`); each replaces a\n"
        "per-candidate bindings merge plus an interpreted\n"
        "AST walk (0 with ``compiled=False``)",
    ),
    Instrument(
        "kernels_generated", "counter", "kernels_generated", "engine",
        "predicate kernels rendered and exec-compiled from source",
        "predicate kernels rendered to straight-line\n"
        "Python source and exec-compiled\n"
        "(:mod:`repro.patterns.compile` codegen backend);\n"
        "0 with ``codegen=False`` or when every kernel\n"
        "shape was already cached",
    ),
    Instrument(
        "codegen_cache_hits", "counter", "codegen_cache_hits", "engine",
        "generated kernels served from the code-object cache",
        "generated kernels served from the process-wide\n"
        "code-object cache instead of re-compiling (the\n"
        "source doubles as a structural signature, so\n"
        "identical kernel shapes compile exactly once per\n"
        "process)",
    ),
    Instrument(
        "pm_expired", "counter", "pm_expired", "engine",
        "partial matches dropped by window expiry",
        "partial matches dropped by watermark-gated window\nexpiry",
    ),
    Instrument(
        "events_reordered", "counter", "events_reordered", "disorder",
        "out-of-order arrivals reordered within the disorder bound",
        "disorder layer (:mod:`repro.streams.disorder`):\n"
        "events that arrived behind the stream-time\n"
        "frontier but within ``max_delay`` and were\n"
        "buffered and released in timestamp order by the\n"
        "watermark",
    ),
    Instrument(
        "events_late_dropped", "counter", "events_late_dropped", "disorder",
        "events later than the watermark, dropped by policy",
        "disorder layer: events that arrived *later* than\n"
        "the watermark allows (``ts < max_seen - max_delay``)\n"
        "and were counted and skipped under the ``\"drop\"``\n"
        "late policy",
    ),
    Instrument(
        "retractions_processed", "counter", "retractions_processed",
        "disorder",
        "retraction/update deltas applied to engine state",
        "disorder layer: ``Retraction``/``Update`` deltas\n"
        "applied to live engine state — incrementally\n"
        "(transitive partial-match purge) or by bounded\n"
        "re-derivation",
    ),
    Instrument(
        "matches_retracted", "counter", "matches_retracted", "disorder",
        "already-reported matches invalidated by a delta",
        "disorder layer: already-reported matches a\n"
        "retraction, update, or late insert invalidated —\n"
        "each emitted a typed ``MatchRetraction`` record",
    ),
    Instrument(
        "events_routed", "counter", "events_routed", "parallel",
        "events dispatched to parallel workers",
        "parallel runtime only (:mod:`repro.parallel`):\n"
        "events dispatched to workers, each to exactly\n"
        "one.  Events of types no pattern references are\n"
        "dropped at the driver",
    ),
    Instrument(
        "worker_count", "counter", "worker_count", "parallel",
        "workers the merged metrics aggregate over",
        "parallel runtime only: workers the merged metrics\n"
        "aggregate over (0 for a single-engine run)",
    ),
    Instrument(
        "selectivity_observations", "counter", "selectivity_observations",
        "engine",
        "predicate outcomes reported to a SelectivityTracker",
        "predicate outcomes reported to an attached\n"
        ":class:`~repro.stats.online.SelectivityTracker`\n"
        "(0 when no tracker is attached; implied\n"
        "SEQ-ordering and contiguity predicates are\n"
        "never observed).  Index probes report too: theta\n"
        "candidates a sorted-run bisect excluded are\n"
        "counted as failed evaluations of the extracted\n"
        "predicate, so bisected selectivity stays unbiased",
    ),
    Instrument(
        "migrations", "counter", "migrations", "adaptive",
        "plan switches performed by the adaptive controller",
        "adaptive runtime only (:mod:`repro.adaptive`):\n"
        "plan switches performed by the controller,\n"
        "under any migration policy",
    ),
    Instrument(
        "pm_migrated", "counter", "pm_migrated", "adaptive",
        "in-flight partial matches preserved across plan switches",
        "adaptive runtime only: in-flight partial\n"
        "matches (live + pending) preserved across plan\n"
        "switches by a stateful migration policy\n"
        "(``recompute`` replay or ``parallel-drain``\n"
        "overlap); 0 under ``restart``",
    ),
    Instrument(
        "matches_saved_by_migration", "counter",
        "matches_saved_by_migration", "adaptive",
        "matches a restart-based swap would have lost",
        "adaptive runtime only: matches that a\n"
        "restart-based swap would have lost — deferred\n"
        "matches drained from the outgoing engine at\n"
        "swap, plus post-swap matches binding at least\n"
        "one pre-swap event",
    ),
    Instrument(
        "worker_crashes", "counter", "worker_crashes", "service",
        "worker deaths the run saw, including healed ones",
        "service runtime only: worker deaths the run saw\n"
        "(transport drops, killed processes, liveness\n"
        "deadline expiries) — including ones recovery\n"
        "then healed",
    ),
    Instrument(
        "worker_reseeds", "counter", "worker_reseeds", "service",
        "replacement workers replayed from the acked window log",
        "service runtime only: replacement workers\n"
        "replayed from the acked window log (each is one\n"
        "healed crash on a seedable run)",
    ),
    Instrument(
        "socket_reconnects", "counter", "socket_reconnects", "service",
        "dead shard connections re-dialed successfully",
        "service runtime only: dead shard connections\n"
        "re-dialed and re-handshaken successfully",
    ),
    Instrument(
        "heartbeats_missed", "counter", "heartbeats_missed", "service",
        "liveness probes unanswered past the heartbeat interval",
        "service runtime only: liveness probes that went\n"
        "unanswered past the heartbeat interval, plus\n"
        "liveness-deadline expiries",
    ),
    Instrument(
        "shards_degraded", "counter", "shards_degraded", "service",
        "workers demoted to a local backend (circuit breaker)",
        "service runtime only: workers demoted to a local\n"
        "backend after reconnection was exhausted (the\n"
        "circuit breaker opening)",
    ),
    Instrument(
        "shards_repromoted", "counter", "shards_repromoted", "service",
        "degraded shards promoted back to their socket endpoint",
        "service runtime only: degraded shards whose dead\n"
        "endpoint answered a half-open re-probe and whose\n"
        "partitions were promoted back to the socket\n"
        "channel (the circuit breaker closing again)",
    ),
    Instrument(
        "send_retries", "counter", "send_retries", "service",
        "messages re-sent on replacement channels + retried dials",
        "service runtime only: messages re-sent on a\n"
        "replacement channel (unacked batch replays) plus\n"
        "connection attempts retried by socket dials",
    ),
    Instrument(
        "latencies", "samples", "", "engine",
        "per-match stream-time detection latencies",
        "per-match stream-time detection latencies",
    ),
    Instrument(
        "wall_latencies", "samples", "", "engine",
        "per-match wall-clock detection latencies (seconds)",
        "per-match wall-clock detection latencies (seconds)",
    ),
    Instrument(
        "detection_latency", "histogram", "detection_latency", "service",
        "end-to-end arrival-to-emission detection latency (seconds)",
        "service runtime (:mod:`repro.service`): mergeable\n"
        ":class:`LatencyHistogram` of end-to-end wall-clock\n"
        "detection latency — event *arrival at the front\n"
        "door* (ingest/feed) to match *emission to the\n"
        "consumer* — with p50/p95/p99 summaries.  Empty\n"
        "outside the service layer; single-engine runs\n"
        "report ``wall_latencies`` instead (which excludes\n"
        "queueing and shipping)",
    ),
    Instrument(
        "watermark_lag", "histogram", "watermark_lag", "disorder",
        "per-event stream-time lag behind the frontier at arrival",
        "disorder layer: mergeable histogram of each\n"
        "arriving event's stream-time lag behind the\n"
        "frontier (``max_seen_ts - event.ts``, clamped at\n"
        "0) — in-order arrivals record 0, the tail shows\n"
        "how much of ``max_delay`` the stream actually\n"
        "used; empty without a disorder buffer",
    ),
)

#: The seven driver-side fault-tolerance counters, in field order.
FAULT_INSTRUMENT_NAMES: Tuple[str, ...] = (
    "worker_crashes",
    "worker_reseeds",
    "socket_reconnects",
    "heartbeats_missed",
    "shards_degraded",
    "shards_repromoted",
    "send_retries",
)

#: Derived summary entries that are not stored fields: ``summary()``
#: key -> the EngineMetrics property (or expression) they report.
DERIVED_SUMMARY: Tuple[Tuple[str, str], ...] = (
    ("peak_memory", "peak_memory_units"),
    ("mean_latency", "mean_latency"),
    ("max_latency", "max_latency"),
    ("mean_wall_latency", "mean_wall_latency"),
)


def instrument(name: str) -> Instrument:
    """Look one entry up by field name (KeyError when undescribed)."""
    for entry in INSTRUMENTS:
        if entry.name == name:
            return entry
    raise KeyError(f"no instrument describes field {name!r}")


class FailureMode(NamedTuple):
    """One row of the README failure-mode matrix.

    ``instruments`` names the :data:`INSTRUMENTS` entries the row's
    observability column cites (each must exist — a rename breaks the
    regeneration test before it breaks a reader); ``events`` names the
    typed runtime events; ``extra`` is free-form observability text.
    """

    failure: str
    detected_by: str
    recovery: str
    instruments: Tuple[str, ...]
    events: Tuple[str, ...]
    extra: Optional[str]


FAILURE_MODES: Tuple[FailureMode, ...] = (
    FailureMode(
        "worker process killed",
        "dead pipe (`TransportDead`)",
        "respawn → re-INIT → SEED from the acked window log → "
        "resend unacked batches",
        ("worker_crashes", "worker_reseeds"),
        ("WorkerCrashed", "WorkerReseeded"),
        None,
    ),
    FailureMode(
        "shard connection dropped / reset mid-frame",
        "socket EOF or send failure",
        "re-dial with exponential backoff + jitter (`connect_attempts`, "
        "`backoff_base/max`), fresh hello handshake, same replay",
        ("socket_reconnects",),
        ("SocketReconnected",),
        None,
    ),
    FailureMode(
        "torn write (partial frame on the wire)",
        "shard sees mid-frame EOF; driver sees dead transport",
        "as above — the epoch protocol makes the half-shipped batch "
        "harmless (replayed batch acks exactly once)",
        ("send_retries",),
        (),
        "fault log `tear` entry",
    ),
    FailureMode(
        "frozen worker (alive but silent)",
        "PING/PONG heartbeat (`heartbeat_seconds`) + liveness deadline "
        "(`liveness_seconds`)",
        "treated as a crash once the deadline expires — no more hung "
        "`finish()`",
        ("heartbeats_missed",),
        (),
        None,
    ),
    FailureMode(
        "shard server restarted",
        "connection death + successful re-dial",
        "re-handshake to the new server, full epoch replay",
        ("socket_reconnects",),
        (),
        None,
    ),
    FailureMode(
        "shard gone for good",
        "`reconnect_attempts` exhausted",
        "**circuit breaker**: `degradation=\"local\"` demotes the "
        "shard's partitions to a local `degrade_backend` worker, "
        "reseeded from the same log; `degradation=\"fail\"` raises the "
        "typed error",
        ("shards_degraded",),
        ("ShardDegraded",),
        None,
    ),
    FailureMode(
        "degraded shard comes back",
        "half-open re-probe: periodic PING against the dead endpoint "
        "(`repromote_seconds`, exponential backoff)",
        "**circuit breaker closes**: the shard's partitions are promoted "
        "back to a fresh socket channel, reseeded from the same acked "
        "window log; probe failures leave the local worker serving",
        ("shards_repromoted",),
        ("ShardRepromoted",),
        None,
    ),
    FailureMode(
        "poisoned / oversized frame at a shard",
        "`FrameCorrupt` / `FrameTooLarge` (`max_frame_bytes`)",
        "shard replies a typed ERROR and closes *that* connection; "
        "other connections and the accept loop keep serving",
        (),
        (),
        "ERROR reply carries the reason",
    ),
)


def _observability_cell(mode: FailureMode) -> str:
    parts = []
    if mode.instruments:
        names = ", ".join(
            f"`metrics.{instrument(name).name}`" for name in mode.instruments
        )
        parts.append(names)
    if mode.extra:
        parts.append(mode.extra)
    if mode.events:
        events = "/".join(f"`{event}`" for event in mode.events)
        suffix = " events" if len(mode.events) > 1 else " event"
        parts.append(events + suffix)
    return "; ".join(parts)


def failure_matrix_markdown() -> str:
    """The README failure-mode matrix, rendered from the data above."""
    lines = [
        "| failure mode | detected by | recovery (with "
        "`recovery=\"reseed\"`) | observability |",
        "|---|---|---|---|",
    ]
    for mode in FAILURE_MODES:
        lines.append(
            f"| {mode.failure} | {mode.detected_by} | "
            f"{mode.recovery} | {_observability_cell(mode)} |"
        )
    return "\n".join(lines)


def field_table_rst() -> str:
    """The metrics.py docstring field table, rendered from the data."""
    width = max(len(entry.name) for entry in INSTRUMENTS)
    width = max(width, 24)
    detail_width = max(
        len(line)
        for entry in INSTRUMENTS
        for line in entry.detail.splitlines()
    )
    rule = "=" * width + " " + "=" * detail_width
    lines = [rule, "field".ljust(width) + " meaning", rule]
    for entry in INSTRUMENTS:
        detail_lines = entry.detail.splitlines()
        if len(entry.name) > width:
            lines.append(entry.name)
            head = ""
        else:
            head = entry.name
        lines.append(head.ljust(width) + " " + detail_lines[0])
        for line in detail_lines[1:]:
            lines.append(" " * width + " " + line)
    lines.append(rule)
    return "\n".join(lines)
