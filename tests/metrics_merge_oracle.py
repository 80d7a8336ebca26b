"""Hand-written field-by-field ``EngineMetrics.merge``, kept as an oracle.

:meth:`repro.engines.metrics.EngineMetrics.merge` is one loop over the
declared :data:`repro.engines.instruments.INSTRUMENTS` kinds; this
is the explicit constructor it replaced.  ``test_engine_components``
checks the two agree field by field on random metrics under both
``concurrent`` modes.
"""

from __future__ import annotations

from repro.engines.metrics import EngineMetrics


def merge_oracle(
    self: EngineMetrics,
    other: EngineMetrics,
    concurrent: bool = True,
) -> EngineMetrics:
    merged = EngineMetrics(
        events_processed=self.events_processed + other.events_processed,
        matches_emitted=self.matches_emitted + other.matches_emitted,
        partial_matches_created=(
            self.partial_matches_created + other.partial_matches_created
        ),
        peak_partial_matches=(
            self.peak_partial_matches + other.peak_partial_matches
            if concurrent
            else max(self.peak_partial_matches, other.peak_partial_matches)
        ),
        peak_buffered_events=(
            self.peak_buffered_events + other.peak_buffered_events
            if concurrent
            else max(self.peak_buffered_events, other.peak_buffered_events)
        ),
        predicate_evaluations=(
            self.predicate_evaluations + other.predicate_evaluations
        ),
        index_probes=self.index_probes + other.index_probes,
        index_hits=self.index_hits + other.index_hits,
        index_misses=self.index_misses + other.index_misses,
        range_probes=self.range_probes + other.range_probes,
        range_hits=self.range_hits + other.range_hits,
        predicate_kernel_calls=(
            self.predicate_kernel_calls + other.predicate_kernel_calls
        ),
        kernels_generated=(
            self.kernels_generated + other.kernels_generated
        ),
        codegen_cache_hits=(
            self.codegen_cache_hits + other.codegen_cache_hits
        ),
        pm_expired=self.pm_expired + other.pm_expired,
        events_reordered=self.events_reordered + other.events_reordered,
        events_late_dropped=(
            self.events_late_dropped + other.events_late_dropped
        ),
        retractions_processed=(
            self.retractions_processed + other.retractions_processed
        ),
        matches_retracted=(
            self.matches_retracted + other.matches_retracted
        ),
        events_routed=self.events_routed + other.events_routed,
        worker_count=self.worker_count + other.worker_count,
        selectivity_observations=(
            self.selectivity_observations + other.selectivity_observations
        ),
        migrations=self.migrations + other.migrations,
        pm_migrated=self.pm_migrated + other.pm_migrated,
        matches_saved_by_migration=(
            self.matches_saved_by_migration
            + other.matches_saved_by_migration
        ),
        # Fault-tolerance counters add in both merge modes: a crash
        # survived is a crash survived, concurrent or sequential.
        worker_crashes=self.worker_crashes + other.worker_crashes,
        worker_reseeds=self.worker_reseeds + other.worker_reseeds,
        socket_reconnects=(
            self.socket_reconnects + other.socket_reconnects
        ),
        heartbeats_missed=(
            self.heartbeats_missed + other.heartbeats_missed
        ),
        shards_degraded=self.shards_degraded + other.shards_degraded,
        shards_repromoted=(
            self.shards_repromoted + other.shards_repromoted
        ),
        send_retries=self.send_retries + other.send_retries,
    )
    merged.latencies = self.latencies + other.latencies
    merged.wall_latencies = self.wall_latencies + other.wall_latencies
    # Histogram counts are counters, not peaks: adding them is right
    # under both merge modes (concurrent workers and sequential
    # generations each contribute their own disjoint match samples).
    merged.detection_latency = self.detection_latency.merge(
        other.detection_latency
    )
    merged.watermark_lag = self.watermark_lag.merge(other.watermark_lag)
    return merged
