"""Adaptive plan management (Section 6.3).

:class:`AdaptiveController` wraps a pattern and an optimizer: it feeds
events to the active engine while tracking arrival rates over a sliding
horizon *and* per-predicate selectivities from the engine's own
evaluation outcomes; every ``check_interval`` events it compares both
against the statistics the active plan was built with and, when the
:class:`DriftDetector` reports a significant deviation, refreshes the
catalog (rates and selectivities together), re-runs the optimizer and
hot-swaps the engine.

Plan switching is governed by the ``migration`` policy:

``"restart"``
    The historical baseline: the new engine starts empty.  In-flight
    partial matches are lost (up to one window's worth of completions);
    deferred matches waiting on trailing-negation deadlines are drained
    from the outgoing engine at the swap so *completed* work is never
    dropped — but a drained match skips any violation that a later
    forbidden event would have caused.
``"recompute"``
    Recompute-from-buffer migration: the outgoing engine exports its
    plan-independent state (:meth:`repro.engines.BaseEngine.export_state`
    — the live window events) and the new engine rebuilds every
    intermediate store by replaying that buffer before the next live
    event.  Matches re-derived during the replay are suppressed as
    already reported; the switched run's match list is exactly the
    no-switch list.
``"parallel-drain"``
    Old and new engines run side by side for one window after the swap.
    The new engine starts empty except for its negation candidate
    buffers (seeded from the snapshot — a negation range reaches up to
    one window into the past); output is the canonical-key-deduplicated
    union of both engines, and the old engine retires once every match
    it could still own has left the window.  Exact like ``recompute``,
    trading the replay burst for one window of doubled processing.

``recompute`` and ``parallel-drain`` require ``selection="any"`` — the
restrictive strategies consume events globally, and a replayed or
overlapped run cannot reproduce consumption decisions made against
events that have left the window.

Both stateful policies follow the state-handover designs of Dossinger &
Michel ("Optimizing Multiple Multi-Way Stream Joins", adaptive
re-optimization with migration) and Idris et al. ("Conjunctive Queries
with Theta Joins Under Updates", incremental state maintenance across
structural changes).
"""

from __future__ import annotations

from typing import Optional

from ..engines.factory import build_engines
from ..engines.matches import Match
from ..engines.metrics import EngineMetrics
from ..errors import EngineError
from ..events import Event, Stream
from ..optimizers.planner import (
    PlannedPattern,
    plan_pattern,
    replan,
    total_cost,
)
from ..optimizers.registry import make_optimizer
from ..parallel.ordering import content_key, match_min_seq
from ..patterns.pattern import Pattern
from ..stats.catalog import StatisticsCatalog
from ..stats.online import SelectivityTracker, SlidingRateEstimator
from .monitor import DriftDetector

#: Plan-switch state handover policies (module docstring).
MIGRATION_POLICIES = ("restart", "recompute", "parallel-drain")


class AdaptiveController:
    """Runs a pattern with on-the-fly plan re-optimization."""

    def __init__(
        self,
        pattern: Pattern,
        initial_catalog: StatisticsCatalog,
        algorithm: str = "GREEDY",
        selection: str = "any",
        horizon: Optional[float] = None,
        check_interval: int = 500,
        detector: Optional[DriftDetector] = None,
        max_kleene_size: Optional[int] = None,
        migration: Optional[str] = None,
        indexed: bool = True,
        compiled: bool = True,
        track_selectivities: bool = True,
        selectivity_alpha: float = 0.05,
        min_selectivity_observations: int = 50,
        replan_cost_gate: float = 0.0,
        tracer=None,
    ) -> None:
        if migration is None:
            # Lossless migration where it is sound; the restrictive
            # selection strategies keep their historical restart swaps.
            migration = "recompute" if selection == "any" else "restart"
        if migration not in MIGRATION_POLICIES:
            raise EngineError(
                f"unknown migration policy {migration!r}; "
                f"choose one of {MIGRATION_POLICIES}"
            )
        if migration != "restart" and selection != "any":
            raise EngineError(
                f"migration policy {migration!r} requires selection='any' "
                "(restrictive strategies consume events globally; only "
                "'restart' switching is available for them)"
            )
        if replan_cost_gate < 0:
            raise EngineError("replan_cost_gate must be >= 0")
        self.pattern = pattern
        self.algorithm = algorithm
        self.selection = selection
        self.check_interval = check_interval
        self.detector = detector or DriftDetector()
        self.max_kleene_size = max_kleene_size
        self.migration = migration
        self.indexed = indexed
        self.compiled = compiled
        # Replan hysteresis: after drift fires, the candidate plan must
        # beat the *current* plan (re-costed under the refreshed
        # statistics) by at least this relative margin, or the switch —
        # and the catalog refresh — is suppressed.  Mid-transition EWMA
        # drift then stops triggering replan cascades: while the
        # estimates are still moving, the regenerated plan is usually
        # the same shape (zero improvement) and every drift check
        # re-derives the decision from live costs.  0.0 keeps the
        # historical switch-on-every-drift behaviour.
        self.replan_cost_gate = replan_cost_gate
        self.replans_suppressed = 0
        self._catalog = initial_catalog
        self._rates = SlidingRateEstimator(horizon or pattern.window * 10)
        self._tracker = (
            SelectivityTracker(
                alpha=selectivity_alpha,
                min_observations=min_selectivity_observations,
            )
            if track_selectivities
            else None
        )
        self._events_since_check = 0
        self.reoptimizations = 0
        self.plan_history: list[list[PlannedPattern]] = []
        # Metrics of retired engine generations, merged sequentially,
        # plus the controller-owned migration counters.
        self._retired = EngineMetrics()
        self._migration_metrics = EngineMetrics()
        # parallel-drain state: the outgoing engine, the stream time at
        # which it retires, the canonical keys emitted so far, and the
        # last pre-swap sequence number (the ownership test — a match
        # binding a pre-swap event exists only in the outgoing engine).
        self._old_engine = None
        self._drain_deadline = float("-inf")
        self._drain_seen: Optional[set] = None
        self._drain_boundary_seq = -1
        # matches_saved_by_migration accounting: matches emitted while
        # (boundary_seq, until_ts) is armed that bind a pre-swap event.
        self._saved_boundary: Optional[tuple] = None
        self._last_seq = -1
        self._now = float("-inf")
        # Optional repro.observe Tracer: attached to every engine
        # generation (per-node counters span plan switches) and fed
        # run-level instant spans for replans and migrations.
        self._tracer = tracer
        self._replan_initial()

    # -- planning -----------------------------------------------------------
    def _replan_initial(self) -> None:
        planned = plan_pattern(
            self.pattern,
            self._catalog,
            algorithm=self.algorithm,
            selection=self.selection,
        )
        self.planned = planned
        self.engine = self._build(planned)
        self.plan_history.append(planned)

    def _build(self, planned: list[PlannedPattern], seed=None):
        engine = build_engines(
            planned,
            max_kleene_size=self.max_kleene_size,
            indexed=self.indexed,
            compiled=self.compiled,
            seed=seed,
        )
        # Attached after seeding: replayed outcomes were observed by the
        # donor engine already, re-reporting them would skew the EWMAs.
        if self._tracker is not None:
            engine.set_selectivity_tracker(self._tracker)
        # Same reasoning for tracing: replayed work is migration cost,
        # not plan-node cost, so the tracer sees only live processing.
        if self._tracer is not None:
            engine.set_tracer(self._tracer)
        return engine

    @property
    def current_plans(self) -> list:
        return [item.plan for item in self.planned]

    @property
    def draining(self) -> bool:
        """True while a parallel-drain handover is in progress."""
        return self._old_engine is not None

    @property
    def metrics(self) -> EngineMetrics:
        """Aggregated metrics: retired generations + live engine(s) +
        the controller's migration counters.

        Generations are merged sequentially (peaks take the max, event
        counts add — each generation processed its own stream segment).
        During a parallel-drain the outgoing engine is included too, so
        the one-window double processing shows up honestly.
        """
        merged = self._retired.merge(self.engine.metrics, concurrent=False)
        if self._old_engine is not None:
            merged = merged.merge(self._old_engine.metrics, concurrent=False)
        return merged.merge(self._migration_metrics, concurrent=False)

    # -- event loop -----------------------------------------------------------
    def process(self, event: Event) -> list[Match]:
        self._rates.observe(event)
        self._events_since_check += 1
        if event.seq > self._last_seq:
            self._last_seq = event.seq
        self._now = event.timestamp
        matches: list[Match] = []
        if self._old_engine is not None and (
            event.timestamp > self._drain_deadline
        ):
            # Retiring the outgoing engine releases its pendings first:
            # a deferred match with a pre-swap constituent exists only
            # there (and is necessarily due — its deadline is at most
            # swap + W < now), so it is emitted now.  Pendings binding
            # only post-swap events live on in the new engine, which
            # releases them at their own deadlines — emitting them here
            # too would duplicate them, so they are dropped.
            released = self._drain_filter(self._old_engine.finalize())
            matches.extend(
                m
                for m in released
                if match_min_seq(m) <= self._drain_boundary_seq
            )
            self._finish_drain()
        if self._old_engine is not None:
            matches.extend(self._drain_filter(self._old_engine.process(event)))
            matches.extend(self._drain_filter(self.engine.process(event)))
        else:
            matches.extend(self.engine.process(event))
        self._note_saved(matches)
        if self._saved_boundary is not None and (
            event.timestamp > self._saved_boundary[1]
        ):
            self._saved_boundary = None
        if (
            self._old_engine is None
            and self._events_since_check >= self.check_interval
        ):
            self._events_since_check = 0
            matches.extend(self._maybe_reoptimize())
        return matches

    def run(self, stream: Stream) -> list[Match]:
        matches: list[Match] = []
        for event in stream:
            matches.extend(self.process(event))
        matches.extend(self.finalize())
        return matches

    def finalize(self) -> list[Match]:
        """End-of-stream: release pending matches of every live engine
        (deduplicated when a drain is still in progress)."""
        matches: list[Match] = []
        if self._old_engine is not None:
            matches.extend(
                self._drain_filter(self._old_engine.finalize())
            )
            matches.extend(self._drain_filter(self.engine.finalize()))
            self._finish_drain()
        else:
            matches.extend(self.engine.finalize())
        self._note_saved(matches)
        return matches

    # -- adaptation ----------------------------------------------------------------
    def _maybe_reoptimize(self) -> list[Match]:
        observed_rates = {
            name: rate
            for name, rate in self._rates.rates().items()
            if self._catalog.has_rate(name) and rate > 0
        }
        baseline: dict = {
            name: self._catalog.rate(name) for name in observed_rates
        }
        current: dict = dict(observed_rates)
        observed_sels = (
            self._tracker.snapshot() if self._tracker is not None else {}
        )
        for key, value in observed_sels.items():
            baseline[key] = self._catalog_selectivity(key)
            current[key] = value
        if not baseline:
            return []
        if not self.detector.drifted(baseline, current):
            return []
        updated = self._catalog.updated(
            rates=observed_rates, selectivities=observed_sels
        )
        candidate = replan(self.planned, updated)
        if self.replan_cost_gate > 0:
            current_cost = self._current_plan_cost(candidate)
            if total_cost(candidate) > (
                (1.0 - self.replan_cost_gate) * current_cost
            ):
                # Not enough improvement to pay for a switch.  The
                # catalog keeps its baseline, so the decision is
                # re-derived from scratch at the next drift check.
                self.replans_suppressed += 1
                if self._tracer is not None:
                    self._tracer.instant(
                        "replan_suppressed",
                        suppressed=self.replans_suppressed,
                    )
                return []
        self._catalog = updated
        self.reoptimizations += 1
        if self._tracer is not None:
            self._tracer.instant(
                "replan",
                reoptimizations=self.reoptimizations,
                drifted=len(current),
            )
        return self._switch_plan(planned=candidate)

    def _current_plan_cost(self, candidate: list[PlannedPattern]) -> float:
        """Cost of the *active* plans under the refreshed statistics.

        ``candidate`` is the replan of the same disjuncts against the
        refreshed catalog, so ``candidate[i].stats`` already holds the
        re-resolved planning statistics for ``self.planned[i]`` — no
        second resolution pass.
        """
        cost = 0.0
        for item, fresh in zip(self.planned, candidate):
            generator = make_optimizer(item.algorithm)
            cost += generator.plan_cost(item.plan, fresh.stats, item.cost_model)
        return cost

    def force_reoptimize(
        self,
        catalog: Optional[StatisticsCatalog] = None,
        algorithm: Optional[str] = None,
    ) -> list[Match]:
        """Replan and hot-swap immediately, bypassing drift detection.

        ``catalog`` replaces the controller's statistics first;
        ``algorithm`` overrides the plan generator for this switch only.
        A forced switch during a parallel-drain abandons the half-built
        replacement engine and switches from the *outgoing* engine
        instead — it alone holds the complete window history (the
        replacement started empty at the previous swap), so exactness
        is preserved.  Returns the matches the swap itself released.
        """
        matches: list[Match] = []
        if self._old_engine is not None:
            self._retire(self.engine)  # half-built replacement's cost
            self.engine = self._old_engine
            self._old_engine = None
            self._drain_seen = None
            self._drain_deadline = float("-inf")
            self._drain_boundary_seq = -1
        if catalog is not None:
            self._catalog = catalog
        self.reoptimizations += 1
        matches.extend(self._switch_plan(algorithm=algorithm))
        return matches

    def _switch_plan(
        self,
        algorithm: Optional[str] = None,
        planned: Optional[list[PlannedPattern]] = None,
    ) -> list[Match]:
        old_engine = self.engine
        if planned is None:
            planned = replan(
                self.planned,
                self._catalog,
                optimizer=make_optimizer(algorithm) if algorithm else None,
            )
        released: list[Match] = []
        pm_migrated = 0
        if self.migration == "restart":
            # Drain the outgoing engine: deferred matches are complete
            # work and would otherwise be dropped with the engine.
            released.extend(old_engine.finalize())
            self._migration_metrics.matches_saved_by_migration += len(
                released
            )
            self.engine = self._build(planned)
            self._retire(old_engine)
        elif self.migration == "recompute":
            snapshot = old_engine.export_state()
            pm_migrated = snapshot.migrated_count
            self.engine = self._build(planned, seed=snapshot)
            self._retire(old_engine)
        else:  # parallel-drain
            snapshot = old_engine.export_state()
            pm_migrated = snapshot.migrated_count
            self.engine = self._build(planned)
            self.engine.seed_negation_state(snapshot)
            self._old_engine = old_engine
            self._drain_deadline = self._now + self.pattern.window
            self._drain_seen = set()
            self._drain_boundary_seq = self._last_seq
        self._migration_metrics.migrations += 1
        self._migration_metrics.pm_migrated += pm_migrated
        if self._tracer is not None:
            self._tracer.instant(
                "plan_migration",
                policy=self.migration,
                pm_migrated=pm_migrated,
                generation=len(self.plan_history),
            )
        if self.migration != "restart":
            self._saved_boundary = (
                self._last_seq,
                self._now + self.pattern.window,
            )
        self.planned = planned
        self.plan_history.append(planned)
        return released

    # -- drain plumbing -----------------------------------------------------
    def _drain_filter(self, matches: list[Match]) -> list[Match]:
        """Keep matches not yet emitted by the other engine (canonical
        binding key + deterministic detection timestamp)."""
        fresh: list[Match] = []
        seen = self._drain_seen
        for match in matches:
            key = (match.pattern_name, content_key(match), match.detection_ts)
            if key in seen:
                continue
            seen.add(key)
            fresh.append(match)
        return fresh

    def _finish_drain(self) -> None:
        # The outgoing engine's remaining state is owned by the new
        # engine from here on; retiring it only folds its metrics in.
        self._retire(self._old_engine)
        self._old_engine = None
        self._drain_seen = None
        self._drain_deadline = float("-inf")
        self._drain_boundary_seq = -1

    def _retire(self, engine) -> None:
        self._retired = self._retired.merge(engine.metrics, concurrent=False)

    def _note_saved(self, matches: list[Match]) -> None:
        if self._saved_boundary is None or not matches:
            return
        boundary_seq = self._saved_boundary[0]
        saved = sum(
            1 for match in matches if match_min_seq(match) <= boundary_seq
        )
        if saved:
            self._migration_metrics.matches_saved_by_migration += saved

    def _catalog_selectivity(self, key: frozenset) -> float:
        variables = tuple(key)
        if len(variables) == 1:
            return self._catalog.selectivity(variables[0])
        return self._catalog.selectivity(variables[0], variables[1])
