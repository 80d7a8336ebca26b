"""Seeded inputs for the ledger workloads.

Every generator takes the run's ``--seed`` and returns the same input
for the same seed.  What the seed does *not* change is a workload's
shape — symbol rates, pattern texts, query graphs, correction counts —
because a metric that moves when the shape moves cannot tell a code
change from an input change.  The seed redraws the data inside that
shape: arrival times, payloads, key draws, statistics noise.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Tuple

from repro.events import Event, Stream
from repro.patterns import decompose, parse_pattern
from repro.stats import PatternStatistics
from repro.streams import Retraction, Update
from repro.workloads import (
    PatternWorkloadConfig,
    StockMarketConfig,
    generate_pattern_set,
    generate_stock_stream,
    symbol_rates,
)

#: The market of ``benchmarks/_common.py``: 12 symbols, rates 0.25–2.2/s.
#: Its seed fixes the per-symbol *rates*; the run seed draws the ticks.
MARKET = StockMarketConfig(symbols=12, rate_low=0.25, rate_high=2.2, seed=42)
WINDOW = 5.0
PATTERN_SEED = 9


def stock_stream(seed: int, duration: float) -> Stream:
    """Paper §7 tick stream: fixed per-symbol rates, seeded arrivals/walks."""
    events: List[Event] = []
    for name, rate in symbol_rates(MARKET).items():
        events.extend(
            generate_stock_stream(
                StockMarketConfig(
                    symbols=1,
                    symbol_names=[name],
                    duration=duration,
                    rate_low=rate,
                    rate_high=rate,
                    seed=seed,
                )
            )
        )
    return Stream(events, sort=True)


def stock_patterns(types, category: str, sizes) -> list:
    return generate_pattern_set(
        category,
        types,
        PatternWorkloadConfig(
            sizes=tuple(sizes),
            patterns_per_size=1,
            window=WINDOW,
            seed=PATTERN_SEED,
        ),
    )


EQUALITY = "PATTERN SEQ(A a, B b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN {w}"
MIXED = (
    "PATTERN SEQ(A a, B b, C c) "
    "WHERE a.k = b.k AND a.v < b.v AND b.k = c.k WITHIN {w}"
)


TYPE_WEIGHTS = (0.27, 0.33, 0.40)


def keyed_events(
    seed: int, count: int, keys: int, gap: Callable[[random.Random], float]
) -> List[Event]:
    """fig26's A/B/C stream: ``k`` in ``range(keys)``, ``v`` uniform on B
    and near 1 elsewhere (so ``a.v < b.v`` is rare).  Unlike fig26 the
    types are not equally frequent: with equal rates every frequency- or
    cost-based order is a coin flip on the seed, and ``plan_cost_norm``
    with it."""
    rng = random.Random(seed)
    events, t = [], 0.0
    for _ in range(count):
        t += gap(rng)
        name = rng.choices("ABC", TYPE_WEIGHTS)[0]
        v = rng.random() if name == "B" else 0.95 + 0.05 * rng.random()
        events.append(Event(name, t, {"k": rng.randrange(keys), "v": v}))
    return events


def exponential_gap(mean: float) -> Callable[[random.Random], float]:
    return lambda rng: rng.expovariate(1.0 / mean)


def churn_items(
    seed: int, events: List[Event], keys: int, max_delay: float,
    retractions: int, updates: int,
) -> Tuple[list, List[Event]]:
    """Jittered arrivals with corrections interleaved.

    Returns ``(items, corrected)``: the arrival-ordered feed for a
    ``DeltaEngine`` (uids are arrival positions) and the clean,
    timestamp-ordered stream the corrections amount to.  Corrections
    sit at evenly spread arrival positions with a seeded offset, updates
    evenly spread among them — an ``Update`` replays the whole log so
    far, so uniform-random positions or kinds would make the run's cost
    a lottery on the seed — and each targets a seeded event among the
    last 200 arrivals.
    """
    rng = random.Random(seed ^ 0x5EED)
    jittered = sorted(
        (event.timestamp + rng.uniform(0.0, max_delay * 0.95), i)
        for i, event in enumerate(events)
    )
    arrivals = [events[i] for _, i in jittered]
    total = retractions + updates
    stride = len(arrivals) / (total + 1)
    at = {
        int(stride * (slot + 1) + rng.uniform(-0.25, 0.25) * stride):
            (slot + 1) * updates // total == slot * updates // total
        for slot in range(total)
    }
    items: list = []
    retracted, updated = set(), {}
    for position, event in enumerate(arrivals):
        items.append(event)
        if position not in at:
            continue
        uid = rng.randrange(max(0, position - 200), position + 1)
        while uid in retracted or uid in updated:
            uid = rng.randrange(max(0, position - 200), position + 1)
        if at[position]:  # True marks a retraction
            retracted.add(uid)
            items.append(Retraction(uid))
        else:
            updated[uid] = {"k": rng.randrange(keys), "v": rng.random()}
            items.append(Update(uid, updated[uid]))
    corrected = sorted(
        (
            Event(e.type, e.timestamp, updated[uid]) if uid in updated else e
            for uid, e in enumerate(arrivals)
            if uid not in retracted
        ),
        key=lambda e: e.timestamp,
    )
    return items, corrected


def large_problem(size: int, seed: int):
    """fig17's ``_problem(size)`` conjunction with seeded statistics noise.

    The query graph (which pairs carry a predicate) and the base rates
    and selectivities are fig17's instance 5; the run seed scales each
    by up to ±1 %, the size of a re-estimation wobble.  Redrawing the
    whole instance per seed would swing the EFREQ-normalised plan cost
    by orders of magnitude and bury any optimizer change.
    """
    base = random.Random((5, size).__repr__())
    noise = random.Random((seed, size).__repr__())

    def wobble(value: float) -> float:
        return value * math.exp(noise.uniform(-0.01, 0.01))

    names = [f"T{i}" for i in range(size)]
    spec = ", ".join(f"{n} v{i}" for i, n in enumerate(names))
    decomposed = decompose(parse_pattern(f"PATTERN AND({spec}) WITHIN 5"))
    variables = decomposed.positive_variables
    rates = {v: wobble(base.uniform(0.2, 5.0)) for v in variables}
    selectivities = {}
    for i, first in enumerate(variables):
        for second in variables[i + 1:]:
            if base.random() < 0.4:
                selectivities[frozenset((first, second))] = min(
                    1.0, wobble(base.uniform(0.02, 0.9))
                )
    return decomposed, PatternStatistics(variables, 5.0, rates, selectivities)
