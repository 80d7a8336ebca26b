"""Match and partial-match structures shared by both engines.

A *partial match* (the paper's central cost quantity) binds a subset of
the pattern's positive variables to concrete events; a *match* is a
complete binding reported to the user.  Kleene variables bind tuples of
events.

Both engines rely on the ``trigger_seq`` bookkeeping to form every valid
event combination **exactly once**: a structure created while processing
event ``e`` carries ``trigger_seq = e.seq``; it may only combine with
buffered material whose trigger is strictly smaller, while newly arriving
events only combine with structures created strictly earlier.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from ..events import Event

Binding = Union[Event, tuple]


class PartialMatch:
    """An immutable set of variable bindings with window bookkeeping.

    ``home`` is its liveness in the one store holding it: None until
    inserted, then its bucket key per index, ``False`` once removed.
    """

    __slots__ = ("bindings", "trigger_seq", "min_ts", "max_ts", "home")

    def __init__(
        self,
        bindings: Mapping[str, Binding],
        trigger_seq: int,
        min_ts: float,
        max_ts: float,
    ) -> None:
        self.bindings = dict(bindings)
        self.trigger_seq = trigger_seq
        self.min_ts = min_ts
        self.max_ts = max_ts
        self.home = None

    @classmethod
    def singleton(cls, variable: str, event: Event) -> "PartialMatch":
        return cls(
            {variable: event}, event.seq, event.timestamp, event.timestamp
        )

    @classmethod
    def kleene_singleton(cls, variable: str, event: Event) -> "PartialMatch":
        return cls(
            {variable: (event,)}, event.seq, event.timestamp, event.timestamp
        )

    # -- structure ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.bindings)

    def variables(self) -> tuple[str, ...]:
        return tuple(self.bindings)

    def event_seqs(self) -> frozenset:
        """Sequence numbers of all bound events (Kleene tuples expanded)."""
        seqs = set()
        for value in self.bindings.values():
            if isinstance(value, tuple):
                seqs.update(e.seq for e in value)
            else:
                seqs.add(value.seq)
        return frozenset(seqs)

    def contains_seq(self, seq: int) -> bool:
        for value in self.bindings.values():
            if isinstance(value, tuple):
                if any(e.seq == seq for e in value):
                    return True
            elif value.seq == seq:
                return True
        return False

    # -- derivation ------------------------------------------------------------
    def extended(
        self, variable: str, event: Event, trigger_seq: Optional[int] = None
    ) -> "PartialMatch":
        """New partial match with ``variable`` bound to ``event``."""
        bindings = dict(self.bindings)
        bindings[variable] = event
        return PartialMatch(
            bindings,
            trigger_seq if trigger_seq is not None else event.seq,
            min(self.min_ts, event.timestamp),
            max(self.max_ts, event.timestamp),
        )

    def kleene_extended(
        self, variable: str, event: Event, trigger_seq: Optional[int] = None
    ) -> "PartialMatch":
        """New partial match with ``event`` appended to a Kleene tuple."""
        bindings = dict(self.bindings)
        bindings[variable] = bindings[variable] + (event,)
        return PartialMatch(
            bindings,
            trigger_seq if trigger_seq is not None else event.seq,
            min(self.min_ts, event.timestamp),
            max(self.max_ts, event.timestamp),
        )

    def merged(
        self, other: "PartialMatch", trigger_seq: int
    ) -> "PartialMatch":
        """Union of two disjoint partial matches (tree-engine combine)."""
        bindings = dict(self.bindings)
        bindings.update(other.bindings)
        return PartialMatch(
            bindings,
            trigger_seq,
            min(self.min_ts, other.min_ts),
            max(self.max_ts, other.max_ts),
        )

    def fits_window(self, window: float) -> bool:
        return self.max_ts - self.min_ts <= window

    def span_with(self, event: Event, window: float) -> bool:
        """Would adding ``event`` keep the match inside the window?"""
        return (
            max(self.max_ts, event.timestamp)
            - min(self.min_ts, event.timestamp)
        ) <= window

    def __repr__(self) -> str:
        parts = []
        for variable, value in self.bindings.items():
            if isinstance(value, tuple):
                parts.append(f"{variable}=({','.join(str(e.seq) for e in value)})")
            else:
                parts.append(f"{variable}={value.seq}")
        return f"PM[{' '.join(parts)}]"


class Match:
    """A complete, reported pattern match.

    Two latency figures are attached (Section 6.1):

    * ``latency`` — *stream-time* delay between the timestamp of the
      temporally last constituent event and the detection timestamp.
      Nonzero only when emission is deferred (trailing negation).
    * ``wall_latency`` — *wall-clock* seconds between the moment the
      engine started processing the event that completed the match and
      the emission.  This is the paper's detection latency: the work the
      engine still performs (buffer walks, remaining plan steps) after
      the final primitive event has arrived.
    """

    __slots__ = (
        "bindings",
        "detection_ts",
        "latency",
        "wall_latency",
        "pattern_name",
    )

    def __init__(
        self,
        partial: PartialMatch,
        detection_ts: float,
        pattern_name: Optional[str] = None,
        wall_latency: float = 0.0,
    ) -> None:
        self.bindings = dict(partial.bindings)
        self.detection_ts = detection_ts
        self.latency = max(detection_ts - partial.max_ts, 0.0)
        self.wall_latency = wall_latency
        self.pattern_name = pattern_name

    def key(self) -> frozenset:
        """Engine-independent identity of the match (for equivalence tests)."""
        parts = []
        for variable, value in self.bindings.items():
            if isinstance(value, tuple):
                parts.append((variable, tuple(sorted(e.seq for e in value))))
            else:
                parts.append((variable, value.seq))
        return frozenset(parts)

    def __getitem__(self, variable: str):
        return self.bindings[variable]

    def __repr__(self) -> str:
        parts = []
        for variable, value in sorted(self.bindings.items()):
            if isinstance(value, tuple):
                parts.append(f"{variable}=({','.join(str(e.seq) for e in value)})")
            else:
                parts.append(f"{variable}={value.seq}")
        return f"Match[{' '.join(parts)} @{self.detection_ts:g}]"
