"""Outside-in span recorder for the ledger's traced pass.

The ledger times calls into each ``repro`` package's *public* functions
from the benchmark's own files; nothing under ``src/`` is instrumented.
``repro.observe.Tracer`` spans carry no parent, so the causal tree
(name, start, end, parent id, run id) is kept here instead.

Spans are opened from one thread only, through a ``with`` stack, so a
span's children are nested and never overlap.  A span's *self time* is
its duration minus its direct children's durations; over a whole tree
the self times therefore sum to the root span's wall.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List


class Recorder:
    """In-memory span list; written out once, when the run ends."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter() - self.origin,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._stack.pop()

    def totals(self) -> Dict[str, float]:
        """Inclusive seconds per span name."""
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span["name"]] += span["end"] - span["start"]
        return dict(out)

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name (duration minus direct children)."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        out: Dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, own):
            out[span["name"]] += seconds
        return dict(out)

    def wall(self) -> float:
        """Duration covered by the root spans."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["parent"] is None
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "run": self.run_id,
            "wall_s": self.wall(),
            "self_s": self.self_times(),
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload) + "\n")


class _NullRecorder:
    """The untraced pass: ``span`` costs one attribute load and no clock."""

    _context = contextlib.nullcontext()

    def span(self, name: str):
        return self._context


NULL = _NullRecorder()
