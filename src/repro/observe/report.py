"""``python -m repro.observe.report`` — render observability reports.

Reads either a trace/snapshot JSON file (written by
:func:`repro.observe.export.write_json`) or a **live** socket shard —
``--live HOST:PORT`` opens a fresh connection, performs the hello
handshake, and polls the server-scoped ``STATS`` frame, which returns
current metric snapshots for *every* connection the shard is serving
without disturbing their epoch machinery.

The report has four sections: top plan nodes by attributed wall time,
the per-node selectivity table (survivor / bucket-hit / bisect-hit
fractions), detection-latency percentiles, and the run-span timeline
(replans, migrations, reseeds, degradations, faults).
"""

from __future__ import annotations

import argparse
import json
import sys
import uuid
from typing import List, Optional, Sequence

from ..engines.instruments import FAULT_INSTRUMENT_NAMES, instrument
from .trace import NodeStat, merge_node_stats

#: Worker id the report CLI introduces itself with: observer
#: connections never RESET/BATCH, so the id only labels server logs.
OBSERVER_ID = -1


# -- data acquisition --------------------------------------------------------

def load_trace(path: str) -> dict:
    """Load a snapshot JSON file into report-ready form."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return {
        "source": path,
        "run_id": data.get("run_id", "?"),
        "nodes": list(data.get("nodes", ())),
        "spans": list(data.get("spans", ())),
        "metrics": data.get("metrics"),
        "workers": data.get("workers", []),
    }


def poll_live(host: str, port: int, timeout: float = 10.0) -> dict:
    """Poll a live shard server for a mid-stream stats snapshot."""
    import socket as socket_module

    from ..engines.metrics import EngineMetrics
    from ..service.protocol import (
        MSG_STATS,
        REPLY_ERROR,
        REPLY_STATS,
        recv_frame,
        send_frame,
    )

    token = uuid.uuid4().hex
    sock = socket_module.create_connection((host, port), timeout=timeout)
    try:
        send_frame(sock, ("hello", OBSERVER_ID))
        send_frame(sock, (MSG_STATS, token, "server"))
        reply = recv_frame(sock)
    finally:
        sock.close()
    if reply[1] == REPLY_ERROR:
        raise RuntimeError(f"shard rejected STATS poll: {reply[2][1]}")
    if reply[1] != REPLY_STATS or reply[2][0] != token:
        raise RuntimeError(f"unexpected STATS reply: {reply!r}")
    snapshots = reply[2][1]
    merged = EngineMetrics()
    nodes: List[dict] = []
    workers = []
    for snap in snapshots:
        workers.append(
            {"worker_id": snap["worker_id"], "epoch": snap["epoch"]}
        )
        if snap.get("metrics") is not None:
            merged = merged.merge(snap["metrics"], concurrent=True)
        if snap.get("nodes"):
            nodes.extend(snap["nodes"])
    return {
        "source": f"live {host}:{port}",
        "run_id": f"live:{host}:{port}",
        "nodes": merge_node_stats(nodes),
        "spans": [],
        "metrics": merged.summary(),
        "workers": workers,
    }


# -- rendering ---------------------------------------------------------------

def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    widths = [
        max(len(header), *(len(row[i]) for row in rows)) if rows else len(header)
        for i, header in enumerate(headers)
    ]
    def fmt(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * width for width in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


def render_nodes(nodes: Sequence[dict], top: int = 15) -> List[str]:
    stats = [NodeStat.from_dict(d) for d in nodes]
    if not stats:
        return ["(no node stats — run with a tracer attached)"]
    stats.sort(key=lambda s: s.wall, reverse=True)
    total_wall = sum(s.wall for s in stats) or 1.0
    rows = [
        [
            f"{s.engine + ' ' if s.engine else ''}{s.kind}:{s.label}",
            f"{s.wall * 1e3:.3f}",
            f"{100.0 * s.wall / total_wall:.1f}%",
            str(s.events),
            str(s.probed),
            str(s.created),
            str(s.expired),
            str(s.matches),
        ]
        for s in stats[:top]
    ]
    lines = [f"Top nodes by wall time (of {len(stats)}):"]
    lines.extend(
        _table(
            ["node", "wall ms", "share", "events", "probed",
             "created", "expired", "matches"],
            rows,
        )
    )
    return lines


def render_selectivity(nodes: Sequence[dict]) -> List[str]:
    stats = [NodeStat.from_dict(d) for d in nodes]
    joiners = [s for s in stats if s.probed or s.index_probes or s.range_probes]
    if not joiners:
        return ["(no join activity recorded)"]
    rows = [
        [
            f"{s.engine + ' ' if s.engine else ''}{s.kind}:{s.label}",
            f"{s.survivor_fraction:.4f}",
            f"{s.bucket_hit_fraction:.4f}",
            str(s.index_probes),
            f"{s.bisect_hit_fraction:.4f}",
            str(s.range_probes),
        ]
        for s in joiners
    ]
    lines = ["Selectivity by node:"]
    lines.extend(
        _table(
            ["node", "survivor", "bucket-hit", "probes",
             "bisect-hit", "bisects"],
            rows,
        )
    )
    return lines


def render_latency(metrics: Optional[dict]) -> List[str]:
    if not metrics:
        return ["(no metrics in this snapshot)"]
    latency = metrics.get("detection_latency") or {}
    if not latency.get("count"):
        return ["(no matches emitted yet — no latency samples)"]
    lines = ["Detection latency (stream time, seconds):"]
    rows = [[
        str(latency["count"]),
        f"{latency['mean']:.6f}",
        f"{latency['p50']:.6f}",
        f"{latency['p95']:.6f}",
        f"{latency['p99']:.6f}",
        f"{latency['max']:.6f}",
    ]]
    lines.extend(_table(["count", "mean", "p50", "p95", "p99", "max"], rows))
    return lines


def render_timeline(spans: Sequence[dict], metrics: Optional[dict]) -> List[str]:
    lines: List[str] = []
    if spans:
        lines.append("Run-span timeline:")
        for span in sorted(spans, key=lambda s: s.get("ts", 0.0)):
            attrs = span.get("attrs") or {}
            attr_text = " ".join(
                f"{key}={value}" for key, value in sorted(attrs.items())
            )
            lines.append(
                f"  {span.get('ts', 0.0):10.6f}s  "
                f"{span['name']:<24} {span.get('dur', 0.0) * 1e3:8.3f} ms"
                f"{('  ' + attr_text) if attr_text else ''}"
            )
    else:
        lines.append("(no run-level spans recorded)")
    if metrics:
        fired = []
        for name in FAULT_INSTRUMENT_NAMES:
            key = instrument(name).summary_key or name
            value = metrics.get(key, 0)
            if value:
                fired.append(f"{name}={value}")
        if fired:
            lines.append("Fault counters: " + "  ".join(fired))
        else:
            lines.append("Fault counters: all zero")
    return lines


def render_report(data: dict) -> str:
    lines = [
        f"repro observability report — {data['run_id']}",
        f"source: {data['source']}",
    ]
    workers = data.get("workers")
    if workers:
        desc = ", ".join(
            f"w{w['worker_id']}@epoch{w['epoch']}" for w in workers
        )
        lines.append(f"workers polled: {desc}")
    for section in (
        render_nodes(data["nodes"]),
        render_selectivity(data["nodes"]),
        render_latency(data.get("metrics")),
        render_timeline(data["spans"], data.get("metrics")),
    ):
        lines.append("")
        lines.extend(section)
    return "\n".join(lines) + "\n"


# -- CLI ---------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observe.report",
        description="Render a text report from a trace file or live shard.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("trace", nargs="?", help="trace/snapshot JSON file")
    group.add_argument(
        "--live",
        metavar="HOST:PORT",
        help="poll a running shard server mid-stream via the STATS frame",
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0, help="live poll timeout"
    )
    args = parser.parse_args(argv)
    if args.live:
        host, _, port = args.live.rpartition(":")
        data = poll_live(host or "127.0.0.1", int(port), timeout=args.timeout)
    else:
        data = load_trace(args.trace)
    sys.stdout.write(render_report(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
