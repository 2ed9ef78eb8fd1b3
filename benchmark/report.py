#!/usr/bin/env python3
"""Per-layer report from the traces that ``run.py --trace 1`` writes.

    python3 benchmark/report.py [TRACE.json ...]

With no arguments it reads every trace under ``.bench_trace/``.  One column
per trace: each layer's share of the traced self time, then every per-layer
metric per pass over the request mix, then the tracing overhead (traced
wall time over untraced wall time, minus one).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> tuple[str, dict[str, float], dict[str, float]]:
    trace = json.loads(path.read_text(encoding="utf-8"))
    metrics = tracing.layer_metrics(trace["spans"], trace["counts"], trace["passes"])
    extra = {
        "passes": trace["passes"],
        "requests per pass": trace["requests"] / trace["passes"],
        "untraced s per pass": trace["untraced_s"] / trace["passes"],
        "traced s per pass": trace["traced_s"] / trace["passes"],
        "tracing overhead": trace["traced_s"] / trace["untraced_s"] - 1,
    }
    return path.stem, metrics, extra


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted((ROOT / ".bench_trace").glob("*.json"))
    if not paths:
        print("error: no traces; run benchmark/run.py with --trace 1 first", file=sys.stderr)
        return 2
    columns = [load(p) for p in paths]
    width = max(14, *(len(name) for name, _, _ in columns))

    def row(label: str, cells: list[str]) -> None:
        print(f"{label:46s}" + "".join(f"{c:>{width + 2}s}" for c in cells))

    row("", [name for name, _, _ in columns])
    print("layer share of traced self time")
    shares = [tracing.layer_shares(m) for _, m, _ in columns]
    for layer in tracing.LAYERS:
        row(f"  {layer}", [f"{s[layer]:.1%}" for s in shares])
    print("per-layer metrics, per pass (seconds are self time)")
    for name in sorted(columns[0][1]):
        exact = tracing.unit(name) == "count"
        row(f"  {name}", [f"{m[name]:.0f}" if exact else f"{m[name]:.6g}" for _, m, _ in columns])
    print("run")
    for key in columns[0][2]:
        cells = [e[key] for _, _, e in columns]
        row(f"  {key}", [f"{c:.1%}" if key == "tracing overhead" else f"{c:.6g}" for c in cells])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
