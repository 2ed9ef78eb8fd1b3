#!/usr/bin/env python3
"""Closed-loop benchmark of the ``ample`` command line, run in-process.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

One client calls ``ample.cli.main(argv)`` and sends the next request only
after the previous one returned.  Requests come in passes: each pass is
the workload's fixed mix in a seeded order, and the run measures whole
passes until ``--seconds`` have passed and at least 100 requests are done,
so p90 has ten samples beyond it.  Every verdict is checked against the
known answer computed by ``workloads.py``; any mismatch makes the run exit 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each pass
untraced and then traced, requires byte-identical stdout and --summary
from both, prints the per-layer metrics, and writes the spans to
``.bench_trace/`` for ``report.py``.  The last stdout line is the JSON
result.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5
MIN_REQUESTS = 100


def import_cli():
    """A fresh import of the package under test, from this checkout only."""
    for name in [m for m in sys.modules if m == "ample" or m.startswith("ample.")]:
        del sys.modules[name]
    cli = importlib.import_module("ample.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported ample from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """Run one request; returns exit code (-1 if it raised), stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = -1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


# The machine is shared and its speed drifts by a quarter or more over
# seconds to minutes, for all code at once.  So every timed figure is
# scaled by the speed measured next to it: a fixed loop of the kinds of
# work the program does (tuple-table lookups, dict churn, regex tokenizing,
# numpy gathers), timed before and after each request.  A figure in "s"
# reads as seconds on a machine that runs this loop in REFERENCE_S; the
# raw seconds are printed as well.
REFERENCE_S = 0.008
_REF_TEXT = " ".join(f"x{i % 97:03d}" for i in range(3000))
_REF_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<ident>[A-Za-z0-9_.+@]+)")


def reference_seconds() -> float:
    start = time.perf_counter()
    n = 64
    table = tuple(tuple((i * j + i) % n for j in range(n)) for i in range(n))
    acc = 0
    for _ in range(2):
        seen = {}
        for a in range(n):
            row = table[a]
            for b in range(n):
                c = row[b]
                acc ^= table[c][a] << (b & 7)
                seen[(a, b)] = c
    pos, names = 0, {}
    while pos < len(_REF_TEXT):
        m = _REF_TOKEN.match(_REF_TEXT, pos)
        pos = m.end()
        if m.lastgroup == "ident":
            names.setdefault(m.group(), len(names))
    t = np.asarray(table, dtype=np.intp)
    for c in range(16):
        acc += int((t[t, c] != t[:, t[:, c]]).sum())
    return time.perf_counter() - start


def speed_factors(refs: list[float]) -> list[float]:
    """REFERENCE_S over the median of the nine reference timings around each."""
    return [REFERENCE_S / statistics.median(refs[max(0, i - 4) : i + 5]) for i in range(len(refs))]


class Client:
    """Sends requests, checks each verdict, and keeps what it saw."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.summary = work / "summary.json"
        self.latencies: list[float] = []  # main(argv) call to return
        self.busy: list[float] = []  # the same plus reading and checking the verdict
        self.refs: list[float] = []  # reference loop, mean of just before and just after
        self.kinds: list[str] = []
        self.failures: list[str] = []

    def send(self, req: workloads.Request) -> tuple[int, str, str, str | None]:
        self.summary.unlink(missing_ok=True)
        gc.collect()
        self.refs.append(reference_seconds())
        start = time.perf_counter()
        code, out, err, elapsed = call(self.cli, [*req.argv, "--summary", str(self.summary)])
        digest = self.summary.read_text(encoding="utf-8") if self.summary.exists() else None
        problem = verdict_problem(req, code, out, err, digest)
        self.busy.append(time.perf_counter() - start)
        self.refs[-1] = (self.refs[-1] + reference_seconds()) / 2
        self.latencies.append(elapsed)
        self.kinds.append(req.kind)
        if problem:
            argv = " ".join(req.argv).replace(f"{self.work}/", "")
            self.failures.append(f"{req.kind} ({argv}): {problem}")
        return code, out, err, digest

    def scaled(self) -> tuple[list[float], float]:
        """Latencies and total busy time at reference speed."""
        factors = speed_factors(self.refs)
        return ([t * f for t, f in zip(self.latencies, factors)],
                sum(t * f for t, f in zip(self.busy, factors)))


def verdict_problem(
    req: workloads.Request, code: int, out: str, err: str, digest: str | None
) -> str | None:
    if "Traceback" in err:
        return "traceback: " + err.strip().splitlines()[-1]
    if code != req.code:
        return f"exit {code}, expected {req.code}: {err.strip()[:200]}"
    if req.summary is None:
        if not err.startswith("error:"):
            return f"stderr does not start with 'error:': {err[:200]!r}"
        return "a summary was written" if digest is not None else None
    if digest is None:
        return "no summary written"
    got = json.loads(digest)
    wrong = {k: got.get(k) for k, v in req.summary.items() if got.get(k) != v}
    if wrong:
        return f"summary {wrong} differs from {req.summary}"
    missing = set(req.lines) - set(out.splitlines())
    return f"stdout lacks {sorted(missing)}" if missing else None


def set_up(workload: str, seed: int, work: Path):
    """Import the package, write the inputs, send one warm-up request.

    Returns the set-up time at reference speed (timed with the reference
    loop before and after) and what the run needs.
    """
    refs = [reference_seconds() for _ in range(3)]
    start = time.perf_counter()
    cli = import_cli()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = random.Random(seed)
    mix = workloads.WORKLOADS[workload](work, rng, lambda argv: call(cli, argv)[:3])
    warm = Client(cli, work)
    warm.send(mix[0][1](random.Random(seed)))
    if warm.failures:
        raise SystemExit(f"error: warm-up request failed: {warm.failures[0]}")
    elapsed = time.perf_counter() - start
    refs += [reference_seconds() for _ in range(3)]
    return elapsed * REFERENCE_S / statistics.median(refs), cli, mix, rng


def one_pass(mix, rng: random.Random) -> list[workloads.Request]:
    reqs = [make(rng) for count, make in mix for _ in range(count)]
    rng.shuffle(reqs)
    return reqs


def by_kind(kinds: list[str], latencies: list[float]) -> list[tuple[str, int, float]]:
    """(request kind, count, median seconds), fastest kind first."""
    groups: dict[str, list[float]] = {}
    for kind, t in zip(kinds, latencies):
        groups.setdefault(kind, []).append(t)
    rows = [(kind, len(ts), statistics.median(ts)) for kind, ts in groups.items()]
    return sorted(rows, key=lambda row: row[2])


def measure(cli, work: Path, mix, rng: random.Random, seconds: float) -> dict:
    client = Client(cli, work)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(client.latencies) < MIN_REQUESTS:
        for req in one_pass(mix, rng):
            client.send(req)
    raw = client.latencies
    lat, busy = client.scaled()
    return {
        "requests": len(lat),
        "mix": by_kind(client.kinds, lat),
        "failures": client.failures,
        "raw": {
            "latency_p50_s": statistics.median(raw),
            "latency_p90_s": statistics.quantiles(raw, n=10)[8],
            "throughput_rps": len(raw) / sum(client.busy),
            "reference_s": statistics.median(client.refs),
        },
        "metrics": {
            "latency_p50_s": (statistics.median(lat), "s"),
            "latency_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
            "throughput_rps": (len(lat) / busy, "1/s"),
            "error_rate": (len(client.failures) / len(lat), "ratio"),
        },
    }


def measure_traced(
    cli, work: Path, mix, rng: random.Random, seconds: float, trace_path: Path
) -> dict:
    """Untraced then traced pass over the same requests, until ``seconds``."""
    plain, traced = Client(cli, work), Client(cli, work)
    tracer = tracing.Tracer()
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        reqs = one_pass(mix, rng)
        seen = [plain.send(req) for req in reqs]
        tracer.install()
        try:
            for i, req in enumerate(reqs):
                tracer.request = passes * len(reqs) + i
                if traced.send(req) != seen[i]:
                    traced.failures.append(f"{req.kind}: traced output differs from untraced")
        finally:
            tracer.uninstall()
        passes += 1
    walls = [plain.scaled()[1], traced.scaled()[1]]
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, passes)
    metrics["trace.overhead_ratio"] = walls[1] / walls[0] - 1
    trace_path.parent.mkdir(exist_ok=True)
    trace_path.write_text(
        json.dumps({"passes": passes, "requests": len(plain.latencies),
                    "untraced_s": walls[0], "traced_s": walls[1], "kinds": traced.kinds,
                    "counts": dict(tracer.counts), "spans": tracer.spans}),
        encoding="utf-8",
    )
    return {
        "requests": len(plain.latencies) + len(traced.latencies),
        "mix": by_kind(plain.kinds, plain.scaled()[0]),
        "failures": plain.failures + traced.failures,
        "metrics": {name: (value, tracing.unit(name)) for name, value in metrics.items()},
    }


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ample" / "__init__.py").is_file():
        print(f"error: no ample package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}.{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUPS):
            elapsed, cli, mix, rng = set_up(args.workload, args.seed, work)
            setups.append(elapsed)
        # Keep the set-up's objects out of the collections made during requests.
        gc.collect()
        gc.freeze()
        if args.trace:
            trace_path = ROOT / ".bench_trace" / f"{args.workload}.seed{args.seed}.json"
            result = measure_traced(cli, work, mix, rng, args.seconds, trace_path)
            result["metrics"]["src.lines"] = (src_lines(), tracing.unit("src.lines"))
        else:
            result = measure(cli, work, mix, rng, args.seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["metrics"]["peak_rss_mb"] = (peak, "MB")
            result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in result["failures"]:
        print(f"MISMATCH {problem}")
    print(f"workload: {args.workload}  seed: {args.seed}  requests: {result['requests']}")
    print("  set-ups: " + " ".join(f"{t:.4f}" for t in setups) + " s")
    total, share = sum(row[1] for row in result["mix"]), 0
    for kind, count, median in result["mix"]:
        share += count
        print(f"  {kind:36s} {count:4d} x {median:8.4f} s  (cumulative {share / total:4.0%})")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    for name, value in result.get("raw", {}).items():
        print(f"  raw {name:40s} {value:14.6g}")
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["requests"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items() if name != "error_rate"},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
