#!/usr/bin/env python3
"""The bench ladder: per-stage time, counters and peak memory of fixed CLI rungs.

    python3 bench/ladder.py --out BENCH_<n>.json [--root DIR ...] [--repeat N]
                            [--only NAME ...] [--work DIR]

The checkout's own package first writes the input documents (the corpus
and the larger pair and units groupoids) into ``--work``.  A rung is one
or more ``ample`` command lines run in one fresh child process, so that
``ru_maxrss`` is the rung's own peak.  The child imports
the package from ``DIR/src`` (default: this checkout), installs
``benchmark/tracing.Tracer`` from ``DIR/benchmark`` around ``cli.main``,
and adds spans for the parts of the table build (the digit-code index and
the product codes), for the read of a table document's table section (by
cells or in chunks), for the parts of table validation (associativity and
its support verdict, inner inverses, the full inverse scan, the zero) and
for the write of each output document, so their self time is taken out of
``groupoids.bisection_semigroup_s``, ``formats.parse_s``,
``semigroups.validate_s`` and ``cli.self_s``.  It reports:

- ``seconds``: end-to-end, the sum of the ``cli.main`` calls (the import
  is not counted);
- ``stages``: self seconds per span, from ``tracing.self_times``;
- ``counters``: the tracer's counts;
- ``missing_parts``: the parts the checkout lacks, so a renamed part
  shows instead of its span dropping out;
- ``peak_rss_mb`` and the exit codes.

Each rung has a time budget and a memory budget.  The child runs under
RLIMIT_AS at the memory budget (address space, not resident memory) and
is killed at the time budget.  A rung over either is recorded with
``over_budget`` set to "time" or "memory", never dropped; a rung whose
input an earlier rung did not write is recorded with ``status: "no
input"``.  The results of one checkout are one entry of ``runs`` in the
output JSON, keyed by commit; an entry for the same commit is replaced,
so the parent and the change can share one file.

``--repeat N`` runs every rung N times (once by default), and ``--root``
may name several checkouts (say the parent and the change), which then
take turns on each rung, so that a drift of the machine falls on all of
them alike.  A rung's record holds the median of ``seconds``,
``peak_rss_mb`` and each stage over its runs, with ``seconds_range`` and
``peak_rss_mb_range`` (least and greatest) and ``repeats``; a rung that
did not pass every run keeps the record of its first failing run, with
``failed_repeats`` and the figures of the runs that passed.  The inputs
are written by the first root's package.  Each root writes the documents
of its rungs into its own directory of ``--work`` (``root0``,
``root1``, ...), and its later rungs read them there, so no root
overwrites or reads another's; a rung's record holds the sha256 of each
document it wrote (``outputs``), so documents that differ between roots
show.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent.parent
MB = 1 << 20

CORPUS = (
    "units1", "units2", "units3", "units4", "pair2", "pair3", "pair4", "z2", "z3", "z4",
    "pair2_plus_units1", "pair2_plus_pair2", "pair2_plus_z2", "bundle2xZ2",
)


def rungs(w: Path, o: Path) -> list[tuple[str, list[list[str]], int, int]]:
    """(name, argv lists, seconds budget, memory budget in MB), inputs in w, outputs in o."""
    out = []
    for c in ("singleton", "ample"):
        calls = [["check-iso", f"{w}/corpus/{d}.gpd", "--collection", c] for d in CORPUS]
        out.append((f"corpus check-iso {c}", calls, 60, 1024))
    for g, seconds, memory in (("pair5", 60, 1024), ("pair6", 180, 3072)):
        out.append((f"ample {g} -o", [["ample", f"{w}/{g}.gpd", "-o", f"{o}/{g}.sgp"]],
                    seconds, memory))
        back = [["reconstruct", f"{o}/{g}.sgp", "-o", f"{o}/{g}.back.gpd"]]
        out.append((f"reconstruct {g}", back, seconds, memory))
    # units13's table document is 403 MB
    for g, memory in (("units10", 2048), ("units11", 2048), ("units12", 2048), ("units13", 3072)):
        out.append((f"ample {g} -o", [["ample", f"{w}/{g}.gpd", "-o", f"{o}/{g}.sgp"]], 60, memory))
        out.append((f"spectrum {g}", [["spectrum", f"{o}/{g}.sgp"]], 60, memory))
        back = [["reconstruct", f"{o}/{g}.sgp", "-o", f"{o}/{g}.back.gpd"]]
        out.append((f"reconstruct {g}", back, 60, memory))
    for g in ("units300", "units1100", "units2000", "units4000"):
        out.append((f"check-iso {g} singleton", [["check-iso", f"{w}/{g}.gpd"]], 120, 1024))
    for g in ("units5", "units6", "pair3+pair3"):
        out.append((f"rep-check {g} ample",
                    [["rep-check", f"{w}/{g}.gpd", "--collection", "ample"]], 60, 1024))
    # exits 2 once the count memoizes MAX_REP_STATES states, at about 1 GB resident
    out.append(("rep-check units7 ample",
                [["rep-check", f"{w}/units7.gpd", "--collection", "ample"]], 300, 2048))
    for g, seconds in (("pair16", 60), ("pair20", 60), ("units1100", 60), ("units2000", 180)):
        out.append((f"rep-check {g} singleton", [["rep-check", f"{w}/{g}.gpd"]], seconds, 1024))
    out.append(("stone-check 4", [["stone-check", "--max-points", "4"]], 60, 1024))
    out.append(("stone-check 5", [["stone-check", "--max-points", "5"]], 180, 1024))
    return out


# Parts of the build, of parse_semigroup, of validate_inverse_semigroup and of cli.main
# that get their own span, where the checkout has them: (module, function, span name).
PARTS = [
    ("formats", "_table", "formats.parse.table_s"),
    ("groupoids", "_run_slots", "groupoids.build.index_s"),
    ("groupoids", "_product_codes", "groupoids.build.products_s"),
    *(("semigroups", part, f"semigroups.validate.{part.strip('_')}_s")
      for part in ["associativity_witness", "_support_associative", "_inner_inverses",
                   "_unique_inverses", "_absorbing"]),
    ("cli", "write_document", "cli.write_document_s"),
]


def child(root: Path, argvs: list[list[str]], memory_mb: int) -> dict:
    """Run the argv lists in this process under the tracer; the rung's record."""
    resource.setrlimit(resource.RLIMIT_AS, (memory_mb * MB, memory_mb * MB))
    sys.path[:0] = [str(root / "src"), str(root / "benchmark")]
    import tracing
    from ample import cli

    missing = []
    for module, function, name in PARTS:
        if hasattr(sys.modules[f"ample.{module}"], function):
            tracing._spanned(module, function, name)
        else:
            missing.append(f"{module}.{function}")
    tracer = tracing.Tracer()
    tracer.install()
    codes, errors, seconds, over = [], [], 0.0, None
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes.append(cli.main(argv))
        except MemoryError:
            over = "memory"
            break
        finally:
            seconds += time.perf_counter() - start
        if err.getvalue():
            errors.append(err.getvalue().splitlines()[-1])
    tracer.uninstall()
    stages = {k: round(v, 6) for k, v in sorted(tracing.self_times(tracer.spans).items())}
    return {
        "status": "over budget" if over else "ok",
        "over_budget": over,
        "exit_codes": codes,
        "errors": errors,
        "seconds": round(seconds, 6),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "stages": stages,
        "counters": dict(sorted(tracer.counts.items())),
        "missing_parts": missing,
    }


def run_rung(root: Path, argvs: list[list[str]], seconds: int, memory_mb: int) -> dict:
    """The child's record of one rung, or why there is none."""
    budget = {"seconds": seconds, "memory_mb": memory_mb}
    if any(argv[1].endswith(".sgp") and not Path(argv[1]).exists() for argv in argvs):
        return {"status": "no input", "budget": budget}
    spec = json.dumps({"root": str(root), "argvs": argvs, "memory_mb": memory_mb})
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, __file__, "--child", spec],
            capture_output=True,
            text=True,
            timeout=seconds,
            env={**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
        )
    except subprocess.TimeoutExpired:
        return {"status": "over budget", "over_budget": "time", "budget": budget,
                "wall_seconds": round(time.perf_counter() - start, 3)}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = (done.stderr.strip().splitlines() or [""])[-1]
        over = "memory" if "MemoryError" in done.stderr else None
        return {"status": "over budget" if over else "crashed", "over_budget": over,
                "budget": budget, "returncode": done.returncode, "stderr": tail}
    record = {**json.loads(lines[-1]), "budget": budget}
    if record["status"] == "ok":
        written = [Path(argv[argv.index("-o") + 1]) for argv in argvs if "-o" in argv]
        record["outputs"] = {path.name: sha256(path) for path in written if path.exists()}
    return record


def sha256(path: Path) -> str:
    """The hex sha256 of a file, read a megabyte at a time."""
    digest = hashlib.sha256()
    with path.open("rb") as f:
        for chunk in iter(lambda: f.read(MB), b""):
            digest.update(chunk)
    return digest.hexdigest()


def combine(results: list[dict]) -> dict:
    """One rung's record from its runs: medians and ranges of the runs that passed."""
    done = [r for r in results if r["status"] == "ok"]
    failed = [r for r in results if r["status"] != "ok"]
    record = {**(failed or done)[0], "repeats": len(results)}
    if failed:
        record["failed_repeats"] = len(failed)
    if done:
        for key in ("seconds", "peak_rss_mb"):
            values = [r[key] for r in done]
            record[key] = round(statistics.median(values), 6)
            record[f"{key}_range"] = [min(values), max(values)]
        names = sorted({name for r in done for name in r["stages"]})
        record["stages"] = {
            name: round(statistics.median(r["stages"].get(name, 0.0) for r in done), 6)
            for name in names
        }
    return record


def write_inputs(root: Path, work: Path) -> None:
    """Write the corpus and the other groupoid documents with the checkout's own package."""
    sys.path.insert(0, str(root / "src"))
    from ample import disjoint_union, pair_groupoid, units_groupoid, write_groupoid
    from ample.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        main(["corpus", "--out-dir", str(work / "corpus")])
    groupoids = {f"pair{n}": pair_groupoid(n) for n in (5, 6, 16, 20)}
    sizes = (5, 6, 7, 10, 11, 12, 13, 300, 1100, 2000, 4000)
    groupoids |= {f"units{n}": units_groupoid(n) for n in sizes}
    groupoids["pair3+pair3"] = disjoint_union(pair_groupoid(3), pair_groupoid(3))
    for name, G in groupoids.items():
        (work / f"{name}.gpd").write_text(write_groupoid(G), encoding="utf-8")


def describe(root: Path) -> dict:
    """The checkout's commit (-dirty when src/ differs from it), src/ size and the machine."""

    def git(*args: str) -> str:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return done.stdout

    dirty = bool(git("status", "--porcelain", "--", "src").strip())
    lines = sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))
    return {
        "commit": git("rev-parse", "--short", "HEAD").strip() + ("-dirty" if dirty else ""),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, nargs="+", default=[HERE],
                        help="checkouts to measure, in turns on each rung")
    parser.add_argument("--out", type=Path, help="BENCH_*.json to add each checkout's run to")
    parser.add_argument("--work", type=Path, default=HERE / ".bench_ladder")
    parser.add_argument("--only", nargs="*", help="rung names to run (default: all)")
    parser.add_argument("--repeat", type=int, default=1, help="runs of every rung (default 1)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        spec = json.loads(args.child)
        if "work" in spec:
            write_inputs(Path(spec["root"]), Path(spec["work"]))
        else:
            print(json.dumps(child(Path(spec["root"]), spec["argvs"], spec["memory_mb"])))
        return
    if not args.out:
        parser.error("--out is required")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    roots, work = [root.resolve() for root in args.root], args.work.resolve()
    outs = [work / f"root{i}" for i in range(len(roots))]
    for path in (work / "corpus", *outs):
        path.mkdir(parents=True, exist_ok=True)
    spec = json.dumps({"root": str(roots[0]), "work": str(work)})
    subprocess.run([sys.executable, __file__, "--child", spec], check=True)
    runs = [{**describe(root), "rungs": {}} for root in roots]
    for plans in zip(*(rungs(work, out) for out in outs)):
        name = plans[0][0]
        if args.only and name not in args.only:
            continue
        results = [[] for _ in roots]
        for _ in range(args.repeat):
            for root, (_, argvs, seconds, memory), mine in zip(roots, plans, results):
                mine.append(run_rung(root, argvs, seconds, memory))
        for run, mine in zip(runs, results):
            result = run["rungs"][name] = combine(mine)
            if "seconds" in result:
                low, high = result.get("seconds_range", (result["seconds"],) * 2)
                print(f"{run['commit']:14} {name:32} {result['status']:12} "
                      f"{result['seconds']:.3f} s ({low:.3f}-{high:.3f}), "
                      f"{result['peak_rss_mb']} MB", flush=True)
            else:
                print(f"{run['commit']:14} {name:32} {result['status']}", flush=True)
    previous = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
    commits = {run["commit"] for run in runs}
    runs = [r for r in previous if r["commit"] not in commits] + runs
    args.out.write_text(json.dumps({"ladder": "bench/ladder.py", "runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    main()
