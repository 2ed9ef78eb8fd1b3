"""Command-line driver.

Subcommands: validate, spectrum, ample, reconstruct, check-iso, rep-check,
stone-check, corpus.  Exit code 0 means every check passed, 1 means some
check failed, 2 means the input could not be used.  Reports are plain
deterministic text; --summary additionally writes a JSON digest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .convolution import check_tight_representation, rho
from .corpus import corpus as corpus_family
from .errors import AmpleError, NotBijective, NotFunctorial, NotWellDefined
from .formats import (
    parse_document,
    parse_groupoid,
    parse_semigroup,
    write_groupoid,
    write_semigroup,
)
from .germs import build_germ_model
from .groupoids import (
    abstract_table,
    bisection_name,
    bisection_semigroup,
    enumerate_bisections,
    singleton_semigroup,
)
from .reconstruction import (
    brute_force_iso,
    canonical_iso_of_run,
    enumerate_point_bases,
    run_reconstruction,
    stone_check,
)
from .semigroups import idempotent_semilattice
from .spectrum import tight_spectrum


def _emit(lines):
    for line in lines:
        print(line)


def _write_summary(path: str | None, payload: dict) -> None:
    if path:
        Path(path).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )


def _collection(G, which: str, max_bisections: int):
    if which == "singleton":
        return singleton_semigroup(G)
    return enumerate_bisections(G, max_candidates=max_bisections)


def cmd_validate(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    if args.adjoin_zero:
        kind, value = "semigroup", parse_semigroup(text, adjoin_missing_zero=True)
    else:
        kind, value = parse_document(text)
    lines = [f"kind: {kind}"]
    if kind == "semigroup":
        lines += [
            f"elements: {len(value)}",
            f"idempotents: {len(value.idempotents)}",
            f"zero: {value.elements[value.zero]}",
        ]
    else:
        lines += [f"arrows: {len(value.arrows)}", f"units: {len(value.units)}"]
    lines.append("status: ok")
    _emit(lines)
    _write_summary(args.summary, {"command": "validate", "kind": kind, "ok": True})
    return 0


def cmd_spectrum(args) -> int:
    S = parse_semigroup(
        Path(args.file).read_text(encoding="utf-8"),
        adjoin_missing_zero=args.adjoin_zero,
    )
    E = idempotent_semilattice(S)
    spec = tight_spectrum(E)  # its points are certified to be the ultrafilters

    def support(bits):
        members = [S.elements[E.carrier[p]] for p in range(len(E)) if bits >> p & 1]
        return "{" + ",".join(members) + "}"

    lines = [
        f"elements: {len(S)}",
        f"idempotents: {len(E)}",
        f"filters: {len(spec.filters)}",
        f"ultrafilters: {len(spec.points)}",
        f"tight-points: {len(spec.points)}",
    ]
    for i, bits in enumerate(spec.points):
        lines.append(f"point q{i} = {support(bits)}")
    for e in E.carrier:
        ds = ",".join(f"q{i}" for i in spec.basic_sets[e])
        lines.append(f"D[{S.elements[e]}] = {{{ds}}}")
    _emit(lines)
    _write_summary(
        args.summary,
        {
            "command": "spectrum",
            "filters": len(spec.filters),
            "ultrafilters": len(spec.points),
            "tight_points": len(spec.points),
            "ok": True,
        },
    )
    return 0


def cmd_ample(args) -> int:
    G = parse_groupoid(Path(args.file).read_text(encoding="utf-8"))
    masks = enumerate_bisections(G, max_candidates=args.max_bisections)
    bs = bisection_semigroup(G, masks)
    idem = bs.semigroup.idempotents
    T, _audit = abstract_table(bs, seed=args.seed)
    doc = write_semigroup(T)
    lines = [
        f"arrows: {len(G.arrows)}",
        f"units: {len(G.units)}",
        f"bisections: {len(masks)}",
        f"idempotent-bisections: {len(idem)}",
        "semilattice: " + " ".join(bisection_name(G, bs.bits[e]) for e in idem),
    ]
    lines.extend(f"  {name}" for name in bs.semigroup.elements)
    lines.append(f"abstract-table-seed: {args.seed}")
    _emit(lines)
    if args.output:
        Path(args.output).write_text(doc, encoding="utf-8")
    else:
        sys.stdout.write(doc)
    _write_summary(
        args.summary,
        {
            "command": "ample",
            "bisections": len(masks),
            "idempotents": len(idem),
            "seed": args.seed,
            "ok": True,
        },
    )
    return 0


def cmd_reconstruct(args) -> int:
    T = parse_semigroup(
        Path(args.file).read_text(encoding="utf-8"),
        adjoin_missing_zero=args.adjoin_zero,
    )
    model = build_germ_model(T)
    H = model.groupoid
    doc = write_groupoid(H)
    if args.output:
        Path(args.output).write_text(doc, encoding="utf-8")
        _emit(
            [
                f"elements: {len(T)}",
                f"idempotents: {len(model.semilattice)}",
                f"tight-points: {len(model.spectrum.points)}",
                f"germ-units: {len(H.units)}",
                f"germ-arrows: {len(H.arrows)}",
            ]
        )
    else:
        sys.stdout.write(doc)
    _write_summary(
        args.summary,
        {
            "command": "reconstruct",
            "tight_points": len(model.spectrum.points),
            "germ_arrows": len(H.arrows),
            "germ_units": len(H.units),
            "ok": True,
        },
    )
    return 0


def cmd_check_iso(args) -> int:
    G = parse_groupoid(Path(args.file).read_text(encoding="utf-8"))
    masks = _collection(G, args.collection, args.max_bisections)
    run = run_reconstruction(bisection_semigroup(G, masks), seed=args.seed)
    H = run.model.groupoid
    lines = [
        f"collection: {args.collection} ({len(masks)} elements)",
        f"reconstructed: {len(H.arrows)} arrows, {len(H.units)} units",
    ]
    ok = True
    try:
        canonical_iso_of_run(run)
        lines.append("canonical-iso: ok")
    except (NotWellDefined, NotBijective, NotFunctorial) as exc:
        lines.append(f"canonical-iso: FAIL ({exc})")
        ok = False
    found = brute_force_iso(H, G)
    if found is None:
        lines.append("brute-force-iso: FAIL (no isomorphism found)")
        ok = False
    else:
        lines.append("brute-force-iso: ok")
    lines.append(f"status: {'pass' if ok else 'fail'}")
    _emit(lines)
    _write_summary(
        args.summary,
        {
            "command": "check-iso",
            "collection": args.collection,
            "seed": args.seed,
            "ok": ok,
        },
    )
    return 0 if ok else 1


def cmd_rep_check(args) -> int:
    G = parse_groupoid(Path(args.file).read_text(encoding="utf-8"))
    masks = _collection(G, args.collection, args.max_bisections)
    bs = bisection_semigroup(G, masks)
    pi = [rho(G, m) for m in bs.bits]
    report = check_tight_representation(
        pi, bs.semigroup, audit_covers=args.audit_covers
    )
    lines = [f"collection: {args.collection} ({len(masks)} elements)"]
    lines += report.lines()
    lines.append(f"status: {'pass' if report.passed else 'fail'}")
    _emit(lines)
    _write_summary(
        args.summary,
        {
            "command": "rep-check",
            "collection": args.collection,
            "instances": report.instances_checked,
            "covers": report.covers_checked,
            "ok": report.passed,
        },
    )
    return 0 if report.passed else 1


def cmd_stone_check(args) -> int:
    lines = []
    ok = True
    total = 0
    # every size is enumerated first, so a size past the guard fails at once
    sweep = [enumerate_point_bases(n) for n in range(args.max_points + 1)]
    for n, spaces in enumerate(sweep):
        passed = 0
        for space in spaces:
            report = stone_check(space)
            if report.passed:
                passed += 1
            else:
                ok = False
                lines.append(f"  FAIL at |X|={n}: {report.witness}")
        total += len(spaces)
        lines.append(f"points={n} bases={len(spaces)} pass={passed}")
    lines.append(f"total-bases: {total}")
    lines.append(f"status: {'pass' if ok else 'fail'}")
    _emit(lines)
    _write_summary(
        args.summary,
        {"command": "stone-check", "max_points": args.max_points, "bases": total, "ok": ok},
    )
    return 0 if ok else 1


def cmd_corpus(args) -> int:
    family = corpus_family()
    lines = []
    for name, G in family.items():
        lines.append(f"{name}: arrows={len(G.arrows)} units={len(G.units)}")
    written = 0
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, G in family.items():
            safe = name.replace("+", "_plus_")
            (out / f"{safe}.gpd").write_text(write_groupoid(G), encoding="utf-8")
            written += 1
        lines.append(f"written: {written} files to {out}")
    _emit(lines)
    _write_summary(
        args.summary,
        {"command": "corpus", "instances": len(family), "written": written, "ok": True},
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ample",
        description=(
            "Validate inverse-semigroup and groupoid tables, compute tight "
            "spectra, rebuild groupoids from abstract bisection semigroups, "
            "and run the exact check suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_summary(p):
        p.add_argument("--summary", metavar="PATH", help="write a JSON digest here")

    p = sub.add_parser("validate", help="parse and validate a document")
    p.add_argument("file")
    p.add_argument(
        "--adjoin-zero",
        action="store_true",
        help="treat the input as a semigroup and add an absorbing element if missing",
    )
    add_summary(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("spectrum", help="filters, ultrafilters, tight points, D_e")
    p.add_argument("file")
    p.add_argument("--adjoin-zero", action="store_true")
    add_summary(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("ample", help="bisection semigroup and its abstract table")
    p.add_argument("file")
    p.add_argument("--max-bisections", type=int, default=1 << 20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="write the abstract table here")
    add_summary(p)
    p.set_defaults(func=cmd_ample)

    p = sub.add_parser("reconstruct", help="germ groupoid of a semigroup document")
    p.add_argument("file")
    p.add_argument("--adjoin-zero", action="store_true")
    p.add_argument("-o", "--output", help="write the groupoid document here")
    add_summary(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser(
        "check-iso", help="reconstruct from a groupoid's own bisections and compare"
    )
    p.add_argument("file")
    p.add_argument("--collection", choices=("singleton", "ample"), default="singleton")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-bisections", type=int, default=1 << 20)
    add_summary(p)
    p.set_defaults(func=cmd_check_iso)

    p = sub.add_parser("rep-check", help="tight-representation check for the indicator map")
    p.add_argument("file")
    p.add_argument("--collection", choices=("singleton", "ample"), default="singleton")
    p.add_argument("--audit-covers", action="store_true")
    p.add_argument("--max-bisections", type=int, default=1 << 20)
    add_summary(p)
    p.set_defaults(func=cmd_rep_check)

    p = sub.add_parser("stone-check", help="point/spectrum correspondence sweep")
    p.add_argument("--max-points", type=int, default=4)
    add_summary(p)
    p.set_defaults(func=cmd_stone_check)

    p = sub.add_parser("corpus", help="list or write the built-in instance family")
    p.add_argument("--out-dir", metavar="DIR")
    add_summary(p)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AmpleError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
