"""Command-line driver.

Subcommands: validate, spectrum, ample, reconstruct, check-iso, rep-check,
stone-check, corpus.  Exit code 0 means every check passed, 1 means some
check failed, 2 means the input could not be used.  Reports are plain
deterministic text; --summary additionally writes a JSON digest.

Each ``cmd_*`` takes the parsed arguments and returns ``(lines, summary,
ok, documents)``: the report lines, the --summary fields other than
``command`` and ``ok``, whether every check passed, and ``{path:
document}`` for the documents that -o or --out-dir names.  A document is
its text, or an iterable of its lines (each with its newline) that is
written as it comes, so a large table is never held whole; either kind
goes to a sibling ``.part`` file that replaces the target only once it
is whole.  A document bound for stdout is the last report line instead,
without its final newline.  Commands print and write nothing themselves;
:func:`main` alone writes the documents, prints the lines, writes the
summary and picks the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import islice
from pathlib import Path

from .bitsets import iter_bits
from .convolution import check_tight_representation, rho
from .corpus import corpus as corpus_family
from .errors import AmpleError, CheckFailed
from .formats import (
    parse_document,
    parse_groupoid,
    parse_semigroup,
    semigroup_lines,
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


# (report lines, --summary fields, every check passed, {path: text or lines})
Report = tuple[list[str], dict, bool, dict]

# Bases stone-check hands to one stone_check call.
STONE_CHUNK = 1 << 15


def _text(args) -> str:
    """The document as read_text reads it: decoded from its bytes in one
    call, with its line ends made '\\n' as universal newlines make them."""
    text = Path(args.file).read_bytes().decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _semigroup(args):
    return parse_semigroup(_text(args), adjoin_missing_zero=args.adjoin_zero)


def _bisections(args):
    """The bisection semigroup of ``--collection`` on the document, and its report line."""
    G = parse_groupoid(_text(args))
    masks = singleton_semigroup(G) if args.collection == "singleton" else enumerate_bisections(G)
    return bisection_semigroup(G, masks), f"collection: {args.collection} ({len(masks)} elements)"


def cmd_validate(args) -> Report:
    if args.adjoin_zero:
        kind, value = "semigroup", _semigroup(args)
    else:
        kind, value = parse_document(_text(args))
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
    return lines, {"kind": kind}, True, {}


def cmd_spectrum(args) -> Report:
    S = _semigroup(args)
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
        ds = ",".join(f"q{i}" for i in iter_bits(spec.basic_sets[e]))
        lines.append(f"D[{S.elements[e]}] = {{{ds}}}")
    summary = {
        "filters": len(spec.filters),
        "ultrafilters": len(spec.points),
        "tight_points": len(spec.points),
    }
    return lines, summary, True, {}


def cmd_ample(args) -> Report:
    G = parse_groupoid(_text(args))
    masks = enumerate_bisections(G)
    bs = bisection_semigroup(G, masks)
    idem = bs.semigroup.idempotents
    T, _audit = abstract_table(bs, seed=args.seed)
    lines = [
        f"arrows: {len(G.arrows)}",
        f"units: {len(G.units)}",
        f"bisections: {len(masks)}",
        f"idempotent-bisections: {len(idem)}",
        "semilattice: " + " ".join(bisection_name(G, bs.bits[e]) for e in idem),
    ]
    lines.extend(f"  {name}" for name in bs.semigroup.elements)
    lines.append(f"abstract-table-seed: {args.seed}")
    summary = {"bisections": len(masks), "idempotents": len(idem), "seed": args.seed}
    if args.output:
        return lines, summary, True, {args.output: semigroup_lines(T)}
    return lines + [write_semigroup(T)[:-1]], summary, True, {}


def cmd_reconstruct(args) -> Report:
    T = _semigroup(args)
    model = build_germ_model(T)
    H = model.groupoid
    doc = write_groupoid(H)
    summary = {
        "tight_points": len(model.spectrum.points),
        "germ_arrows": len(H.arrows),
        "germ_units": len(H.units),
    }
    if not args.output:
        return [doc[:-1]], summary, True, {}
    lines = [
        f"elements: {len(T)}",
        f"idempotents: {len(model.semilattice)}",
        f"tight-points: {len(model.spectrum.points)}",
        f"germ-units: {len(H.units)}",
        f"germ-arrows: {len(H.arrows)}",
    ]
    return lines, summary, True, {args.output: doc}


def cmd_check_iso(args) -> Report:
    bs, collection = _bisections(args)
    run = run_reconstruction(bs, seed=args.seed)
    H = run.model.groupoid
    lines = [collection, f"reconstructed: {len(H.arrows)} arrows, {len(H.units)} units"]
    ok = True
    try:
        canonical_iso_of_run(run)
        lines.append("canonical-iso: ok")
    except CheckFailed as exc:
        lines.append(f"canonical-iso: FAIL ({exc})")
        ok = False
    found = brute_force_iso(H, bs.groupoid)
    if found is None:
        lines.append("brute-force-iso: FAIL (no isomorphism found)")
        ok = False
    else:
        lines.append("brute-force-iso: ok")
    lines.append(f"status: {'pass' if ok else 'fail'}")
    return lines, {"collection": args.collection, "seed": args.seed}, ok, {}


def cmd_rep_check(args) -> Report:
    bs, collection = _bisections(args)
    pi = [rho(bs.groupoid, m) for m in bs.bits]
    report = check_tight_representation(pi, bs.semigroup, audit_covers=args.audit_covers)
    lines = [collection, *report.lines(), f"status: {'pass' if report.passed else 'fail'}"]
    summary = {
        "collection": args.collection,
        "instances": report.instances_checked,
        "covers": report.covers_checked,
    }
    return lines, summary, report.passed, {}


def cmd_stone_check(args) -> Report:
    lines = []
    ok = True
    total = 0
    # every size's bases are generated, and counted against the guard, before
    # any is checked, so a size past the guard fails at once, with nothing
    # printed; a negative count is the one size and fails the same way
    sizes = range(min(args.max_points, 0), args.max_points + 1)
    sweep = [enumerate_point_bases(n) for n in sizes]
    for n, spaces in enumerate(sweep):
        bases = passed = 0
        # a chunk at a time, so five points never hold 1.4M spaces and reports;
        # the first chunk with a bad basis raises for the first in the sweep
        while chunk := list(islice(spaces, STONE_CHUNK)):
            for report in stone_check(chunk):
                if report.passed:
                    passed += 1
                else:
                    ok = False
                    lines.append(f"  FAIL at |X|={n}: {report.witness}")
            bases += len(chunk)
        total += bases
        lines.append(f"points={n} bases={bases} pass={passed}")
    lines.append(f"total-bases: {total}")
    lines.append(f"status: {'pass' if ok else 'fail'}")
    return lines, {"max_points": args.max_points, "bases": total}, ok, {}


def cmd_corpus(args) -> Report:
    family = corpus_family()
    lines = [
        f"{name}: arrows={len(G.arrows)} units={len(G.units)}" for name, G in family.items()
    ]
    documents = {}
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, G in family.items():
            documents[out / f"{name.replace('+', '_plus_')}.gpd"] = write_groupoid(G)
        lines.append(f"written: {len(documents)} files to {out}")
    return lines, {"instances": len(family), "written": len(documents)}, True, documents


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args makes a fresh namespace per call."""
    parser = argparse.ArgumentParser(
        prog="ample",
        description=(
            "Validate inverse-semigroup and groupoid tables, compute tight "
            "spectra, rebuild groupoids from abstract bisection semigroups, "
            "and run the exact check suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, file=True):
        p = sub.add_parser(name, help=help)
        if file:
            p.add_argument("file")
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "parse and validate a document").add_argument(
        "--adjoin-zero",
        action="store_true",
        help="treat the input as a semigroup and add an absorbing element if missing",
    )
    p = command("spectrum", cmd_spectrum, "filters, ultrafilters, tight points, D_e")
    p.add_argument("--adjoin-zero", action="store_true")
    p = command("ample", cmd_ample, "bisection semigroup and its abstract table")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="write the abstract table here")
    p = command("reconstruct", cmd_reconstruct, "germ groupoid of a semigroup document")
    p.add_argument("--adjoin-zero", action="store_true")
    p.add_argument("-o", "--output", help="write the groupoid document here")
    p = command(
        "check-iso", cmd_check_iso, "reconstruct from a groupoid's own bisections and compare"
    )
    p.add_argument("--collection", choices=("singleton", "ample"), default="singleton")
    p.add_argument("--seed", type=int, default=0)
    p = command("rep-check", cmd_rep_check, "tight-representation check for the indicator map")
    p.add_argument("--collection", choices=("singleton", "ample"), default="singleton")
    p.add_argument("--audit-covers", action="store_true")
    p = command("stone-check", cmd_stone_check, "point/spectrum correspondence sweep", file=False)
    p.add_argument("--max-points", type=int, default=4)
    p = command("corpus", cmd_corpus, "list or write the built-in instance family", file=False)
    p.add_argument("--out-dir", metavar="DIR")
    # after each command's own options, as its help lists them
    for p in sub.choices.values():
        p.add_argument("--summary", metavar="PATH", help="write a JSON digest here")

    return parser


def write_document(path: Path, doc) -> None:
    """Write ``doc`` (its text or its lines) beside ``path``, then move it there.

    The lines are written as they come, so ``path`` never holds part of a
    document: a write that fails leaves whatever was there before.  A
    device or a pipe (``/dev/null``, say) takes the lines directly, and a
    symbolic link keeps pointing at the file it names.
    """
    lines = [doc] if isinstance(doc, str) else doc
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(lines)
        return
    path = path.resolve()
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w", encoding="utf-8") as out:
            out.writelines(lines)
        part.replace(path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lines, summary, ok, documents = args.func(args)
        for path, doc in documents.items():
            write_document(Path(path), doc)
        for line in lines:
            print(line)
        if args.summary:
            payload = {"command": args.command, **summary, "ok": ok}
            Path(args.summary).write_text(
                json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
        return 0 if ok else 1
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AmpleError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
