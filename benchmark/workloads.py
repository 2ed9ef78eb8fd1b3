"""Seeded inputs, request mixes and known answers for the three workloads.

Everything here is independent of the ``ample`` package: groupoid and
semigroup documents are written as text, and every expected verdict comes
from closed-form counts of the generating families, never from running the
program under test.

Arrow names are ``<component>.a<i>_<j>``: the underscore keeps pair arrows
unambiguous for every n.  (``ample.corpus.pair_groupoid`` renders
``a{i}{j}`` and so fails with "duplicate arrow names" from n = 11 on,
because a1+11 and a11+1 both give ``a111``.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path
from typing import Callable

# -- groupoid families -----------------------------------------------------------


@dataclass(frozen=True)
class Groupoid:
    """A finite groupoid described by names only.

    ``arrows`` lists (name, source unit, range unit) for the non-unit arrows;
    ``compose`` lists (left, right, product) for composable non-unit pairs,
    where the product may be a unit; ``bisections`` is the size of the ample
    semigroup (every bisection, the empty one included).
    """

    units: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]
    compose: tuple[tuple[str, str, str], ...]
    inverse: tuple[tuple[str, str], ...]
    bisections: int

    @property
    def arrow_count(self) -> int:
        return len(self.units) + len(self.arrows)


def pair(n: int, tag: str) -> Groupoid:
    """The pair groupoid on n points: one arrow i -> j for every i != j."""
    unit = [f"{tag}.u{i}" for i in range(n)]

    def name(i: int, j: int) -> str:
        return unit[i] if i == j else f"{tag}.a{i}_{j}"

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    arrows = tuple((name(i, j), unit[i], unit[j]) for i, j in pairs)
    # (j -> k) after (i -> j) is (i -> k).
    compose = tuple(
        (name(j, k), name(i, j), name(i, k))
        for i, j in pairs
        for k in range(n)
        if k != j
    )
    inverse = tuple((name(i, j), name(j, i)) for i, j in pairs)
    # Bisections are partial injections of the n points.
    count = sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
    return Groupoid(tuple(unit), arrows, compose, inverse, count)


def cyclic(k: int, tag: str) -> Groupoid:
    """Z/k as a one-unit groupoid."""
    e = f"{tag}.e"

    def name(i: int) -> str:
        return e if i % k == 0 else f"{tag}.c{i % k}"

    rest = range(1, k)
    arrows = tuple((name(i), e, e) for i in rest)
    compose = tuple((name(i), name(j), name(i + j)) for i in rest for j in rest)
    inverse = tuple((name(i), name(k - i)) for i in rest)
    return Groupoid((e,), arrows, compose, inverse, k + 1)


def units(n: int, tag: str) -> Groupoid:
    """n isolated units."""
    return Groupoid(tuple(f"{tag}.u{i}" for i in range(n)), (), (), (), 2**n)


def union(*parts: Groupoid) -> Groupoid:
    """Disjoint union; the components already carry distinct tags."""
    count = 1
    for g in parts:
        count *= g.bisections
    return Groupoid(
        sum((g.units for g in parts), ()),
        sum((g.arrows for g in parts), ()),
        sum((g.compose for g in parts), ()),
        sum((g.inverse for g in parts), ()),
        count,
    )


FAMILIES = {
    "pair4": lambda: pair(4, "p"),
    "pair3+z3": lambda: union(pair(3, "p"), cyclic(3, "z")),
    "pair3+z4": lambda: union(pair(3, "p"), cyclic(4, "z")),
    "pair2+pair3": lambda: union(pair(2, "p"), pair(3, "q")),
    "pair4+units1": lambda: union(pair(4, "p"), units(1, "v")),
    "units4": lambda: units(4, "v"),
    "units5": lambda: units(5, "v"),
    "units6": lambda: units(6, "v"),
    "units14": lambda: units(14, "v"),
    **{f"pair{n}": (lambda n=n: pair(n, "p")) for n in range(12, 16)},
}


def groupoid_document(G: Groupoid, rng: random.Random) -> str:
    """Groupoid document with units and arrows listed in a seeded order.

    The order fixes the program's internal arrow indices, so it relabels
    every bisection and every table built from them.
    """
    unit_order = list(G.units)
    arrows = list(G.arrows)
    rng.shuffle(unit_order)
    rng.shuffle(arrows)
    lines = ["groupoid {", "  units { " + " ".join(unit_order) + " }", "  arrows {"]
    lines += [f"    {a} : {d} -> {r}" for a, d, r in arrows]
    lines += ["  }", "  compose {"]
    lines += [f"    {a} {b} = {c}" for a, b, c in G.compose]
    lines += ["  }", "  inverse {"]
    lines += [f"    {a} = {b}" for a, b in G.inverse]
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def singleton_document(G: Groupoid, rng: random.Random) -> str:
    """Semigroup document of the singleton bisections plus the empty one."""
    product = {}
    for u in G.units:
        product[(u, u)] = u
    for a, d, r in G.arrows:
        product[(a, d)] = a
        product[(r, a)] = a
    for a, b, c in G.compose:
        product[(a, b)] = c
    names = ["0", *G.units, *(a for a, _, _ in G.arrows)]
    rng.shuffle(names)
    lines = ["semigroup {", "  elements { " + " ".join(names) + " }", "  zero 0", "  table {"]
    for a in names:
        lines.append("    " + " ".join(product.get((a, b), "0") for b in names))
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


# -- abstract tables as text -----------------------------------------------------


def read_table(text: str) -> tuple[list[str], str, list[str]]:
    """Elements, zero and row-major entries of a semigroup document.

    Only for documents the program itself wrote, so no error handling.
    """
    tokens = text.split()
    elements = tokens[tokens.index("elements") + 2 : tokens.index("zero") - 1]
    zero = tokens[tokens.index("zero") + 1]
    start = tokens.index("table") + 2
    entries = tokens[start : start + len(elements) ** 2]
    return elements, zero, entries


def corrupt_zero_column(text: str, rng: random.Random) -> str:
    """Set T[a][0] := b for a != 0 and b not in {0, a}.

    No element is absorbing afterwards: the old zero fails at T[a][0] = b,
    a fails because b != a, and every other w has T[w][0] = 0 != w.  So the
    table is rejected (exit 2) whichever check fires first.
    """
    elements, zero, entries = read_table(text)
    n = len(elements)
    z = elements.index(zero)
    a = rng.choice([i for i in range(n) if i != z])
    b = rng.choice([i for i in range(n) if i not in (z, a)])
    entries[a * n + z] = elements[b]
    lines = ["semigroup {", "  elements { " + " ".join(elements) + " }", f"  zero {zero}",
             "  table {"]
    for i in range(n):
        lines.append("    " + " ".join(entries[i * n : (i + 1) * n]))
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


# -- requests and their known answers -------------------------------------------


@dataclass(frozen=True)
class Request:
    """One CLI call and the verdict it must produce.

    ``summary`` holds the --summary keys whose values are known in advance
    (None: the call must fail before writing one); ``lines`` are lines the
    report on stdout must contain.
    """

    kind: str
    argv: tuple[str, ...]
    code: int = 0
    summary: dict | None = None
    lines: tuple[str, ...] = ()


# A factory draws any per-request seed from the run's generator.
Factory = Callable[[random.Random], Request]


def ample_request(name: str, G: Groupoid, gpd: str, out: str) -> Factory:
    def make(rng: random.Random) -> Request:
        k = rng.randrange(1 << 16)
        U, idem = len(G.units), 2 ** len(G.units)
        return Request(
            f"ample {name}",
            ("ample", gpd, "-o", out, "--seed", str(k)),
            summary={"command": "ample", "bisections": G.bisections, "idempotents": idem,
                     "seed": k, "ok": True},
            lines=(f"arrows: {G.arrow_count}", f"units: {U}", f"bisections: {G.bisections}",
                   f"idempotent-bisections: {idem}", f"abstract-table-seed: {k}"),
        )

    return make


def check_iso_request(name: str, G: Groupoid, gpd: str) -> Factory:
    def make(rng: random.Random) -> Request:
        k = rng.randrange(1 << 16)
        return Request(
            f"check-iso {name}",
            ("check-iso", gpd, "--collection", "ample", "--seed", str(k)),
            summary={"command": "check-iso", "collection": "ample", "seed": k, "ok": True},
            lines=(f"collection: ample ({G.bisections} elements)",
                   f"reconstructed: {G.arrow_count} arrows, {len(G.units)} units",
                   "canonical-iso: ok", "brute-force-iso: ok", "status: pass"),
        )

    return make


def reconstruct_request(name: str, G: Groupoid, sgp: str, out: str) -> Factory:
    U, A = len(G.units), G.arrow_count
    req = Request(
        f"reconstruct {name}",
        ("reconstruct", sgp, "-o", out),
        summary={"command": "reconstruct", "tight_points": U, "germ_arrows": A,
                 "germ_units": U, "ok": True},
        lines=(f"elements: {G.bisections}", f"idempotents: {2 ** U}", f"tight-points: {U}",
               f"germ-units: {U}", f"germ-arrows: {A}"),
    )
    return lambda rng: req


def rejected_request(name: str, sgp: str, out: str) -> Factory:
    req = Request(f"reconstruct {name} corrupted", ("reconstruct", sgp, "-o", out), code=2)
    return lambda rng: req


def spectrum_request(
    name: str, sgp: str, elements: int, idempotents: int, filters: int, points: int
) -> Factory:
    req = Request(
        f"spectrum {name}",
        ("spectrum", sgp),
        summary={"command": "spectrum", "filters": filters, "ultrafilters": points,
                 "tight_points": points, "ok": True},
        lines=(f"elements: {elements}", f"idempotents: {idempotents}", f"filters: {filters}",
               f"ultrafilters: {points}", f"tight-points: {points}"),
    )
    return lambda rng: req


def rep_check_request(name: str, gpd: str, collection: str, elements: int) -> Factory:
    req = Request(
        f"rep-check {name} {collection}",
        ("rep-check", gpd, "--collection", collection),
        summary={"command": "rep-check", "collection": collection, "ok": True},
        lines=(f"collection: {collection} ({elements} elements)", "status: pass"),
    )
    return lambda rng: req


# Intersection-closed, singleton-containing bases on at most four points.
STONE_BASES = 1110


def stone_check_request() -> Factory:
    req = Request(
        "stone-check 4",
        ("stone-check", "--max-points", "4"),
        summary={"command": "stone-check", "max_points": 4, "bases": STONE_BASES, "ok": True},
        lines=(f"total-bases: {STONE_BASES}", "status: pass"),
    )
    return lambda rng: req


# -- workloads -------------------------------------------------------------------

# A CLI call as the benchmark makes it: argv -> (exit code, stdout, stderr).
Cli = Callable[[list[str]], tuple[int, str, str]]
Mix = list[tuple[int, Factory]]


def _write_groupoids(work: Path, names, rng: random.Random) -> dict[str, tuple[Groupoid, str]]:
    out = {}
    for name in names:
        G = FAMILIES[name]()
        path = work / f"{name}.gpd"
        path.write_text(groupoid_document(G, rng), encoding="utf-8")
        out[name] = (G, str(path))
    return out


def _ample_table(cli: Cli, gpd: str, path: Path, rng: random.Random) -> str:
    code, _, err = cli(["ample", gpd, "-o", str(path), "--seed", str(rng.randrange(1 << 16))])
    if code != 0:
        raise RuntimeError(f"set-up could not write {path.name}: {err.strip()}")
    return str(path)


def geometry_to_table(work: Path, rng: random.Random, cli: Cli) -> Mix:
    names = ("pair3+z3", "pair3+z4", "pair4", "pair2+pair3", "pair4+units1")
    gs = _write_groupoids(work, names, rng)
    out = str(work / "T.sgp")

    def iso(name):
        return check_iso_request(name, *gs[name])

    def amp(name):
        return ample_request(name, *gs[name], out)

    # Sorted by time: p50 falls mid-way through check-iso pair3+z4 (ranks
    # 41-68), p90 mid-way through check-iso pair4 (85-96).
    return [
        (40, iso("pair3+z3")),
        (28, iso("pair3+z4")),
        (16, amp("pair3+z3")),
        (12, iso("pair4")),
        (1, amp("pair4")),
        (1, iso("pair2+pair3")),
        (1, amp("pair2+pair3")),
        (1, iso("pair4+units1")),
    ]


def table_to_groupoid(work: Path, rng: random.Random, cli: Cli) -> Mix:
    gs = _write_groupoids(work, ("pair3+z3", "pair3+z4", "pair4", "pair2+pair3"), rng)
    out = str(work / "H.gpd")
    good, bad = {}, {}
    for name, (G, gpd) in gs.items():
        sgp = _ample_table(cli, gpd, work / f"{name}.sgp", rng)
        good[name] = reconstruct_request(name, G, sgp, out)
        text = Path(sgp).read_text(encoding="utf-8")
        path = work / f"{name}.bad.sgp"
        path.write_text(corrupt_zero_column(text, rng), encoding="utf-8")
        bad[name] = rejected_request(name, str(path), out)
    # One request in five is a corrupted copy.  Sorted by time, p50 falls
    # in reconstruct pair3+z4, p90 in reconstruct pair2+pair3 (ranks 87-100).
    return [
        (28, good["pair3+z3"]),
        (24, good["pair3+z4"]),
        (14, good["pair4"]),
        (14, good["pair2+pair3"]),
        *((5, bad[name]) for name in gs),
    ]


def wide_semilattice(work: Path, rng: random.Random, cli: Cli) -> Mix:
    gs = _write_groupoids(work, ("units4", "units5", "units6", "pair4", "pair12"), rng)
    spectra = []
    for n in (5, 6):
        name = f"units{n}"
        sgp = _ample_table(cli, gs[name][1], work / f"{name}.sgp", rng)
        spectra.append(spectrum_request(name, sgp, 2**n, 2**n, 2**n - 1, n))
    for name in ("pair12", "pair13", "pair14", "pair15", "units14"):
        G = FAMILIES[name]()
        path = work / f"{name}.singleton.sgp"
        path.write_text(singleton_document(G, rng), encoding="utf-8")
        U = len(G.units)
        spectra.append(
            spectrum_request(f"{name} singleton", str(path), G.arrow_count + 1, U + 1, U, U)
        )
    units5, units6, pair12, pair13, pair14, pair15, flat14 = spectra

    def rep(name, collection):
        G, gpd = gs[name]
        size = G.bisections if collection == "ample" else G.arrow_count + 1
        return rep_check_request(name, gpd, collection, size)

    # 150 requests a pass: sorted by time, p50 falls in spectrum units5
    # (ranks 53-105) and p90 in spectrum units14 (114-142), six ranks clear
    # of the eight slow requests above it.
    return [
        (53, units5),
        (52, rep("units4", "ample")),
        (5, pair12),
        (3, pair13),
        (29, flat14),
        (2, pair14),
        (1, rep("pair4", "ample")),
        (1, rep("pair12", "singleton")),
        (1, pair15),
        (1, stone_check_request()),
        (1, rep("units5", "ample")),
        (1, units6),
    ]


WORKLOADS = {
    "geometry-to-table": geometry_to_table,
    "table-to-groupoid": table_to_groupoid,
    "wide-semilattice": wide_semilattice,
}
