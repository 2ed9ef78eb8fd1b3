"""The point-to-character correspondence and the round trip.

A finite Hausdorff space is discrete, so a compact-open basis closed under
intersection that generates the topology must contain every singleton;
PointBasisSpace bakes that in.  The reconstruction itself consumes nothing
but an abstract multiplication table; the hidden audit produced alongside
the table is touched only by canonical_iso_of_run, after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .bitsets import iter_bits, mask_of
from .errors import BoundExceeded, CheckFailed, ValidationError
from .germs import GermGroupoidModel, build_germ_model
from .groupoids import BisectionSemigroup, FiniteGroupoid, TableAudit, abstract_table
from .semigroups import (
    FiniteInverseSemigroup,
    Semilattice,
    idempotent_semilattice,
    integers,
    validate_inverse_semigroup,
)
from .spectrum import TightSpectrum, tight_spectrum

MAX_BASIS_FAMILIES = 1 << 20
# Most assignments brute_force_iso tries before it gives up.
MAX_ISO_NODES = 1_000_000


# -- point/basis spaces --------------------------------------------------------


@dataclass(frozen=True)
class PointBasisSpace:
    """A finite set of points with an intersection-closed basis of subsets.

    The basis must contain the empty set and every singleton; members are
    stored as int masks over point indices, ordered by size, then by their
    sorted members.
    """

    points: tuple[str, ...]
    basis: tuple[int, ...]


def _basis_order(mask: int) -> tuple[int, list[int]]:
    return mask.bit_count(), list(iter_bits(mask))


def point_basis_space(
    points: Iterable[str], sets: Iterable[Iterable[int]]
) -> PointBasisSpace:
    pts = tuple(str(p) for p in points)
    members = [integers(s, "point index") for s in sets]
    for s in members:
        for i in s:
            if not 0 <= i < len(pts):
                raise ValidationError(f"basis member mentions unknown point {i}")
    ordered = tuple(sorted({mask_of(s) for s in members}, key=_basis_order))
    family = set(ordered)
    if 0 not in family:
        raise ValidationError("basis must contain the empty set")
    for i in range(len(pts)):
        if 1 << i not in family:
            raise ValidationError(f"basis must contain the singleton of {pts[i]}")
    for a in ordered:
        for b in ordered:
            if a & b not in family:
                raise ValidationError(
                    "basis not closed under intersection at"
                    f" {list(iter_bits(a))} and {list(iter_bits(b))}"
                )
    return PointBasisSpace(pts, ordered)


def _set_name(mask: int) -> str:
    if not mask:
        return "0"
    return "U" + ".".join(map(str, iter_bits(mask)))


def basis_semilattice(space: PointBasisSpace) -> Semilattice:
    """The basis viewed as a semilattice under intersection.

    Carrier position p is the basis member ``space.basis[p]``.
    """
    sets = space.basis
    index = {s: i for i, s in enumerate(sets)}
    table = np.array([index[a & b] for a in sets for b in sets], dtype=np.int32)
    sg = validate_inverse_semigroup(map(_set_name, sets), table.reshape(len(sets), -1))
    E = idempotent_semilattice(sg)
    if E.carrier != tuple(range(len(sets))):
        raise CheckFailed("every basis set must be an idempotent")
    return E


def phi_point(space: PointBasisSpace, spec: TightSpectrum, x: int) -> int:
    """The character of the basis members through x; certified ultra.

    ``spec`` is the tight spectrum of :func:`basis_semilattice` of the
    space, whose points are certified to be its ultrafilters.
    """
    bits = mask_of(p for p, s in enumerate(space.basis) if s >> x & 1)
    if bits not in spec.point_index:
        raise CheckFailed("a point character must be an ultrafilter")
    return bits


@dataclass
class StoneReport:
    """Outcome of the point/spectrum comparison for one space."""

    point_count: int
    basis_count: int
    spectrum_size: int
    injective: bool
    surjective: bool
    basic_sets_match: bool
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.injective and self.surjective and self.basic_sets_match

    def require(self) -> None:
        if not self.passed:
            raise CheckFailed(self.witness or "stone check failed")


def stone_check(space: PointBasisSpace) -> StoneReport:
    """Compare x -> xi_x against the tight spectrum of the basis.

    Verifies injectivity, surjectivity onto the tight characters, and that
    the image of each basis member U is exactly D_U, as masks over the
    spectrum's point indices.
    """
    E = basis_semilattice(space)
    spec = tight_spectrum(E)
    point_of = [spec.point_index[phi_point(space, spec, x)] for x in range(len(space.points))]
    hit = mask_of(point_of)
    injective = hit.bit_count() == len(space.points)
    surjective = hit == (1 << len(spec.points)) - 1
    witness = None
    if not injective:
        witness = "two points induce the same character"
    elif not surjective:
        witness = "a tight character comes from no point"
    basic_ok = True
    for p, s in enumerate(space.basis):
        if mask_of(point_of[x] for x in iter_bits(s)) != spec.basic_sets[E.carrier[p]]:
            basic_ok = False
            witness = f"image of {_set_name(s)} differs from its basic set"
            break
    return StoneReport(
        point_count=len(space.points),
        basis_count=len(space.basis),
        spectrum_size=len(spec.points),
        injective=injective,
        surjective=surjective,
        basic_sets_match=basic_ok,
        witness=witness,
    )


def enumerate_point_bases(n_points: int) -> list[PointBasisSpace]:
    """Every intersection-closed, singleton-containing basis on n points.

    Pairs of candidate members only constrain the family when their
    intersection has two or more points, so closure is checked over the
    chosen larger sets alone.  Every subset of two or more points is in or
    out, so the scan visits 2^(2^n - n - 1) families; past
    MAX_BASIS_FAMILIES it raises BoundExceeded before scanning.
    """
    if n_points < 0:
        raise ValidationError(f"point count {n_points} is negative")
    larger = (1 << n_points) - n_points - 1
    if larger >= MAX_BASIS_FAMILIES.bit_length():
        raise BoundExceeded(
            f"basis enumeration on {n_points} points would scan 2^{larger}"
            f" > {MAX_BASIS_FAMILIES} candidate families"
        )
    bigger = [
        mask_of(c) for k in range(2, n_points + 1) for c in combinations(range(n_points), k)
    ]
    every = sorted(range(1 << n_points), key=_basis_order)
    spaces = []
    names = tuple(f"p{i}" for i in range(n_points))
    for pick in range(1 << len(bigger)):
        chosen = {bigger[i] for i in iter_bits(pick)}
        if all((a & b).bit_count() < 2 or a & b in chosen for a in chosen for b in chosen):
            basis = tuple(s for s in every if s.bit_count() < 2 or s in chosen)
            spaces.append(PointBasisSpace(names, basis))
    return spaces


# -- reconstruction and isomorphism ---------------------------------------------


def reconstruct(T: FiniteInverseSemigroup) -> FiniteGroupoid:
    """The reconstruction deliverable: the germ groupoid of the bare table."""
    return build_germ_model(T).groupoid


@dataclass(frozen=True)
class GroupoidIsomorphism:
    """An arrow bijection intertwining units, d, r, inversion and composition."""

    source: FiniteGroupoid
    target: FiniteGroupoid
    arrow_map: tuple[int, ...]

    __hash__ = None


def check_isomorphism(iso: GroupoidIsomorphism) -> None:
    """Raise CheckFailed with a witness unless the map is an isomorphism."""
    G, H, f = iso.source, iso.target, iso.arrow_map
    if len(f) != len(G.arrows) or len(set(f)) != len(f) or len(f) != len(H.arrows):
        raise CheckFailed(f"map covers {len(set(f))} of {len(H.arrows)} target arrows")
    for a, b in enumerate(f):
        if not 0 <= b < len(H.arrows):
            raise CheckFailed(f"{G.arrows[a]} maps to {b}, not a target arrow index")
    if mask_of(f[u] for u in G.units) != H.units_mask:
        raise CheckFailed("units are not carried onto units")
    for a in range(len(G.arrows)):
        if f[G.d[a]] != H.d[f[a]] or f[G.r[a]] != H.r[f[a]]:
            raise CheckFailed(f"source/range not intertwined at {G.arrows[a]}")
        if f[G.inverse[a]] != H.inverse[f[a]]:
            raise CheckFailed(f"inversion not intertwined at {G.arrows[a]}")
    # f(a) f(b) against f(ab); the trailing -1 keeps non-composable pairs at -1
    at = np.array([*f, -1])
    differs = H.compose[np.ix_(at[:-1], at[:-1])] != at[G.compose]
    if differs.any():
        a, b = divmod(int(differs.argmax()), len(f))
        raise CheckFailed(f"composition not intertwined at {G.arrows[a]} * {G.arrows[b]}")


@dataclass(frozen=True)
class ReconstructionRun:
    """One abstracted table with everything derived from it."""

    groupoid: FiniteGroupoid
    table: FiniteInverseSemigroup
    audit: TableAudit
    model: GermGroupoidModel

    __hash__ = None


def run_reconstruction(bs: BisectionSemigroup, seed: int = 0) -> ReconstructionRun:
    """Abstract the table of ``bs`` under ``seed`` and rebuild its germ groupoid."""
    T, audit = abstract_table(bs, seed=seed)
    return ReconstructionRun(bs.groupoid, T, audit, build_germ_model(T))


def canonical_iso_of_run(run: ReconstructionRun) -> GroupoidIsomorphism:
    """Send the germ of S at xi_x to the unique arrow of S with source x.

    Raises CheckFailed when class members disagree or the resulting map
    is not an isomorphism; these are bug traps at finite scale.
    """
    G = run.groupoid
    model = run.model
    audit = run.audit
    E = model.semilattice
    mapping = []
    for a in range(len(model.groupoid.arrows)):
        bits = model.spectrum.points[model.arrow_point[a]]
        inter = G.units_mask
        for p in iter_bits(bits):
            unit_set = audit.bisections[E.carrier[p]]
            if unit_set & ~G.units_mask:
                raise CheckFailed("idempotent bisections are unit sets")
            inter &= unit_set
        if inter == 0 or inter & (inter - 1):
            raise CheckFailed(
                f"base character of arrow {model.groupoid.arrows[a]} does not pin a point"
            )
        x = inter.bit_length() - 1
        gammas = set()
        for s in model.arrow_members[a]:
            found = [g for g in iter_bits(audit.bisections[s]) if G.d[g] == x]
            if len(found) != 1:
                raise CheckFailed(
                    f"{run.table.elements[s]} has no unique arrow with source {G.arrows[x]}"
                )
            gammas.add(found[0])
        if len(gammas) != 1:
            raise CheckFailed(
                f"class members of {model.groupoid.arrows[a]} map to different arrows"
            )
        mapping.append(gammas.pop())
    if len(set(mapping)) != len(G.arrows):
        raise CheckFailed(f"germ arrows cover {len(set(mapping))} of {len(G.arrows)} arrows")
    iso = GroupoidIsomorphism(model.groupoid, G, tuple(mapping))
    check_isomorphism(iso)
    return iso


def _unit_signature(G: FiniteGroupoid, u: int) -> tuple[int, int, int]:
    out = sum(1 for a in range(len(G.arrows)) if G.d[a] == u)
    inc = sum(1 for a in range(len(G.arrows)) if G.r[a] == u)
    loops = sum(1 for a in range(len(G.arrows)) if G.d[a] == u and G.r[a] == u)
    return (out, inc, loops)


def brute_force_iso(G1: FiniteGroupoid, G2: FiniteGroupoid) -> GroupoidIsomorphism | None:
    """Independent backtracking search for an isomorphism; None if none exists.

    Units are matched first by degree signature, then arrows fiber by
    fiber with incremental inverse/composition consistency; the search
    aborts with BoundExceeded after MAX_ISO_NODES assignments.
    """
    n = len(G1.arrows)
    if n != len(G2.arrows) or len(G1.units) != len(G2.units):
        return None
    sig1 = {u: _unit_signature(G1, u) for u in G1.units}
    sig2 = {u: _unit_signature(G2, u) for u in G2.units}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None

    order = list(G1.units) + [a for a in range(n) if not G1.is_unit(a)]
    mapping: dict[int, int] = {}
    used = [False] * n

    def candidates(a: int) -> list[int]:
        if G1.is_unit(a):
            return [u for u in G2.units if not used[u] and sig2[u] == sig1[a]]
        du, ru = mapping.get(G1.d[a]), mapping.get(G1.r[a])
        return [
            b
            for b in range(n)
            if not used[b]
            and not G2.is_unit(b)
            and G2.d[b] == du
            and G2.r[b] == ru
        ]

    def consistent(a: int, b: int) -> bool:
        ia = G1.inverse[a]
        if ia in mapping and mapping[ia] != G2.inverse[b]:
            return False
        # a and b against every mapped pair and themselves, on both sides
        pairs = (*mapping.items(), (a, b))
        for one, two in (
            (G1.compose[a].tolist(), G2.compose[b].tolist()),
            (G1.compose[:, a].tolist(), G2.compose[:, b].tolist()),
        ):
            for x, y in pairs:
                c = one[x]
                if c >= 0:
                    cc = two[y]
                    if cc < 0 or (c in mapping and mapping[c] != cc):
                        return False
        return True

    def search() -> bool:
        # levels[i] holds the untried candidates for order[i]: an explicit
        # stack, so a long order cannot overflow Python's recursion limit
        nodes = 0
        levels = [iter(candidates(order[0]))] if order else []
        while levels:
            a = order[len(levels) - 1]
            for b in levels[-1]:
                nodes += 1
                if nodes > MAX_ISO_NODES:
                    raise BoundExceeded("isomorphism search exceeded its node budget")
                if consistent(a, b):
                    break
            else:
                levels.pop()
                if levels:
                    used[mapping.pop(order[len(levels) - 1])] = False
                continue
            mapping[a] = b
            used[b] = True
            if len(levels) == len(order):
                return True
            levels.append(iter(candidates(order[len(levels)])))
        return not order

    if not search():
        return None
    arrow_map = tuple(mapping[a] for a in range(n))
    iso = GroupoidIsomorphism(G1, G2, arrow_map)
    check_isomorphism(iso)
    return iso
