"""The point-to-character correspondence, equivariance, and the round trip.

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

from .bitsets import iter_bits
from .errors import (
    BoundExceeded,
    CheckFailed,
    NotBijective,
    NotFunctorial,
    NotWellDefined,
    ValidationError,
)
from .germs import GermGroupoidModel, build_germ_model, theta_apply
from .groupoids import (
    BisectionSemigroup,
    FiniteGroupoid,
    TableAudit,
    abstract_table,
    lambda_action,
    source_mask,
)
from .semigroups import (
    FiniteInverseSemigroup,
    Semilattice,
    idempotent_semilattice,
    validate_inverse_semigroup,
)
from .spectrum import TightSpectrum, tight_spectrum

MAX_BASIS_FAMILIES = 1 << 20


# -- point/basis spaces --------------------------------------------------------


@dataclass(frozen=True)
class PointBasisSpace:
    """A finite set of points with an intersection-closed basis of subsets.

    The basis must contain the empty set and every singleton; members are
    stored as frozensets of point indices, canonically ordered.
    """

    points: tuple[str, ...]
    basis: tuple[frozenset[int], ...]


def point_basis_space(
    points: Iterable[str], sets: Iterable[Iterable[int]]
) -> PointBasisSpace:
    pts = tuple(str(p) for p in points)
    family = {frozenset(int(i) for i in s) for s in sets}
    for s in family:
        for i in s:
            if not 0 <= i < len(pts):
                raise ValidationError(f"basis member mentions unknown point {i}")
    if frozenset() not in family:
        raise ValidationError("basis must contain the empty set")
    for i in range(len(pts)):
        if frozenset([i]) not in family:
            raise ValidationError(f"basis must contain the singleton of {pts[i]}")
    for a in family:
        for b in family:
            if a & b not in family:
                raise ValidationError(
                    f"basis not closed under intersection at {sorted(a)} and {sorted(b)}"
                )
    ordered = tuple(sorted(family, key=lambda s: (len(s), sorted(s))))
    return PointBasisSpace(pts, ordered)


def _set_name(s: frozenset[int]) -> str:
    if not s:
        return "0"
    return "U" + ".".join(str(i) for i in sorted(s))


def basis_semilattice(
    space: PointBasisSpace,
) -> tuple[Semilattice, tuple[frozenset[int], ...]]:
    """The basis viewed as a semilattice under intersection.

    Returns the semilattice and, parallel to its carrier, the basis sets.
    """
    sets = space.basis
    index = {s: i for i, s in enumerate(sets)}
    names = [_set_name(s) for s in sets]
    rows = [[index[a & b] for b in sets] for a in sets]
    sg = validate_inverse_semigroup(names, rows)
    E = idempotent_semilattice(sg)
    assert E.carrier == tuple(range(len(sets)))
    return E, sets


def phi_point(space: PointBasisSpace, spec: TightSpectrum, x: int) -> int:
    """The character of the basis members through x; certified ultra.

    ``spec`` is the tight spectrum of :func:`basis_semilattice` of the
    space, whose points are certified to be its ultrafilters.
    """
    bits = 0
    for p, s in enumerate(space.basis):
        if x in s:
            bits |= 1 << p
    assert bits in spec.point_index, "a point character must be an ultrafilter"
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
    the image of each basis member U is exactly D_U.
    """
    E, sets = basis_semilattice(space)
    spec = tight_spectrum(E)
    chars = {x: phi_point(space, spec, x) for x in range(len(space.points))}
    injective = len(set(chars.values())) == len(space.points)
    surjective = set(chars.values()) == set(spec.points)
    witness = None
    if not injective:
        witness = "two points induce the same character"
    elif not surjective:
        witness = "a tight character comes from no point"
    basic_ok = True
    for p, s in enumerate(sets):
        image = {chars[x] for x in s}
        d_u = {spec.points[i] for i in spec.basic_sets[E.carrier[p]]}
        if image != d_u:
            basic_ok = False
            witness = f"image of {_set_name(s)} differs from its basic set"
            break
    return StoneReport(
        point_count=len(space.points),
        basis_count=len(sets),
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
    larger = (1 << n_points) - n_points - 1
    if larger >= MAX_BASIS_FAMILIES.bit_length():
        raise BoundExceeded(
            f"basis enumeration on {n_points} points would scan 2^{larger}"
            f" > {MAX_BASIS_FAMILIES} candidate families"
        )
    required = [frozenset()] + [frozenset([i]) for i in range(n_points)]
    bigger = [
        frozenset(c)
        for k in range(2, n_points + 1)
        for c in combinations(range(n_points), k)
    ]
    spaces = []
    names = tuple(f"p{i}" for i in range(n_points))
    for pick in range(1 << len(bigger)):
        chosen = {bigger[i] for i in iter_bits(pick)}
        if all(
            len(a & b) < 2 or a & b in chosen for a in chosen for b in chosen
        ):
            spaces.append(
                PointBasisSpace(
                    names,
                    tuple(
                        sorted(
                            set(required) | chosen,
                            key=lambda s: (len(s), sorted(s)),
                        )
                    ),
                )
            )
    return spaces


# -- equivariance ---------------------------------------------------------------


@dataclass
class EquivarianceReport:
    """theta after Phi versus Phi after lambda, over every element and unit."""

    elements_checked: int
    pairs_checked: int
    failures: list[tuple[str, str]]

    @property
    def passed(self) -> bool:
        return not self.failures


def equivariance_check(bs: BisectionSemigroup) -> EquivarianceReport:
    """Check theta_S(Phi(x)) = Phi(lambda_S(x)) for all S and x in d(S)."""
    G = bs.groupoid
    sg = bs.semigroup
    E = idempotent_semilattice(sg)
    spec = tight_spectrum(E)
    # Characters of units against the idempotent bisections (unit subsets).
    for e in E.carrier:
        assert bs.bits[e] & ~G.units_mask == 0, "idempotent bisections are unit sets"
    phi = {}
    for u in G.units:
        bits = 0
        for p, e in enumerate(E.carrier):
            if bs.bits[e] >> u & 1:
                bits |= 1 << p
        assert bits in spec.point_index, "unit characters must be tight"
        phi[u] = bits
    failures = []
    pairs = 0
    for s in range(len(sg)):
        mask = bs.bits[s]
        if mask == 0:
            continue
        for u in iter_bits(source_mask(G, mask)):
            pairs += 1
            lhs = theta_apply(E, s, phi[u])
            rhs = phi[lambda_action(G, mask, u)]
            if lhs != rhs:
                failures.append((sg.elements[s], G.arrows[u]))
    return EquivarianceReport(
        elements_checked=len(sg), pairs_checked=pairs, failures=failures
    )


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
    """Raise NotBijective / NotFunctorial with a witness if anything fails."""
    G, H, f = iso.source, iso.target, iso.arrow_map
    if len(f) != len(G.arrows) or len(set(f)) != len(f) or len(f) != len(H.arrows):
        raise NotBijective(
            f"map covers {len(set(f))} of {len(H.arrows)} target arrows"
        )
    if {f[u] for u in G.units} != set(H.units):
        raise NotFunctorial("units are not carried onto units")
    for a in range(len(G.arrows)):
        if f[G.d[a]] != H.d[f[a]] or f[G.r[a]] != H.r[f[a]]:
            raise NotFunctorial(f"source/range not intertwined at {G.arrows[a]}")
        if f[G.inverse[a]] != H.inverse[f[a]]:
            raise NotFunctorial(f"inversion not intertwined at {G.arrows[a]}")
    if len(G.compose) != len(H.compose):
        raise NotFunctorial("composable-pair counts differ")
    for (a, b), c in G.compose.items():
        if H.compose.get((f[a], f[b])) != f[c]:
            raise NotFunctorial(
                f"composition not intertwined at {G.arrows[a]} * {G.arrows[b]}"
            )


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

    Raises NotWellDefined when class members disagree, NotBijective or
    NotFunctorial when the resulting map is not an isomorphism; all three
    are bug traps at finite scale.
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
            assert unit_set & ~G.units_mask == 0
            inter &= unit_set
        if inter == 0 or inter & (inter - 1):
            raise NotWellDefined(
                f"base character of arrow {model.groupoid.arrows[a]} does not pin a point"
            )
        x = inter.bit_length() - 1
        gammas = set()
        for s in model.arrow_members[a]:
            found = [g for g in iter_bits(audit.bisections[s]) if G.d[g] == x]
            if len(found) != 1:
                raise NotWellDefined(
                    f"{run.table.elements[s]} has no unique arrow with source {G.arrows[x]}"
                )
            gammas.add(found[0])
        if len(gammas) != 1:
            raise NotWellDefined(
                f"class members of {model.groupoid.arrows[a]} map to different arrows"
            )
        mapping.append(gammas.pop())
    if len(set(mapping)) != len(G.arrows):
        raise NotBijective(
            f"germ arrows cover {len(set(mapping))} of {len(G.arrows)} arrows"
        )
    iso = GroupoidIsomorphism(model.groupoid, G, tuple(mapping))
    check_isomorphism(iso)
    return iso


def _unit_signature(G: FiniteGroupoid, u: int) -> tuple[int, int, int]:
    out = sum(1 for a in range(len(G.arrows)) if G.d[a] == u)
    inc = sum(1 for a in range(len(G.arrows)) if G.r[a] == u)
    loops = sum(1 for a in range(len(G.arrows)) if G.d[a] == u and G.r[a] == u)
    return (out, inc, loops)


def brute_force_iso(
    G1: FiniteGroupoid, G2: FiniteGroupoid, max_nodes: int = 1_000_000
) -> GroupoidIsomorphism | None:
    """Independent backtracking search for an isomorphism; None if none exists.

    Units are matched first by degree signature, then arrows fiber by
    fiber with incremental inverse/composition consistency; the search
    aborts with BoundExceeded after ``max_nodes`` assignments.
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
    nodes = 0

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
        for x, y in mapping.items():
            c = G1.compose.get((a, x))
            if c is not None:
                cc = G2.compose.get((b, y))
                if cc is None or (c in mapping and mapping[c] != cc):
                    return False
            c = G1.compose.get((x, a))
            if c is not None:
                cc = G2.compose.get((y, b))
                if cc is None or (c in mapping and mapping[c] != cc):
                    return False
        c = G1.compose.get((a, a))
        if c is not None:
            cc = G2.compose.get((b, b))
            if cc is None or (c in mapping and mapping[c] != cc):
                return False
        return True

    def search(i: int) -> bool:
        nonlocal nodes
        if i == len(order):
            return True
        a = order[i]
        for b in candidates(a):
            nodes += 1
            if nodes > max_nodes:
                raise BoundExceeded("isomorphism search exceeded its node budget")
            if not consistent(a, b):
                continue
            mapping[a] = b
            used[b] = True
            if search(i + 1):
                return True
            del mapping[a]
            used[b] = False
        return False

    if not search(0):
        return None
    arrow_map = tuple(mapping[a] for a in range(n))
    iso = GroupoidIsomorphism(G1, G2, arrow_map)
    check_isomorphism(iso)
    return iso
