"""The paper's lemmas, checked on finite groupoids.

No command runs these.  The reconstruction relies on the statements they
check (the conjugation lemma, the equivariance of the actions theta and
lambda, the unit cover of the spectrum), and the suite checks them on
the corpus, from the geometry or from a germ model.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from ample import AlgebraElement, build_germ_model, rho, slice_product
from ample.bitsets import iter_bits, mask_of
from ample.errors import BoundExceeded, CheckFailed, ValidationError
from ample.germs import GermGroupoidModel
from ample.groupoids import BisectionSemigroup, FiniteGroupoid, bisection_name
from ample.semigroups import FiniteInverseSemigroup, idempotent_semilattice
from ample.spectrum import tight_spectrum

from oracles import domain_idempotent, theta_apply

# Most idempotent subsets unit_cover tries before it gives up.
MAX_COVER_COMBINATIONS = 1 << 20


# -- bisections and the action on units ----------------------------------------


def slice_inverse(G: FiniteGroupoid, mask: int) -> int:
    return mask_of(G.inverse[a] for a in iter_bits(mask))


def source_mask(G: FiniteGroupoid, mask: int) -> int:
    """d(S) as a bitmask of unit arrows."""
    return mask_of(G.d[a] for a in iter_bits(mask))


def element_of(bs: BisectionSemigroup) -> dict[int, int]:
    """The element of each bisection mask of the family."""
    return {mask: i for i, mask in enumerate(bs.bits)}


def lambda_action(G: FiniteGroupoid, mask: int, x: int) -> int:
    """r(gamma) for the unique gamma in the bisection with d(gamma) = x."""
    for a in iter_bits(mask):
        if G.d[a] == x:
            return G.r[a]
    raise ValidationError(
        f"unit {G.arrows[x]} is not in the source set of {bisection_name(G, mask)}"
    )


def check_conjugation_lemma(G: FiniteGroupoid, s_mask: int, u_mask: int) -> bool:
    """d(gamma) in S*US iff r(gamma) in U, for every gamma in S."""
    if u_mask & ~G.units_mask:
        raise CheckFailed("U must consist of units")
    conj = slice_product(G, slice_product(G, slice_inverse(G, s_mask), u_mask), s_mask)
    for a in iter_bits(s_mask):
        if bool(conj >> G.d[a] & 1) != bool(u_mask >> G.r[a] & 1):
            return False
    return True


# -- germs and slices ----------------------------------------------------------


def germ(model: GermGroupoidModel, s: int, point: int) -> int:
    """Arrow index of the germ of s at the given spectrum point."""
    S = model.semigroup
    bits = model.spectrum.points[point]
    if not bits >> int(model.semilattice.positions[domain_idempotent(S, s)]) & 1:
        raise ValidationError(f"point {point} is outside the domain of {S.elements[s]}")
    (arrow,) = [
        a
        for a, members in enumerate(model.arrow_members)
        if model.arrow_point[a] == point and s in members
    ]
    return arrow


def slice_of(model: GermGroupoidModel, s: int) -> int:
    """X_s: the germs of s at every point alive at s*s, as an arrow mask."""
    alive = model.spectrum.basic_sets[domain_idempotent(model.semigroup, s)]
    return mask_of(germ(model, s, point) for point in iter_bits(alive))


# -- equivariance ----------------------------------------------------------------


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
        if bs.bits[e] & ~G.units_mask:
            raise CheckFailed("idempotent bisections are unit sets")
    phi = {}
    for u in G.units:
        bits = mask_of(p for p, e in enumerate(E.carrier) if bs.bits[e] >> u & 1)
        if bits not in spec.point_index:
            raise CheckFailed("unit characters must be tight")
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


# -- joins and the unit cover ----------------------------------------------------


def sup(p: AlgebraElement, q: AlgebraElement) -> AlgebraElement:
    """Join of commuting idempotents: p + q - pq."""
    return p + q - p * q


def sup_all(groupoid: FiniteGroupoid, items: Iterable[AlgebraElement]) -> AlgebraElement:
    acc = AlgebraElement.zero(groupoid)
    for item in items:
        acc = sup(acc, item)
    return acc


def unit_cover(source: FiniteInverseSemigroup | GermGroupoidModel) -> list[int]:
    """Shortest list of idempotents whose basic sets exhaust the spectrum.

    Returns ambient element indices, and certifies the matching algebra
    identity: the projection join of the germ slices of the chosen
    idempotents is the unit of the germ groupoid algebra.  Subsets are
    tried by size; past MAX_COVER_COMBINATIONS of them it raises
    BoundExceeded.
    """
    model = source if isinstance(source, GermGroupoidModel) else build_germ_model(source)
    E = model.semilattice
    spec = model.spectrum
    if not spec.points:
        raise ValidationError("no tight characters, nothing to cover")
    full = (1 << len(spec.points)) - 1
    coverage = [spec.basic_sets[e] for e in E.carrier]
    candidates = [p for p in range(len(E)) if coverage[p]]
    chosen: tuple[int, ...] | None = None
    tried = 0
    for k in range(1, len(candidates) + 1):
        for combo in combinations(candidates, k):
            tried += 1
            if tried > MAX_COVER_COMBINATIONS:
                raise BoundExceeded(
                    f"unit cover search passed {MAX_COVER_COMBINATIONS} idempotent subsets"
                )
            got = 0
            for p in combo:
                got |= coverage[p]
            if got == full:
                chosen = combo
                break
        if chosen is not None:
            break
    if chosen is None:
        raise CheckFailed("the basic sets of all idempotents cover the spectrum")
    ambient = [E.carrier[p] for p in chosen]
    H = model.groupoid
    joined = sup_all(H, (rho(H, slice_of(model, e)) for e in ambient))
    if joined != AlgebraElement.unit(H):
        raise CheckFailed("unit-cover join must be the unit")
    return ambient
