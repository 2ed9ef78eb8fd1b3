"""The canonical action on the tight spectrum and the groupoid of germs.

Two elements have the same germ at a character when some idempotent the
character keeps alive equalizes them on the right.  Over a finite
semilattice every point of the spectrum is a principal filter, so the
germ class of s at a point is determined by s * m, where m is the point's
least member; that product is the class key used below.  The composition
and inversion formulas are not taken on trust: the assembled groupoid is
pushed through the full groupoid-axiom checker before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OutsideDomain
from .groupoids import FiniteGroupoid, validate_groupoid
from .semigroups import FiniteInverseSemigroup, Semilattice, idempotent_semilattice
from .spectrum import TightSpectrum, filter_minimum, tight_spectrum


def _domain_idempotent(S: FiniteInverseSemigroup, s: int) -> int:
    return S.table[S.star[s]][s]


def theta_apply(E: Semilattice, s: int, bits: int) -> int:
    """Push the character through s: result(e) = value at s* e s.

    Defined only when the character is alive at s*s; the result is a
    character alive at ss*.
    """
    S = E.semigroup
    st = S.star[s]
    ss = S.table[st][s]
    if not bits >> E.position[ss] & 1:
        raise OutsideDomain(
            f"character vanishes at {S.elements[ss]}, the domain of {S.elements[s]}"
        )
    out = 0
    for p, e in enumerate(E.carrier):
        conj = S.table[S.table[st][e]][s]
        if bits >> E.position[conj] & 1:
            out |= 1 << p
    assert out >> E.position[S.table[s][st]] & 1, "image must live at ss*"
    return out


def theta_point(spec: TightSpectrum, s: int, point: int) -> int:
    """Index of the image point of the action of s."""
    bits = theta_apply(spec.semilattice, s, spec.points[point])
    return spec.point_index[bits]


def same_germ(E: Semilattice, s1: int, s2: int, bits: int) -> bool:
    """Some idempotent e with character value 1 has s1 e = s2 e."""
    S = E.semigroup
    for s in (s1, s2):
        ss = _domain_idempotent(S, s)
        if not bits >> E.position[ss] & 1:
            raise OutsideDomain(
                f"character vanishes at the domain of {S.elements[s]}"
            )
    for p, e in enumerate(E.carrier):
        if bits >> p & 1 and S.table[s1][e] == S.table[s2][e]:
            return True
    return False


@dataclass(frozen=True)
class GermGroupoidModel:
    """The germ groupoid plus the bookkeeping tying arrows back to classes.

    ``point_minimum`` holds the least member of each spectrum point (as an
    ambient element), ``arrow_members`` every semigroup element in each
    germ class, and ``arrow_rep`` the least of them; arrow order is units
    first, then by (base point, representative).  ``germ_index`` sends
    (point, class key) to the arrow.
    """

    semigroup: FiniteInverseSemigroup
    semilattice: Semilattice
    spectrum: TightSpectrum
    groupoid: FiniteGroupoid
    point_minimum: tuple[int, ...]
    arrow_point: tuple[int, ...]
    arrow_rep: tuple[int, ...]
    arrow_key: tuple[int, ...]
    arrow_members: tuple[tuple[int, ...], ...]
    unit_arrow: tuple[int, ...]
    germ_index: dict[tuple[int, int], int]

    __hash__ = None

    def germ(self, s: int, point: int) -> int:
        """Arrow index of the germ of s at the given spectrum point."""
        S = self.semigroup
        bits = self.spectrum.points[point]
        ss = _domain_idempotent(S, s)
        if not bits >> self.semilattice.position[ss] & 1:
            raise OutsideDomain(
                f"point {point} is outside the domain of {S.elements[s]}"
            )
        key = S.table[s][self.point_minimum[point]]
        return self.germ_index[(point, key)]

    def slice_of(self, s: int) -> int:
        """X_s: the germs of s at every point alive at s*s, as an arrow mask."""
        S = self.semigroup
        ss_pos = self.semilattice.position[_domain_idempotent(S, s)]
        mask = 0
        for point, bits in enumerate(self.spectrum.points):
            if bits >> ss_pos & 1:
                mask |= 1 << self.germ(s, point)
        return mask


def build_germ_model(S: FiniteInverseSemigroup) -> GermGroupoidModel:
    """Construct the groupoid of germs of the canonical spectral action."""
    E = idempotent_semilattice(S)
    spec = tight_spectrum(E)
    points = spec.points
    minima = [E.carrier[filter_minimum(E, bits)] for bits in points]

    # Germ classes per point, keyed by s * m with m the point's minimum.
    table = S.table
    classes: list[tuple[int, int, int, tuple[int, ...]]] = []
    for pi, bits in enumerate(points):
        m = minima[pi]
        groups: dict[int, list[int]] = {}
        for s in range(len(S)):
            ss = _domain_idempotent(S, s)
            if bits >> E.position[ss] & 1:
                groups.setdefault(table[s][m], []).append(s)
        for key in sorted(groups):
            members = tuple(groups[key])
            classes.append((pi, members[0], key, members))

    unit_classes = [c for c in classes if c[2] == minima[c[0]]]
    other_classes = [c for c in classes if c[2] != minima[c[0]]]
    unit_classes.sort(key=lambda c: c[0])
    other_classes.sort(key=lambda c: (c[0], c[1]))
    ordered = unit_classes + other_classes

    arrow_point = tuple(c[0] for c in ordered)
    arrow_rep = tuple(c[1] for c in ordered)
    arrow_key = tuple(c[2] for c in ordered)
    arrow_members = tuple(c[3] for c in ordered)
    names = tuple(
        f"{S.elements[rep]}@q{pt}" for rep, pt in zip(arrow_rep, arrow_point)
    )
    unit_arrow = tuple(range(len(unit_classes)))  # one per point, point order

    germ_index = {
        (arrow_point[a], arrow_key[a]): a for a in range(len(ordered))
    }

    target_point = tuple(
        theta_point(spec, arrow_rep[a], arrow_point[a]) for a in range(len(ordered))
    )
    d_map = tuple(unit_arrow[arrow_point[a]] for a in range(len(ordered)))
    r_map = tuple(unit_arrow[target_point[a]] for a in range(len(ordered)))

    compose = {}
    for a in range(len(ordered)):
        for b in range(len(ordered)):
            if d_map[a] != r_map[b]:
                continue
            pb = arrow_point[b]
            prod = table[table[arrow_rep[a]][arrow_rep[b]]][minima[pb]]
            compose[(a, b)] = germ_index[(pb, prod)]

    inverse = []
    for a in range(len(ordered)):
        pt = target_point[a]
        key = table[S.star[arrow_rep[a]]][minima[pt]]
        inverse.append(germ_index[(pt, key)])

    groupoid = validate_groupoid(
        names, unit_arrow, d_map, r_map, compose, inverse
    )
    return GermGroupoidModel(
        semigroup=S,
        semilattice=E,
        spectrum=spec,
        groupoid=groupoid,
        point_minimum=tuple(minima),
        arrow_point=arrow_point,
        arrow_rep=arrow_rep,
        arrow_key=arrow_key,
        arrow_members=arrow_members,
        unit_arrow=unit_arrow,
        germ_index=germ_index,
    )

