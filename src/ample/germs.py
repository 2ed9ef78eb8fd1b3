"""The canonical action on the tight spectrum and the groupoid of germs.

Two elements have the same germ at a character when some idempotent the
character keeps alive equalizes them on the right.  Over a finite
semilattice every point of the spectrum is a principal filter up(m), s is
alive there iff m <= s*s (one gather of the meet table), and the germ
class of s is determined by s * m.  Each class is the dense code
q * |S| + s * m for point q, sorted once; products and inverses are found
by one gather through the arrow of each code.  The composition and
inversion formulas are not taken on trust: the assembled groupoid is
pushed through the full groupoid-axiom checker before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CheckFailed
from .groupoids import FiniteGroupoid, validate_groupoid
from .semigroups import FiniteInverseSemigroup, Semilattice, idempotent_semilattice
from .spectrum import TightSpectrum, tight_spectrum


@dataclass(frozen=True)
class GermGroupoidModel:
    """The germ groupoid plus the bookkeeping tying arrows back to classes.

    ``arrow_point`` holds the base point of each arrow, ``arrow_members``
    every semigroup element in its germ class, and ``arrow_rep`` the least
    of them; arrow order is units first, one per point in point order, so
    the unit at point p is arrow p, then by (base point, representative).
    """

    semigroup: FiniteInverseSemigroup
    semilattice: Semilattice
    spectrum: TightSpectrum
    groupoid: FiniteGroupoid
    arrow_point: tuple[int, ...]
    arrow_rep: tuple[int, ...]
    arrow_members: tuple[tuple[int, ...], ...]

    __hash__ = None


def build_germ_model(S: FiniteInverseSemigroup) -> GermGroupoidModel:
    """Construct the groupoid of germs of the canonical spectral action."""
    E = idempotent_semilattice(S)
    spec = tight_spectrum(E)
    n = len(S)
    # the position of each point's minimum, intp even when there are no points
    least = np.array([E.minimum_of[bits] for bits in spec.points], dtype=np.intp)
    point_min = np.array(E.carrier, dtype=np.intp)[least]

    # the (point, s) pairs with s*s in the point, ordered by point, then s
    t = S.table
    star = np.array(S.star, dtype=np.intp)
    domain = E.positions[t[star, np.arange(n)]]  # position of s*s
    pair_point, pair_s = np.nonzero(E.meets[least][:, domain] == least[:, None])
    pair_code = pair_point * n + t[pair_s, point_min[pair_point]]
    codes, first = np.unique(pair_code, return_index=True)
    point, key, reps = codes // n, codes % n, pair_s[first]
    # units first by point, then the other classes by (point, least member)
    order = np.lexsort((reps, point, key != point_min[point]))
    point, key, reps = point[order], key[order], reps[order]
    arrow_of = np.full(len(least) * n, -1, dtype=np.int32)
    arrow_of[codes[order]] = np.arange(len(order))

    pair_arrow = arrow_of[pair_code]
    members = pair_s[np.argsort(pair_arrow, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(pair_arrow, minlength=len(order))).tolist()
    arrow_point, arrow_rep = tuple(point.tolist()), tuple(reps.tolist())
    names = [f"{S.elements[rep]}@q{pt}" for rep, pt in zip(arrow_rep, arrow_point)]

    # theta_s sends up(m) to {e : m <= s*es}, which is up(sms*) since m <= s*s; key is sm
    image = t[key, star[reps]]
    if (t[image, t[reps, star[reps]]] != image).any():
        raise CheckFailed("image must live at ss*")
    # point_at[p] indexes the point up(p), or is -1; the last entry serves position -1
    point_at = np.full(len(E) + 1, -1, dtype=np.intp)
    point_at[least] = np.arange(len(least))
    target = point_at[E.positions[image]]
    if (target < 0).any():
        raise CheckFailed("image must be a tight point")

    # the unit at point p is arrow p, so d and r are the base and target points
    left, right = np.nonzero(point[:, None] == target)  # every composable (a, b), row-major
    product = t[t[reps[left], reps[right]], point_min[point[right]]]
    found = arrow_of[point[right] * n + product]
    inverse = arrow_of[target * n + t[star[reps], point_min[target]]]
    if (found < 0).any() or (inverse < 0).any():
        raise CheckFailed("every product and inverse of germs must be a germ class")
    compose = np.full((len(order), len(order)), -1, dtype=np.int32)
    compose[left, right] = found

    groupoid = validate_groupoid(names, range(len(least)), arrow_point, target, compose, inverse)
    return GermGroupoidModel(
        semigroup=S,
        semilattice=E,
        spectrum=spec,
        groupoid=groupoid,
        arrow_point=arrow_point,
        arrow_rep=arrow_rep,
        arrow_members=tuple(tuple(members[a:b]) for a, b in zip([0, *ends], ends)),
    )
