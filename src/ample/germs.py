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
from itertools import groupby

import numpy as np

from .bitsets import bit_array
from .errors import CheckFailed
from .groupoids import FiniteGroupoid, validate_groupoid
from .semigroups import FiniteInverseSemigroup, Semilattice, idempotent_semilattice
from .spectrum import TightSpectrum, tight_spectrum


@dataclass(frozen=True)
class GermGroupoidModel:
    """The germ groupoid plus the bookkeeping tying arrows back to classes.

    ``point_minimum`` holds the least member of each spectrum point (as an
    ambient element), ``arrow_members`` every semigroup element in each
    germ class, and ``arrow_rep`` the least of them; arrow order is units
    first, one per point in point order, so the unit at point p is arrow p,
    then by (base point, representative).  ``germ_index`` sends (point,
    class key) to the arrow.
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
    germ_index: dict[tuple[int, int], int]

    __hash__ = None


def build_germ_model(S: FiniteInverseSemigroup) -> GermGroupoidModel:
    """Construct the groupoid of germs of the canonical spectral action."""
    E = idempotent_semilattice(S)
    spec = tight_spectrum(E)
    points = spec.points
    least = [E.minimum_of[bits] for bits in points]  # the position of each point's minimum
    minima = [E.carrier[p] for p in least]

    # Germ classes per point, keyed by s * m with m the point's minimum.
    t = S.table
    star = np.array(S.star)
    domain = E.positions[t[star, np.arange(len(S))]]  # position of s*s
    classes: list[tuple[int, int, int, tuple[int, ...]]] = []
    for pi, bits in enumerate(points):
        alive = np.flatnonzero(bit_array(bits, len(E))[domain])
        keys = t[alive, minima[pi]]
        order = np.argsort(keys, kind="stable")
        pairs = zip(keys[order].tolist(), alive[order].tolist())
        for key, group in groupby(pairs, key=lambda pair: pair[0]):
            members = tuple(s for _, s in group)
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

    germ_index = {
        (arrow_point[a], arrow_key[a]): a for a in range(len(ordered))
    }

    # the unit at point p is arrow p, so d and r are the base and target points;
    # intp even when there are no points, so the gathers below stay integer
    reps, point, point_min = (np.array(v, dtype=np.intp) for v in (arrow_rep, arrow_point, minima))
    # theta_s sends up(m) to {e : m <= s*es}, which is up(sms*) since m <= s*s
    image = t[t[reps, point_min[point]], star[reps]]
    if (t[image, t[reps, star[reps]]] != image).any():
        raise CheckFailed("image must live at ss*")
    # point_at[p] indexes the point up(p), or is -1; the last entry serves position -1
    point_at = np.full(len(E) + 1, -1, dtype=np.intp)
    point_at[least] = np.arange(len(points))
    target = point_at[E.positions[image]]
    if (target < 0).any():
        raise CheckFailed("image must be a tight point")
    target_point = tuple(target.tolist())

    left, right = np.nonzero(point[:, None] == target)  # every composable (a, b), row-major
    keys = t[t[reps[left], reps[right]], point_min[point[right]]]
    compose = np.full((len(ordered), len(ordered)), -1, dtype=np.int32)
    compose[left, right] = [
        germ_index[pt_key] for pt_key in zip(point[right].tolist(), keys.tolist())
    ]

    keys = t[star[reps], point_min[target]]
    inverse = [germ_index[pt_key] for pt_key in zip(target_point, keys.tolist())]

    groupoid = validate_groupoid(
        names, range(len(points)), arrow_point, target_point, compose, inverse
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
        germ_index=germ_index,
    )

