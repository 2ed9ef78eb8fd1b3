"""Filters, characters, and the tight spectrum of a finite semilattice.

A filter and the {0,1}-valued character it induces are stored as one and
the same int bitmask over carrier positions: bit p set means the character
takes value 1 at carrier element p, equivalently that element belongs to
the filter.  Points of a spectrum are listed in ascending bitmask order,
which makes every result of this module canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bitsets import mask_of
from .errors import CheckFailed
from .semigroups import Semilattice


def enumerate_filters(E: Semilattice) -> tuple[int, ...]:
    """All filters of E as ascending bitmasks: the keys of ``E.minimum_of``."""
    return tuple(sorted(E.minimum_of))


def ultrafilters(E: Semilattice) -> tuple[int, ...]:
    """Filters not properly contained in any other filter.

    up(p) lies properly inside up(q) iff q < p, so up(p) is maximal iff
    nothing but p and zero lies below p.  One pass over ``E.meets`` counts
    the q with p q = q for every p.
    """
    below = np.count_nonzero(E.meets == np.arange(len(E)), axis=1)
    return tuple(sorted(E.up_masks[p] for p in np.flatnonzero(below == 2).tolist()))


def find_tightness_violation(
    E: Semilattice, bits: int
) -> tuple[int, int, int] | None:
    """First witness that the filter is not tight, or None when it is tight.

    Exel (*Inverse semigroups and combinatorial C*-algebras*, Bull. Braz.
    Math. Soc. 39 (2008), arXiv:math/0703182, sections 11-12) shows that a
    filter xi is tight iff no x in xi has down(x) - xi as a cover of
    down(x); the witness is (x, 0, down(x) - xi) at the first such x in
    ascending position order.  Instances with X empty need no pass of
    their own: if the killed part Z of E^Y covers E^Y for a killed Y, then
    for any x in xi each nonzero w <= x meets some y in Y or lies in E^Y
    and meets some z in Z, and w^y or w^z is a killed member of down(x)
    that w meets.

    The filter is up(p) with p = ``E.minimum_of[bits]``, and the rule
    reduces to whether p is an atom.  If it is, no x in xi violates: w = p
    lies under x, and a nonzero p^k is p itself, so every k that p meets
    lies in xi.  If a nonzero a < p exists, every x in xi violates: take a
    nonzero w <= x.  Outside xi, w is a killed member of down(x) that w
    meets; inside xi, w >= p > a, so w meets a, which is killed and lies
    under x.  So the first violation is at the lowest member.
    """
    p = E.minimum_of.get(bits)
    if p is None:
        raise CheckFailed("tightness is defined for characters only")
    if E.down_masks[p] & E.nonzero_mask == 1 << p:
        return None
    x = (bits & -bits).bit_length() - 1
    return (x, 0, E.down_masks[x] & ~bits)


@dataclass(frozen=True)
class TightSpectrum:
    """The tight characters of a finite semilattice, canonically ordered.

    ``filters`` holds all filters of the semilattice, the points among them.
    """

    semilattice: Semilattice
    filters: tuple[int, ...]
    points: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def point_index(self) -> dict[int, int]:
        return {bits: i for i, bits in enumerate(self.points)}

    @cached_property
    def basic_sets(self) -> dict[int, int]:
        """D_e for every ambient idempotent e: the mask of point indices alive at e."""
        return {
            e: mask_of(i for i, bits in enumerate(self.points) if bits >> p & 1)
            for p, e in enumerate(self.semilattice.carrier)
        }


def tight_spectrum(E: Semilattice) -> TightSpectrum:
    """All tight characters; certifies they coincide with the ultrafilters.

    A finite spectrum is discrete, so the closure of the ultra-characters
    is just the ultra-characters; a mismatch would falsify that and raises
    CheckFailed as a bug trap.
    """
    filters = enumerate_filters(E)
    tight = tuple(b for b in filters if find_tightness_violation(E, b) is None)
    ultra = ultrafilters(E)
    if set(tight) != set(ultra):
        raise CheckFailed(f"tight characters {tight!r} differ from ultrafilters {ultra!r}")
    return TightSpectrum(E, filters, tight)
