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

from .bitsets import iter_bits, mask_of
from .errors import CheckFailed
from .semigroups import Semilattice


def filter_minimum(E: Semilattice, bits: int) -> int:
    """Position of the least member (the meet of all members)."""
    members = iter_bits(bits)
    acc = next(members, None)
    if acc is None:
        raise ValueError("empty mask has no minimum")
    meets = E.meets
    for p in members:
        acc = meets[acc, p]
    return int(acc)


def is_filter(E: Semilattice, bits: int) -> bool:
    """Nonempty, zero-free, and equal to the principal filter on its minimum.

    In a finite semilattice a filter holds the meet of its members and
    everything above it, and nothing else, so the filter laws reduce to
    this one comparison.
    """
    if bits == 0 or bits >> E.zero_pos & 1:
        return False
    return bits == E.up_masks[filter_minimum(E, bits)]


def enumerate_filters(E: Semilattice) -> tuple[int, ...]:
    """All filters of E as ascending bitmasks.

    Generates the principal filter up from each nonzero idempotent and
    re-checks the filter laws on each one; in a finite semilattice every
    filter is principal on its minimum, so nothing is missed.
    """
    out = set()
    for p in range(len(E)):
        if p == E.zero_pos:
            continue
        bits = E.up_masks[p]
        if not is_filter(E, bits):
            raise CheckFailed("a principal filter must be a filter")
        out.add(bits)
    return tuple(sorted(out))


def ultrafilters(
    E: Semilattice, filters: tuple[int, ...] | None = None
) -> tuple[int, ...]:
    """Filters not properly contained in any other filter.

    ``filters`` is the already-enumerated filter tuple of E, when the
    caller has one; otherwise the filters are enumerated here.
    """
    if filters is None:
        filters = enumerate_filters(E)
    return tuple(
        f
        for f in filters
        if not any(g != f and g & f == f for g in filters)
    )


def find_tightness_violation(
    E: Semilattice, bits: int
) -> tuple[int, int, int] | None:
    """First witness that the filter is not tight, or None when it is tight.

    Exel (*Inverse semigroups and combinatorial C*-algebras*, Bull. Braz.
    Math. Soc. 39 (2008), arXiv:math/0703182, sections 11-12) shows that a
    filter xi is tight iff no x in xi has down(x) - xi as a cover of
    down(x).  So the scan walks the members x of xi in ascending position
    order and returns (x, 0, down(x) - xi) at the first x whose killed part
    covers it.  Instances with X empty need no pass of their own: if the
    killed part Z of E^Y covers E^Y for a killed Y, then for any x in xi
    each nonzero w <= x meets some y in Y or lies in E^Y and meets some z
    in Z, and w^y or w^z is a killed member of down(x) that w meets.
    """
    if not is_filter(E, bits):
        raise CheckFailed("tightness is defined for characters only")
    down = E.down_masks
    isect = E.intersect_masks
    nonzero = E.nonzero_mask
    for x in iter_bits(bits):
        killed = down[x] & ~bits
        live = down[x] & nonzero
        while live:
            low = live & -live
            if not isect[low.bit_length() - 1] & killed:
                break
            live ^= low
        else:
            return (x, 0, killed)
    return None


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
    ultra = ultrafilters(E, filters)
    if set(tight) != set(ultra):
        raise CheckFailed(f"tight characters {tight!r} differ from ultrafilters {ultra!r}")
    return TightSpectrum(E, filters, tight)
