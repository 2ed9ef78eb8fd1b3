"""Finite discrete groupoids and their bisections.

A bisection is an int bitmask over arrow indices on which both the source
map d and the range map r are injective.  Every subset of a finite
discrete groupoid is compact open, so these are exactly the compact open
slices and the collection of all of them is the ample semigroup in its
table-level form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .bitsets import iter_bits
from .errors import (
    BadComposabilityDomain,
    BadInverse,
    BadUnits,
    BoundExceeded,
    NotAssociative,
    NotClosed,
    OutsideDomain,
)
from .semigroups import FiniteInverseSemigroup, validate_inverse_semigroup


@dataclass(frozen=True)
class FiniteGroupoid:
    """Arrows with units, source/range maps, partial composition, inversion.

    ``d`` and ``r`` send each arrow index to a unit arrow index; ``compose``
    is defined on exactly the composable pairs (d of the left factor equals
    r of the right factor).  Build through :func:`validate_groupoid`.
    """

    arrows: tuple[str, ...]
    units: tuple[int, ...]
    d: tuple[int, ...]
    r: tuple[int, ...]
    compose: dict[tuple[int, int], int]
    inverse: tuple[int, ...]

    __hash__ = None

    def __len__(self) -> int:
        return len(self.arrows)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.arrows)}

    @cached_property
    def unit_set(self) -> frozenset[int]:
        return frozenset(self.units)

    @cached_property
    def units_mask(self) -> int:
        mask = 0
        for u in self.units:
            mask |= 1 << u
        return mask

    def is_unit(self, a: int) -> bool:
        return a in self.unit_set

    @cached_property
    def d_fibers(self) -> dict[int, tuple[int, ...]]:
        """Arrows grouped by source unit."""
        fibers: dict[int, list[int]] = {u: [] for u in self.units}
        for a in range(len(self.arrows)):
            fibers[self.d[a]].append(a)
        return {u: tuple(v) for u, v in fibers.items()}


def validate_groupoid(
    arrows: Iterable[str],
    units: Iterable[int],
    d: Sequence[int],
    r: Sequence[int],
    compose: Mapping[tuple[int, int], int],
    inverse: Sequence[int],
) -> FiniteGroupoid:
    """Verify every groupoid axiom on every arrow and return the structure."""
    names = tuple(str(x) for x in arrows)
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("duplicate arrow names")
    units_t = tuple(int(u) for u in units)
    d_t = tuple(int(x) for x in d)
    r_t = tuple(int(x) for x in r)
    inv_t = tuple(int(x) for x in inverse)
    if len(d_t) != n or len(r_t) != n or len(inv_t) != n:
        raise ValueError("d, r and inverse must cover every arrow")
    for seq in (units_t, d_t, r_t, inv_t):
        for v in seq:
            if not 0 <= v < n:
                raise ValueError(f"arrow index {v} out of range")
    unit_set = frozenset(units_t)
    if len(unit_set) != len(units_t):
        raise ValueError("duplicate units")

    for u in units_t:
        if d_t[u] != u or r_t[u] != u:
            raise BadUnits(f"unit {names[u]} must have d = r = itself")
    for a in range(n):
        if d_t[a] not in unit_set or r_t[a] not in unit_set:
            raise BadUnits(f"arrow {names[a]} has non-unit source or range")

    comp = {(int(a), int(b)): int(c) for (a, b), c in compose.items()}
    expected = {(a, b) for a in range(n) for b in range(n) if d_t[a] == r_t[b]}
    declared = set(comp)
    extra = declared - expected
    if extra:
        a, b = min(extra)
        raise BadComposabilityDomain(
            f"product {names[a]}*{names[b]} declared but d({names[a]}) != r({names[b]})"
        )
    missing = expected - declared
    if missing:
        a, b = min(missing)
        raise BadComposabilityDomain(
            f"composable pair {names[a]}*{names[b]} has no declared product"
        )
    for (a, b), c in comp.items():
        if not 0 <= c < n:
            raise ValueError(f"composition value {c} out of range")
        if d_t[c] != d_t[b] or r_t[c] != r_t[a]:
            raise BadComposabilityDomain(
                f"product {names[a]}*{names[b]} = {names[c]} breaks source/range bookkeeping"
            )

    for a in range(n):
        if comp[(a, d_t[a])] != a or comp[(r_t[a], a)] != a:
            raise BadUnits(f"unit laws fail at arrow {names[a]}")

    for b in range(n):
        lefts = [a for a in range(n) if d_t[a] == r_t[b]]
        rights = [c for c in range(n) if d_t[b] == r_t[c]]
        for a in lefts:
            ab = comp[(a, b)]
            for c in rights:
                if comp[(ab, c)] != comp[(a, comp[(b, c)])]:
                    raise NotAssociative(names[a], names[b], names[c])

    for a in range(n):
        ia = inv_t[a]
        if inv_t[ia] != a or d_t[ia] != r_t[a] or r_t[ia] != d_t[a]:
            raise BadInverse(f"inverse bookkeeping fails at arrow {names[a]}")
        if comp[(a, ia)] != r_t[a] or comp[(ia, a)] != d_t[a]:
            raise BadInverse(
                f"{names[a]} and {names[ia]} do not compose to the expected units"
            )

    return FiniteGroupoid(names, units_t, d_t, r_t, comp, inv_t)


# -- bisections ---------------------------------------------------------------


def is_bisection(G: FiniteGroupoid, mask: int) -> bool:
    """Both d and r are injective on the selected arrows."""
    seen_d = 0
    seen_r = 0
    for a in iter_bits(mask):
        db = 1 << G.d[a]
        rb = 1 << G.r[a]
        if seen_d & db or seen_r & rb:
            return False
        seen_d |= db
        seen_r |= rb
    return True


def slice_inverse(G: FiniteGroupoid, mask: int) -> int:
    out = 0
    for a in iter_bits(mask):
        out |= 1 << G.inverse[a]
    return out


def slice_product(G: FiniteGroupoid, s: int, t: int) -> int:
    """Pointwise product {sigma.tau : composable}; certified to be a bisection."""
    out = 0
    compose = G.compose
    for a in iter_bits(s):
        for b in iter_bits(t):
            c = compose.get((a, b))
            if c is not None:
                out |= 1 << c
    assert is_bisection(G, out), "product of bisections must be a bisection"
    return out


def source_mask(G: FiniteGroupoid, mask: int) -> int:
    """d(S) as a bitmask of unit arrows."""
    out = 0
    for a in iter_bits(mask):
        out |= 1 << G.d[a]
    return out


def range_mask(G: FiniteGroupoid, mask: int) -> int:
    out = 0
    for a in iter_bits(mask):
        out |= 1 << G.r[a]
    return out


def enumerate_bisections(G: FiniteGroupoid, max_candidates: int = 1 << 20) -> tuple[int, ...]:
    """Every bisection, ascending.

    Walks source fibers one at a time, picking at most one arrow per fiber
    and pruning range collisions, so only injective prefixes are ever
    visited.  The a-priori candidate count prod(|fiber|+1) guards the call.
    """
    fibers = [G.d_fibers[u] for u in G.units]
    estimate = 1
    for f in fibers:
        estimate *= len(f) + 1
        if estimate > max_candidates:
            raise BoundExceeded(
                f"bisection enumeration would scan > {max_candidates} candidates"
            )
    out: list[int] = []

    def rec(i: int, mask: int, rmask: int) -> None:
        if i == len(fibers):
            out.append(mask)
            return
        rec(i + 1, mask, rmask)
        for a in fibers[i]:
            rb = 1 << G.r[a]
            if not rmask & rb:
                rec(i + 1, mask | 1 << a, rmask | rb)

    rec(0, 0, 0)
    return tuple(sorted(out))


def singleton_semigroup(G: FiniteGroupoid) -> tuple[int, ...]:
    """The empty bisection plus one singleton per arrow: always a basis."""
    return tuple(sorted([0, *(1 << a for a in range(len(G.arrows)))]))


def is_basis(G: FiniteGroupoid, collection: Iterable[int]) -> bool:
    """Every arrow subset is a union of members iff all singletons are present."""
    have = set(collection)
    return all(1 << a in have for a in range(len(G.arrows)))


def bisection_name(G: FiniteGroupoid, mask: int) -> str:
    if mask == 0:
        return "0"
    return "+".join(G.arrows[a] for a in iter_bits(mask))


@dataclass(frozen=True)
class BisectionSemigroup:
    """A closed family of bisections as a concrete inverse semigroup.

    Element names still carry the geometry (they are joined arrow names);
    use :func:`abstract_table` to erase it.
    """

    groupoid: FiniteGroupoid
    semigroup: FiniteInverseSemigroup
    bits: tuple[int, ...]

    @cached_property
    def element_of(self) -> dict[int, int]:
        return {mask: i for i, mask in enumerate(self.bits)}


def bisection_semigroup(G: FiniteGroupoid, collection: Iterable[int]) -> BisectionSemigroup:
    """Multiplication table of a product/inverse-closed family of bisections.

    Raises NotClosed with a witness pair when the family is not closed; the
    induced table then goes through the inverse-semigroup axiom checker.
    """
    masks = tuple(sorted(set(collection)))
    if 0 not in masks:
        raise NotClosed("the empty bisection must belong to the collection")
    for m in masks:
        if not is_bisection(G, m):
            raise NotClosed(f"{bisection_name(G, m)} is not a bisection")
    pos = {m: i for i, m in enumerate(masks)}
    rows = []
    for s in masks:
        row = []
        for t in masks:
            p = slice_product(G, s, t)
            if p not in pos:
                raise NotClosed(bisection_name(G, s), bisection_name(G, t))
            row.append(pos[p])
        rows.append(tuple(row))
    star = []
    for s in masks:
        inv = slice_inverse(G, s)
        if inv not in pos:
            raise NotClosed(f"inverse of {bisection_name(G, s)} missing")
        star.append(pos[inv])
    names = tuple(bisection_name(G, m) for m in masks)
    sg = validate_inverse_semigroup(names, rows)
    assert sg.zero == pos[0] and sg.star == tuple(star)
    return BisectionSemigroup(G, sg, masks)


@dataclass(frozen=True)
class TableAudit:
    """The element -> bisection key retained when a table is abstracted.

    Reconstruction code must never consult this; it exists solely so the
    final isomorphism audit can compare the rebuilt groupoid with the
    original geometry.
    """

    groupoid: FiniteGroupoid
    bisections: tuple[int, ...]


def abstract_table(
    bs: BisectionSemigroup, seed: int = 0
) -> tuple[FiniteInverseSemigroup, TableAudit]:
    """Erase all geometry: opaque names, seed-shuffled order, bare table.

    A relabeling of the already validated table of ``bs``.  The returned
    semigroup is the only thing reconstruction may consume; the audit
    holds the hidden bijection back to concrete bisections.
    """
    n = len(bs.semigroup)
    order = list(range(n))  # order[new] = old
    random.Random(seed).shuffle(order)
    new_of_old = [0] * n
    for new, old in enumerate(order):
        new_of_old[old] = new
    width = len(str(n - 1))
    names = tuple(f"x{str(i).zfill(width)}" for i in range(n))
    old_table = bs.semigroup.table
    table = tuple(
        tuple(new_of_old[old_table[order[a]][order[b]]] for b in range(n))
        for a in range(n)
    )
    star = tuple(new_of_old[bs.semigroup.star[order[a]]] for a in range(n))
    zero = new_of_old[bs.semigroup.zero]
    T = FiniteInverseSemigroup(names, table, zero, star)
    audit = TableAudit(bs.groupoid, tuple(bs.bits[order[a]] for a in range(n)))
    return T, audit


# -- the action on units ------------------------------------------------------


def lambda_action(G: FiniteGroupoid, mask: int, x: int) -> int:
    """r(gamma) for the unique gamma in the bisection with d(gamma) = x."""
    for a in iter_bits(mask):
        if G.d[a] == x:
            return G.r[a]
    raise OutsideDomain(
        f"unit {G.arrows[x]} is not in the source set of {bisection_name(G, mask)}"
    )


def check_conjugation_lemma(G: FiniteGroupoid, s_mask: int, u_mask: int) -> bool:
    """d(gamma) in S*US iff r(gamma) in U, for every gamma in S."""
    assert u_mask & ~G.units_mask == 0, "U must consist of units"
    conj = slice_product(G, slice_product(G, slice_inverse(G, s_mask), u_mask), s_mask)
    for a in iter_bits(s_mask):
        if bool(conj >> G.d[a] & 1) != bool(u_mask >> G.r[a] & 1):
            return False
    return True
