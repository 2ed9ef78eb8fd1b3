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
from typing import Iterable, Sequence

import numpy as np

from .bitsets import iter_bits, mask_of
from .errors import BoundExceeded, CheckFailed, ValidationError
from .semigroups import FiniteInverseSemigroup, integers, row_blocks, validate_inverse_semigroup

# Most candidates, prod(|source fiber| + 1), enumerate_bisections may scan.
MAX_BISECTION_CANDIDATES = 1 << 20


@dataclass(frozen=True, eq=False)
class FiniteGroupoid:
    """Arrows with units, source/range maps, partial composition, inversion.

    ``d`` and ``r`` send each arrow index to a unit arrow index; ``compose``
    is an (n, n) int32 array holding a*b on exactly the composable pairs
    (d(a) = r(b)) and -1 elsewhere.  Build through :func:`validate_groupoid`;
    the array is made read-only on construction.
    """

    arrows: tuple[str, ...]
    units: tuple[int, ...]
    d: tuple[int, ...]
    r: tuple[int, ...]
    compose: np.ndarray
    inverse: tuple[int, ...]

    __hash__ = None

    def __post_init__(self) -> None:
        self.compose.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        return (
            (self.arrows, self.units, self.d, self.r, self.inverse)
            == (other.arrows, other.units, other.d, other.r, other.inverse)
            and np.array_equal(self.compose, other.compose)
        )

    def __len__(self) -> int:
        return len(self.arrows)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.arrows)}

    @cached_property
    def units_mask(self) -> int:
        return mask_of(self.units)

    def is_unit(self, a: int) -> bool:
        return bool(self.units_mask >> a & 1)

    @cached_property
    def d_fibers(self) -> dict[int, tuple[int, ...]]:
        """Arrows grouped by source unit."""
        fibers: dict[int, list[int]] = {u: [] for u in self.units}
        for a in range(len(self.arrows)):
            fibers[self.d[a]].append(a)
        return {u: tuple(v) for u, v in fibers.items()}


def _fibers(keys: tuple[int, ...], at: tuple[int, ...]) -> np.ndarray:
    """Row b lists the arrows a with keys[a] = at[b], ascending, then repeats the first."""
    fibers: dict[int, list[int]] = {}
    for a, u in enumerate(keys):
        fibers.setdefault(u, []).append(a)
    width = max(map(len, fibers.values()), default=0)
    rows = np.array([f + f[:1] * (width - len(f)) for f in fibers.values()], dtype=np.intp)
    row_of = {u: k for k, u in enumerate(fibers)}
    return rows.reshape(len(fibers), width).take([row_of[u] for u in at], axis=0)


def validate_groupoid(
    arrows: Iterable[str],
    units: Iterable[int],
    d: Sequence[int],
    r: Sequence[int],
    compose: np.ndarray,
    inverse: Sequence[int],
) -> FiniteGroupoid:
    """Verify every groupoid axiom on every arrow and return the structure.

    ``compose`` is the (n, n) composition array with -1 off the declared
    pairs; a wrong shape, a non-integer or an entry outside [-1, n) is a
    ValueError.  Each check reports its first failure: declared pairs and
    their bookkeeping in row-major order, unit laws and inverses by arrow,
    and associativity in (b, a, c) order over the composable triples (a, b, c).
    """
    names = tuple(str(x) for x in arrows)
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("duplicate arrow names")
    units_t, d_t, r_t, inv_t = (integers(s, "arrow index") for s in (units, d, r, inverse))
    if len(d_t) != n or len(r_t) != n or len(inv_t) != n:
        raise ValueError("d, r and inverse must cover every arrow")
    for seq in (units_t, d_t, r_t, inv_t):
        for v in seq:
            if not 0 <= v < n:
                raise ValueError(f"arrow index {v} out of range")
    unit_mask = mask_of(units_t)
    if unit_mask.bit_count() != len(units_t):
        raise ValueError("duplicate units")
    comp = np.asarray(compose)
    if comp.shape != (n, n):
        raise ValueError(f"composition must be {n}x{n}")
    if comp.dtype.kind not in "iu":
        integers(comp.ravel().tolist(), "composition value")
    if comp.size and not -1 <= comp.min() <= comp.max() < n:
        raise ValueError(f"composition value {comp[(comp < -1) | (comp >= n)][0]} out of range")
    comp = comp.astype(np.int32, copy=False)

    for u in units_t:
        if d_t[u] != u or r_t[u] != u:
            raise ValidationError(f"unit {names[u]} must have d = r = itself")
    for a in range(n):
        if not (unit_mask >> d_t[a] & 1 and unit_mask >> r_t[a] & 1):
            raise ValidationError(f"arrow {names[a]} has non-unit source or range")

    d_a, r_a = np.array([d_t, r_t], dtype=np.intp)
    composable = d_a[:, None] == r_a
    declared = comp >= 0
    if np.count_nonzero(declared != composable):
        extra = declared & ~composable
        if extra.any():
            a, b = divmod(int(extra.argmax()), n)
            raise ValidationError(
                f"product {names[a]}*{names[b]} declared but d({names[a]}) != r({names[b]})"
            )
        a, b = divmod(int((composable & ~declared).argmax()), n)
        raise ValidationError(f"composable pair {names[a]}*{names[b]} has no declared product")
    # -1 entries read the last arrow here, but only declared pairs count
    broken = declared & ((d_a[comp] != d_a) | (r_a[comp] != r_a[:, None]))
    if np.count_nonzero(broken):
        a, b = divmod(int(broken.argmax()), n)
        c = comp.item(a, b)
        raise ValidationError(
            f"product {names[a]}*{names[b]} = {names[c]} breaks source/range bookkeeping"
        )

    for a in range(n):
        if comp.item(a, d_t[a]) != a or comp.item(r_t[a], a) != a:
            raise ValidationError(f"unit laws fail at arrow {names[a]}")

    # Each b runs over the a with d(a) = r(b) and the c with r(c) = d(b).  A
    # short fiber repeats its first arrow, which repeats triples met earlier
    # in the row, so the first failure is still the first in (b, a, c) order.
    lefts, rights = _fibers(d_t, r_t), _fibers(r_t, d_t)
    for rows in row_blocks(n, lefts.shape[1] * rights.shape[1]):
        a, c = lefts[rows, :, None], rights[rows, None, :]
        b = np.arange(rows.start, rows.stop)[:, None, None]
        differs = comp[comp[a, b], c] != comp[a, comp[b, c]]
        if np.count_nonzero(differs):
            i, j, k = np.unravel_index(differs.argmax(), differs.shape)
            x, y, z = names[a[i, j, 0]], names[b[i, 0, 0]], names[c[i, 0, k]]
            raise ValidationError(f"associativity fails at ({x}, {y}, {z})", witness=(x, y, z))

    for a in range(n):
        ia = inv_t[a]
        if inv_t[ia] != a or d_t[ia] != r_t[a] or r_t[ia] != d_t[a]:
            raise ValidationError(f"inverse bookkeeping fails at arrow {names[a]}")
        if comp.item(a, ia) != r_t[a] or comp.item(ia, a) != d_t[a]:
            raise ValidationError(
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
    return mask_of(G.inverse[a] for a in iter_bits(mask))


def slice_product(G: FiniteGroupoid, s: int, t: int) -> int:
    """Pointwise product {sigma.tau : composable}; certified to be a bisection."""
    products = G.compose[np.ix_(list(iter_bits(s)), list(iter_bits(t)))]
    out = mask_of(products[products >= 0].tolist())
    if not is_bisection(G, out):
        raise CheckFailed("product of bisections must be a bisection")
    return out


def source_mask(G: FiniteGroupoid, mask: int) -> int:
    """d(S) as a bitmask of unit arrows."""
    return mask_of(G.d[a] for a in iter_bits(mask))


def enumerate_bisections(G: FiniteGroupoid) -> tuple[int, ...]:
    """Every bisection, ascending.

    Walks source fibers one at a time, picking at most one arrow per fiber
    and pruning range collisions, so only injective prefixes are ever
    visited.  The a-priori candidate count prod(|fiber|+1) is held to
    MAX_BISECTION_CANDIDATES.
    """
    fibers = [G.d_fibers[u] for u in G.units]
    estimate = 1
    for f in fibers:
        estimate *= len(f) + 1
        if estimate > MAX_BISECTION_CANDIDATES:
            raise BoundExceeded(
                f"bisection enumeration would scan > {MAX_BISECTION_CANDIDATES} candidates"
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


class _SectionIndex:
    """Exact lookup of sections among the sorted keys of a family's sections.

    A section's digits are arrow + 1, or 0 where it has no arrow.  Units
    are read in runs short enough that a run's digits, as one mixed-radix
    number, stay below 2^31.  A run's key is the rank of the previous
    run's key followed by the run's digits, so keys stay below 2^63 for
    any number of units, and the rank of the last key names the section.
    """

    def __init__(self, sections: np.ndarray, arrows: int) -> None:
        self.radix = arrows + 1
        units = sections.shape[1]
        width = 1
        while width < units and self.radix ** (width + 1) < 1 << 31:
            width += 1
        self.runs = [range(k, min(k + width, units)) for k in range(0, units, width)]
        self.keys = []
        rank = np.zeros(len(sections), dtype=np.int64)
        for run in self.runs:
            code = self._code(rank, sections, run)
            self.keys.append(np.sort(code))
            rank = np.searchsorted(self.keys[-1], code)
        self.element = np.empty(len(sections), dtype=np.int32)
        self.element[rank] = np.arange(len(sections))

    def _code(self, rank: np.ndarray, sections: np.ndarray, run: range) -> np.ndarray:
        for k in run:
            rank = rank * self.radix + sections[:, k] + 1
        return rank

    def find(self, sections: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Element index of each row of ``sections``, and whether it is one."""
        rank = np.zeros(len(sections), dtype=np.int64)
        found = np.ones(len(sections), dtype=bool)
        for run, keys in zip(self.runs, self.keys):
            code = self._code(rank, sections, run)
            rank = np.minimum(np.searchsorted(keys, code), len(keys) - 1)
            found &= keys[rank] == code
        return self.element[rank], found


def bisection_semigroup(G: FiniteGroupoid, collection: Iterable[int]) -> BisectionSemigroup:
    """Multiplication table of a product/inverse-closed family of bisections.

    Each bisection is stored as its section: the array sending each unit
    to the arrow of the bisection with that source, or -1.  The product
    s.t has at unit u the composite of b = t(u) with s(r(b)), so a row of
    the table is one gather through the groupoid's composition array, and
    its entries are found by searching the family's sorted section keys.
    Raises ValidationError when the family is not closed, with the first
    witness pair in row-major order, or (message, None) when a member,
    the empty bisection or an inverse is at fault; the table then goes
    through the inverse-semigroup checker.
    """
    masks = tuple(sorted(set(collection)))
    if 0 not in masks:
        message = "the empty bisection must belong to the collection"
        raise ValidationError(message, witness=(message, None))
    for m in masks:
        if not is_bisection(G, m):
            message = f"{bisection_name(G, m)} is not a bisection"
            raise ValidationError(message, witness=(message, None))
    names = tuple(bisection_name(G, m) for m in masks)
    n, arrows, units = len(masks), len(G.arrows), len(G.units)
    unit_pos = {u: k for k, u in enumerate(G.units)}
    # Index -1 (no arrow) lands on a padding entry: column `units` of a
    # section array, row and column `arrows` of `compose`, and the last
    # entry of `range_pos`, which is the sentinel position `units`.
    padded = np.full((n, units + 1), -1, dtype=np.int32)
    for i, m in enumerate(masks):
        for a in iter_bits(m):
            padded[i, unit_pos[G.d[a]]] = a
    sections = padded[:, :units]
    index = _SectionIndex(sections, arrows)
    compose = np.pad(G.compose, (0, 1), constant_values=-1)
    range_pos = np.array([*(unit_pos[G.r[a]] for a in range(arrows)), units], dtype=np.int32)
    right = range_pos[sections]  # right[t, k]: unit position of r(t(unit k))

    table = np.empty((n, n), dtype=np.int32)
    for rows in row_blocks(n, n * units):
        product = compose[padded[rows][:, right], sections]  # [s, t, k] = (s.t)(unit k)
        ranges = np.sort(range_pos[product], axis=-1)
        if ((ranges[..., 1:] == ranges[..., :-1]) & (ranges[..., 1:] < units)).any():
            raise CheckFailed("product of bisections must be a bisection")
        found_at, found = index.find(product.reshape(len(product) * n, units))
        if not found.all():
            s, t = divmod(int(found.argmin()), n)
            left, right = names[rows.start + s], names[t]
            raise ValidationError(
                f"collection not closed at product {left} * {right}", witness=(left, right)
            )
        table[rows] = found_at.reshape(-1, n)

    inverse = np.full((n, units + 1), -1, dtype=np.int32)
    inverse[np.arange(n)[:, None], right] = np.array([*G.inverse, -1])[sections]
    star, found = index.find(inverse[:, :units])
    if not found.all():
        message = f"inverse of {names[int(found.argmin())]} missing"
        raise ValidationError(message, witness=(message, None))
    sg = validate_inverse_semigroup(names, table)
    # masks ascend, so the empty bisection is element 0
    if sg.zero != 0 or sg.star != tuple(star.tolist()):
        raise CheckFailed("zero and involution must be the empty bisection and arrow inverses")
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
    S = bs.semigroup
    n = len(S)
    order = list(range(n))  # order[new] = old
    random.Random(seed).shuffle(order)
    new_of_old = np.empty(n, dtype=np.int32)
    new_of_old[order] = np.arange(n)
    width = len(str(n - 1))
    names = tuple(f"x{str(i).zfill(width)}" for i in range(n))
    table = new_of_old[S.table[np.ix_(order, order)]]
    star = tuple(new_of_old[np.array(S.star)[order]].tolist())
    T = FiniteInverseSemigroup(names, table, int(new_of_old[S.zero]), star)
    audit = TableAudit(bs.groupoid, tuple(bs.bits[old] for old in order))
    return T, audit


# -- the action on units ------------------------------------------------------


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
