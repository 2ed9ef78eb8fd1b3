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
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

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


def slice_product(G: FiniteGroupoid, s: int, t: int) -> int:
    """Pointwise product {sigma.tau : composable}; certified to be a bisection."""
    products = G.compose[np.ix_(list(iter_bits(s)), list(iter_bits(t)))]
    out = mask_of(products[products >= 0].tolist())
    if not is_bisection(G, out):
        raise CheckFailed("product of bisections must be a bisection")
    return out


def enumerate_bisections(G: FiniteGroupoid) -> tuple[int, ...]:
    """Every bisection, ascending.

    Extends the prefixes (mask, mask of ranges) one source fiber at a time,
    each by no arrow or by one arrow whose range is free, so only
    injective prefixes are ever made; each extends to a bisection, so no
    layer outgrows the result.  The a-priori candidate count
    prod(|fiber|+1) is held to MAX_BISECTION_CANDIDATES.
    """
    fibers = [G.d_fibers[u] for u in G.units]
    estimate = 1
    for f in fibers:
        estimate *= len(f) + 1
        if estimate > MAX_BISECTION_CANDIDATES:
            raise BoundExceeded(
                f"bisection enumeration would scan > {MAX_BISECTION_CANDIDATES} candidates"
            )
    prefixes = [(0, 0)]
    for fiber in fibers:
        picks = [(1 << a, 1 << G.r[a]) for a in fiber]
        prefixes += [(m | a, rm | r) for m, rm in prefixes for a, r in picks if not rm & r]
    return tuple(sorted(m for m, _ in prefixes))


def singleton_semigroup(G: FiniteGroupoid) -> tuple[int, ...]:
    """The empty bisection plus one singleton per arrow: always a basis."""
    return tuple(sorted([0, *(1 << a for a in range(len(G.arrows)))]))


def bisection_name(G: FiniteGroupoid, mask: int) -> str:
    """The bisection's arrow names joined by '+', ascending; "0" for the empty one."""
    if mask == 0:
        return "0"
    arrows, parts = G.arrows, []
    while mask:
        low = mask & -mask
        parts.append(arrows[low.bit_length() - 1])
        mask ^= low
    return "+".join(parts)


def _bisection_names(G: FiniteGroupoid, masks: Sequence[int]) -> list[str]:
    """bisection_name of each mask, from the name of the mask without its lowest arrow.

    Ascending masks find that name among the earlier ones when the family
    holds it; one it lacks is named whole and kept.
    """
    arrows, known, names = G.arrows, {0: "0"}, []
    for m in masks:
        rest = m & (m - 1)
        if rest not in known:
            known[rest] = bisection_name(G, rest)
        if m:
            low = arrows[(m ^ rest).bit_length() - 1]
            known[m] = f"{low}+{known[rest]}" if rest else low
        names.append(known[m])
    return names


@dataclass(frozen=True)
class BisectionSemigroup:
    """A closed family of bisections as a concrete inverse semigroup.

    Element names still carry the geometry (they are joined arrow names);
    use :func:`abstract_table` to erase it.
    """

    groupoid: FiniteGroupoid
    semigroup: FiniteInverseSemigroup
    bits: tuple[int, ...]


class _SectionIndex:
    """Exact lookup of sections by dense per-unit digit codes, one run of units at a time.

    A section's digit at unit k is 1 + the place of its arrow in the source
    fiber of unit k, or 0 where it has none.  A run of units, grown while
    (live + 1) * span <= 2^16 and at least one unit long, has as code the
    previous run's rank followed by its digits: rank * span + the sum of
    each digit times its place value in the run.  A dense slot array sends
    a code to its rank among the members' codes, or to a dead rank; the last
    run's slots send it to the member itself, or to -1.  Iterating builds
    each run's slots from the last, so one run's slots are alive at a time.
    """

    def __init__(self, digits: np.ndarray, radix: list[int]) -> None:
        self.digits, self.radix = digits, radix  # digits[k, t]: member t's digit at unit k
        self.runs: list[tuple[range, int]] = []  # each run's units and its number of slots

    def __iter__(self) -> Iterator[tuple[range, np.ndarray, int, np.ndarray]]:
        """Each run's units, the place value of a digit at each, its span and its slots."""
        radix = self.radix
        rank, live, lo = np.zeros(self.digits.shape[1], dtype=np.int32), 1, 0
        while lo < len(radix):
            hi, span = lo + 1, radix[lo]
            while hi < len(radix) and (live + 1) * span * radix[hi] <= 1 << 16:
                span, hi = span * radix[hi], hi + 1
            place = np.cumprod([1, *radix[hi - 1 : lo : -1]])[::-1]
            code = rank * span + place @ self.digits[lo:hi]
            slots = _run_slots(code, (live + 1) * span)
            rank, run, lo = slots[code], range(lo, hi), hi
            live = int(rank.max()) + 1  # the members' ranks are 0, ..., live - 1
            if lo == len(radix):
                element = np.full(live + 1, -1, dtype=np.int32)
                element[rank] = np.arange(len(rank), dtype=np.int32)
                slots = element[slots]
            self.runs.append((run, len(slots)))
            yield run, place, span, slots


def _run_slots(code: np.ndarray, size: int) -> np.ndarray:
    """For each code below size, its rank among those in ``code``, or their count if absent."""
    seen = np.zeros(size, dtype=bool)
    seen[code] = True
    return np.where(seen, np.cumsum(seen, dtype=np.int32) - 1, np.int32(np.count_nonzero(seen)))


def _product_codes(
    table: np.ndarray, left: np.ndarray, onehot: np.ndarray, span: int, slots: np.ndarray
) -> None:
    """Carry every product's rank through one run, a block of rows at a time.

    table[s, t] becomes slots[table[s, t] * span + left[:, s] @ onehot[:, t]].
    The product's terms are integers, and it is below span, so a float64 sum
    in any order is exact; every code is below len(slots).
    """
    for rows in row_blocks(len(table), 2 * len(table)):
        code = (left[:, rows].T @ onehot).astype(np.int32)
        code += table[rows] * np.int32(span)
        slots.take(code, out=table[rows], mode="wrap")  # in range: "wrap" only skips a copy


def bisection_semigroup(G: FiniteGroupoid, collection: Iterable[int]) -> BisectionSemigroup:
    """Multiplication table of a product/inverse-closed family of bisections.

    Each bisection is stored as its section: the array sending each unit
    to the arrow of the bisection with that source, or to no arrow.  The
    product s.t has at unit k the composite of b = t(k) with s(r(b)), and
    d(s.t) = d(t), so its digit at k depends on t only through b.  Over a
    run of units of :class:`_SectionIndex`, the products' digit codes are
    then one matrix product: left[c, s] is the digit of s(r(b_c)).b_c at
    d(b_c) times its place value, for each arrow b_c with source in the
    run, and onehot[c, t] is 1 where t(d(b_c)) = b_c.  The index finds each
    product from its codes, run after run, with the ranks kept in the
    table.  A product found in the family's index is a member, hence a
    bisection, so only the row of the first product not found is checked
    for non-bisections.
    Raises ValidationError when the family is not closed, with the first
    witness pair in row-major order, or (message, None) when a member,
    the empty bisection or an inverse is at fault, or when two members
    share a name (the first such pair in ascending mask order); the table
    then goes through the inverse-semigroup checker, which verifies the
    arrow inverses as the involution instead of searching for one.
    """
    masks = tuple(sorted(set(integers(collection, "mask"))))
    if masks and (masks[0] < 0 or masks[-1] >> len(G.arrows)):  # sorted: the ends decide
        bad = next(m for m in masks if m < 0 or m >> len(G.arrows))
        raise ValueError(f"mask {bad} is not a set of the {len(G.arrows)} arrows")
    if 0 not in masks:
        message = "the empty bisection must belong to the collection"
        raise ValidationError(message, witness=(message, None))
    n, arrows, units = len(masks), len(G.arrows), len(G.units)
    unit_pos = {u: k for k, u in enumerate(G.units)}
    # Index `arrows` (no arrow) lands on padding: row and column `arrows` of
    # `compose`, row `units` of `padded`, and the last entry of `digit_of`,
    # `source_pos` and `range_pos`, which is the sentinel position `units`.
    source_pos, range_pos = (
        np.array([*(unit_pos[u] for u in ends), units], dtype=np.int32) for ends in (G.d, G.r)
    )
    names = tuple(_bisection_names(G, masks))  # made before the temporaries it outlives
    if len(set(names)) < n:  # an arrow name may contain '+' or be '0'
        first: dict[str, int] = {}
        for m, name in zip(masks, names):
            other = first.setdefault(name, m)
            if other != m:
                lhs, rhs = ([G.arrows[a] for a in iter_bits(x)] for x in (other, m))
                message = f"bisections {lhs} and {rhs} share the name {name}"
                raise ValidationError(message, witness=(message, None))
    width = (arrows + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    member, arrow = np.nonzero(np.unpackbits(packed.reshape(n, width), 1, arrows, "little"))
    keys = (member * units + pos[arrow] for pos in (source_pos, range_pos))
    clash = np.concatenate([np.flatnonzero(np.bincount(key) > 1) for key in keys])
    if clash.size:
        message = f"{bisection_name(G, masks[clash.min() // units])} is not a bisection"
        raise ValidationError(message, witness=(message, None))
    fibers = [G.d_fibers[u] for u in G.units]
    digit_of = np.zeros(arrows + 1, dtype=np.int32)
    for fiber in fibers:
        digit_of[list(fiber)] = range(1, len(fiber) + 1)
    padded = np.full((units + 1, n), arrows, dtype=np.int32)
    padded[source_pos[arrow], member] = arrow
    sections = padded[:units]  # sections[k, t]: the arrow of t with source unit k
    digits = digit_of[sections]
    compose = np.full((arrows + 1, arrows + 1), -1, dtype=np.int32)
    compose[:arrows, :arrows] = G.compose
    # validate_groupoid certifies d(a.b) = d(b), which makes product digits exact
    if ((source_pos[compose] != source_pos) & (compose >= 0)).any():
        raise CheckFailed("a product must have the source of its right factor")
    right = range_pos[sections]  # right[k, t]: unit position of r(t(unit k))
    inverse = np.zeros((units + 1, n), dtype=np.int32)  # inverse[k, t]: the digit of t* at k
    inverse[right, np.arange(n)] = digit_of[np.array([*G.inverse, arrows])[sections]]
    by_source = np.array([a for fiber in fibers for a in fiber], dtype=np.intp)
    fiber_end = [0, *accumulate(map(len, fibers))]

    # each product's and inverse's rank over the runs so far, its element after
    # the last; with no units there is no run, and the one member, the empty
    # bisection, is element 0
    table, star = np.zeros((n, n), dtype=np.int32), np.zeros(n, dtype=np.int32)
    for run, place, span, slots in _SectionIndex(digits, [len(f) + 1 for f in fibers]):
        b = by_source[fiber_end[run.start] : fiber_end[run.stop]]
        left = digit_of[compose[padded[range_pos[b]], b[:, None]]]
        left *= place[source_pos[b] - run.start, None]
        onehot = digits[source_pos[b]] == digit_of[b, None]
        _product_codes(table, left.astype(np.float64), onehot.astype(np.float64), span, slots)
        star = slots.take(star * span + place @ inverse[run.start : run.stop])

    if table.min() < 0:
        s = int(np.argmax(table.min(axis=1) < 0))
        t = int(np.argmax(table[s] < 0))
        products = compose[padded[right, s], sections]  # products[k, t]: (s.t)(unit k), or -1
        ranges = np.sort(range_pos[products], axis=0)
        if ((ranges[1:] == ranges[:-1]) & (ranges[1:] < units)).any():
            raise CheckFailed("product of bisections must be a bisection")
        lhs, rhs = names[s], names[t]
        raise ValidationError(
            f"collection not closed at product {lhs} * {rhs}", witness=(lhs, rhs)
        )
    if star.min() < 0:
        message = f"inverse of {names[int(np.argmax(star < 0))]} missing"
        raise ValidationError(message, witness=(message, None))
    sg = validate_inverse_semigroup(names, table, star)
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
    old = np.array(order, dtype=np.intp)
    new_of_old = np.empty(n, dtype=np.int32)
    new_of_old[old] = np.arange(n)
    width = len(str(n - 1))
    names = tuple(f"x{str(i).zfill(width)}" for i in range(n))
    table = S.table.take(old, axis=0)
    for rows in row_blocks(n, 4 * n):  # no second n x n temporary; take copies to intp
        table[rows] = new_of_old.take(table[rows].take(old, axis=1))
    star = tuple(new_of_old[np.array(S.star)[old]].tolist())
    T = FiniteInverseSemigroup(names, table, int(new_of_old[S.zero]), star)
    audit = TableAudit(bs.groupoid, tuple(bs.bits[i] for i in order))
    return T, audit
