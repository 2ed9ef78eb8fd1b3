"""Finite inverse semigroups presented by multiplication tables.

Element names are opaque strings mapped to dense indices at validation
time; everything downstream computes on indices.  The table is one
read-only (n, n) int32 array from parsing to output, so a product is one
array lookup and a row, column or sub-table is one gather.  The
involution is always derived from the defining identities or verified
against them, never taken on trust from the input.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, count
from math import isqrt
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .bitsets import row_masks
from .errors import CheckFailed, ValidationError

# Entries per temporary array: the table checks work on blocks of rows.
_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class FiniteInverseSemigroup:
    """Validated inverse semigroup with zero.

    Build through :func:`validate_inverse_semigroup`; direct construction is
    reserved for code that relabels an already validated structure.  The
    table is made read-only on construction.
    """

    elements: tuple[str, ...]
    table: np.ndarray
    zero: int
    star: tuple[int, ...]

    __hash__ = None

    def __post_init__(self) -> None:
        self.table.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteInverseSemigroup):
            return NotImplemented
        return (
            (self.elements, self.zero, self.star) == (other.elements, other.zero, other.star)
            and np.array_equal(self.table, other.table)
        )

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.elements)}

    @cached_property
    def idempotents(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.table.diagonal() == np.arange(len(self))).tolist())

    @cached_property
    def idempotent_table(self) -> np.ndarray:
        """The products of the idempotents, ascending, among themselves (read-only)."""
        return _idempotent_table(self.table)


def row_blocks(count: int, width: int) -> Iterator[slice]:
    """Consecutive slices of range(count), each about _BLOCK // width rows."""
    step = max(1, _BLOCK // max(width, 1))
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def integers(values: Iterable, what: str) -> tuple[int, ...]:
    """The values through operator.index; a ValueError names the first non-integer."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next(v for v in values if not hasattr(v, "__index__"))
        raise ValueError(f"{what} {bad!r} is not an integer") from None


def _square_table(table, n: int) -> np.ndarray:
    """The table as an n x n int32 array; an int32 array is returned as is.

    A wrong shape, or an entry that is not an integer in range(n), is a
    ValueError; the message names the first bad entry in row-major order.
    """
    if isinstance(table, np.ndarray):
        t = table
        if t.shape != (n, n):
            raise ValueError(f"table must be {n}x{n}")
    else:
        rows = [tuple(row) for row in table]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"table must be {n}x{n}")
        t = np.asarray(rows)  # entries past int64 give an object array, checked the same way
    if t.dtype.kind not in "iu":
        integers(t.ravel().tolist(), "table entry")
    if t.size and not 0 <= t.min() <= t.max() < n:
        bad = np.flatnonzero((t < 0) | (t >= n))
        raise ValueError(f"table entry {t.flat[bad[0]]} out of range")
    return t.astype(np.int32, copy=False)


def _generators(t: np.ndarray, order: Iterable[int], words: bool = False) -> Iterator[int]:
    """A greedy generating set of the magma t, candidates taken in the given order.

    Each candidate not yet generated joins the set and is yielded; only
    when the next one is asked for does the closure grow, so a caller that
    stops early pays for no more closure than it used.  The closure takes
    products with every member on both sides or, with ``words``, holds only
    the left-bracketed words ((a1 a2) a3)... of the set: |A| n products.
    Only the table's own products are used, never associativity, so the
    set generates t even when t is not a semigroup; on a semigroup both
    closures are the generated subsemigroup and draw the same set.

    A table that one row block holds (n^2 <= _BLOCK) grows its words by a
    walk over Python lists, each drawn column t[:, g] kept as one, since
    there a numpy call costs more than the products it takes; any other
    closure grows by array rounds.
    """
    n = len(t)
    if words and n * n <= _BLOCK:
        inside, found, cols = bytearray(n), [], []  # the words, as flags and as a list
        for g in order:
            if inside[g]:
                continue
            yield int(g)
            col = t[:, g].tolist()
            cols.append(col)
            new = len(found)
            for w in [g, *map(col.__getitem__, found)]:  # g and the words w g
                if not inside[w]:
                    inside[w] = 1
                    found.append(w)
            while new < len(found):  # each new word times every drawn generator
                w, new = found[new], new + 1
                for col in cols:
                    v = col[w]
                    if not inside[v]:
                        inside[v] = 1
                        found.append(v)
        return
    member = np.zeros(n, dtype=bool)
    gens, drawn = np.empty(n, dtype=np.intp), 0
    for g in order:
        if member[g]:
            continue
        yield int(g)
        gens[drawn], drawn = g, drawn + 1
        before = member.copy()
        member[g] = True
        if words:
            member[t[:, g][before]] = True
        fresh = np.flatnonzero(member & ~before)
        while fresh.size:
            before = member.copy()
            right = gens[:drawn] if words else np.flatnonzero(member)
            for rows in row_blocks(len(fresh), len(right)):
                member[t[fresh[rows, None], right]] = True
                if not words:
                    member[t[right[:, None], fresh[rows]]] = True
            fresh = np.flatnonzero(member & ~before)


def _light_witness(t: np.ndarray, gens: Iterable[int]) -> tuple[int, int, int] | None:
    """The first (x, a, y) with (xa)y != x(ay), over blocks of x, then a in gens.

    The first block draws gens one at a time, so a failure there stops
    the draw at its generator; later blocks reuse what it drew.  When one
    block holds the table (n^2 <= _BLOCK), x(ay) is a row gather from the
    transpose, transposed back, which is faster there than a column gather.
    """
    n, drawn = len(t), []
    tT = np.ascontiguousarray(t.T) if n * n <= _BLOCK else None  # one block holds t
    for rows in row_blocks(n, n):
        block = t[rows]
        for a in drawn if rows.start else gens:
            if not rows.start:
                drawn.append(a)
            # (xa)y against x(ay)
            if tT is None:
                right = np.take(block, t[a], axis=1)
            else:
                right = np.take(tT, t[a], axis=0).T
            bad = np.take(t, block[:, a], axis=0) != right
            if bad.any():
                x, y = divmod(int(bad.argmax()), n)
                return (rows.start + x, a, y)
    return None


def associativity_witness(t: np.ndarray) -> tuple[int, int, int] | None:
    """A triple (x, a, y) with (xa)y != x(ay), or None when t is associative.

    A table with n^3 <= _BLOCK gets its verdict from one comparison over
    every triple: t[t] is (xa)y indexed [x, a, y], t[:, t] is x(ay).  A
    larger table whose z (see _nonzero_counts) is absorbing, and whose
    counts r and c of entries != z in each row and column have
    sum of c[a] r[a] <= n^2, is decided on its support, on that many
    triples (see _support_associative).  Every other table uses Light's test
    (Clifford-Preston, *The Algebraic Theory of Semigroups* I, section
    1.2): the b with (xb)y = x(by) for all x, y are closed under the
    product, since (x(bc))y = ((xb)c)y = (xb)(cy) = x(b(cy)) = x((bc)y).
    So checking a set A whose left-bracketed words ((a1 a2) a3)... reach
    every element suffices, O(n^2 |A|) work.  The argument never uses
    associativity, so A may come from the words of the untrusted table
    itself, in any order; the verdict draws A as ranked_generators(t)
    does.  On every path a failure's witness comes from Light's test over
    the two-sided greedy set in ascending order, as if unranked.
    """
    n = len(t)
    if n**3 <= _BLOCK:
        associative = np.array_equal(t[t], t[:, t])
    else:
        # the support verdict pays off when the rows hold about sqrt(n) entries each
        z, rows, cols, at = _nonzero_counts(t, keep=n * isqrt(n))
        if z >= 0 and not rows[z] and not cols[z] and cols @ rows <= n * n:
            associative = _support_associative(t, z, rows, cols, at)
        else:
            order = np.argsort(-rows, kind="stable").tolist()
            associative = _light_witness(t, _generators(t, order, words=True)) is None
    if associative:
        return None
    return _light_witness(t, _generators(t, range(n)))


def _support_associative(
    t: np.ndarray, z: int, rows: np.ndarray, cols: np.ndarray, at: np.ndarray | None
) -> bool:
    """Whether t is associative: z is absorbing, rows and cols count the entries != z.

    ``at`` lists the flat positions of those entries in row-major order,
    or is None when the table is to be scanned for them.

    A triple with xa = z = ay is z on both sides.  So t is associative iff
    (i) (xa)y = x(ay) whenever xa != z and ay != z, (ii) row xa is z
    outside the support of row a whenever xa != z (the triples with
    ay = z), and (iii) column ay is z outside the support of column a
    whenever ay != z.  Given (i), each (x, a) with xa != z meets at most
    rows[xa] of the y in row a's support with (xa)y != z, and reaches
    that many iff (ii) holds for it; each (a, y) with ay != z meets at
    most cols[ay] of the x in column a's support with x(ay) != z.  So (ii)
    and (iii) hold iff the nonzero products over the triples of (i) count
    the sum of rows[v], and of cols[v], over the entries v != z.  The
    triples are built one group of entries (x, a) at a time, about
    _BLOCK // 4 of them per group.
    """
    n = len(t)
    flat = t.reshape(-1)
    if at is None:
        at = np.concatenate([np.flatnonzero(t[b] != z) + b.start * n for b in row_blocks(n, n)])
    row, col = np.divmod(at, n)  # the entries != z in row-major order
    val = flat[at].astype(np.intp)
    first = np.cumsum(rows) - rows  # row a's entries start at first[a]
    ends = np.cumsum(rows[col])  # the triples of the entries up to each one
    nonzero, lo = 0, 0
    while lo < len(at):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + (_BLOCK >> 2), side="right")))
        k = rows[col[lo:hi]]  # entry (x, a) meets the k entries (a, y) of row a
        ay = np.repeat(first[col[lo:hi]] - ends[lo:hi] + k + base, k)
        ay += np.arange(len(ay))
        left = flat.take(np.repeat(val[lo:hi] * n, k) + col[ay])  # (xa)y
        if not np.array_equal(left, flat.take(np.repeat(row[lo:hi] * n, k) + val[ay])):  # x(ay)
            return False
        nonzero += np.count_nonzero(left != z)
        lo = hi
    counts = np.bincount(val, minlength=n)
    return nonzero == counts @ rows == counts @ cols


def _nonzero_counts(
    t: np.ndarray, keep: int = 0
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray | None]:
    """z, the left fold of the idempotents (-1 if none), and the entries != z per row and column.

    The fourth item lists the flat positions of those entries in row-major
    order when there are at most ``keep`` of them, and is None otherwise:
    a block's positions are listed only while the running count stays
    within ``keep``, so a dense table pays for none of them.
    """
    n = len(t)
    z = _fold(t)
    rows, cols = np.empty(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    at, kept = ([np.empty(0, dtype=np.intp)] if keep else None), 0
    # uint16 sums: a row block has at most 256 rows, and an int32 table of 2^16 rows is 16 GiB
    wide = np.uint16 if n < 1 << 16 else np.intp
    for block in row_blocks(n, n):
        support = t[block] != z
        ones = support.view(np.uint8)
        rows[block] = ones.sum(axis=1, dtype=wide)
        cols += ones.sum(axis=0, dtype=np.uint16)
        if at is not None:
            kept += int(rows[block].sum())
            if kept > keep:
                at = None
            else:
                at.append(np.flatnonzero(support) + block.start * n)
    return z, rows, cols, None if at is None else np.concatenate(at)


def ranked_generators(t: np.ndarray) -> Iterator[int]:
    """_generators by words, candidates by descending count of row entries other than z.

    z is the left fold of the idempotents, the zero of a validated table:
    an element with many nonzero products, such as one with a large
    domain, serves many words.
    """
    return _generators(t, np.argsort(-_nonzero_counts(t)[1], kind="stable").tolist(), words=True)

def _unique_inverses(t: np.ndarray, names: tuple[str, ...]) -> NoReturn:
    """Raise for the first s without exactly one u with sus = s and usu = u."""
    every = np.arange(len(t))
    for s in range(len(t)):
        found = np.flatnonzero((t[t[s], s] == s) & (t[t[:, s], every] == every))
        if len(found) != 1:
            element, found = names[s], tuple(names[u] for u in found)
            raise ValidationError(
                f"element {element} has {len(found)} generalized inverse(s): {found!r}",
                witness=(element, found),
            )
    raise CheckFailed("a table without inner inverses must lack a unique inverse")


def _idempotent_table(t: np.ndarray) -> np.ndarray:
    """t[e][:, e], e the idempotents ascending, read-only; t itself when every element is one."""
    e = np.flatnonzero(t.diagonal() == np.arange(len(t)))
    if len(e) == len(t):
        return t
    sub = t[e[:, None], e]
    sub.flags.writeable = False
    return sub


def _symmetric(sub: np.ndarray) -> bool:
    """sub equals its transpose, compared in square tiles on and above the diagonal.

    A tile of 128 x 128 entries and its mirror image stay in cache; row
    blocks read the mirror image column by column, about 5x slower on a
    4,096 x 4,096 table.
    """
    m, side = len(sub), 128
    for i in range(0, m, side):
        for j in range(i, m, side):
            if (sub[i : i + side, j : j + side] != sub[j : j + side, i : i + side].T).any():
                return False
    return True


def _inverse_pairs(t: np.ndarray, star: np.ndarray) -> bool:
    """s s* s = s and s* s s* = s* for every s."""
    every = np.arange(len(t))
    return bool(
        (t[t[every, star], every] == every).all() and (t[t[star, every], star] == star).all()
    )


def _inner_inverses(t: np.ndarray) -> tuple[int, ...] | None:
    """Each s's inverse usu for the first u with sus = s, or None (see validate_inverse_semigroup).

    Idempotents, which commute here, are their own inverses.  u goes by
    descending count of distinct ue over the idempotents e, which counts
    the e <= u*u: u with large domains serve many s.
    """
    n = len(t)
    every = np.arange(n)
    idempotent = t.diagonal() == every
    e = np.flatnonzero(idempotent)
    todo = np.flatnonzero(~idempotent)
    if not todo.size:
        return tuple(range(n))
    inner, lo = np.where(idempotent, every, -1), 0
    size = np.empty(n, dtype=np.intp)
    for rows in row_blocks(n, len(e)):
        image = np.sort(t[rows, e], axis=1)
        size[rows] = np.count_nonzero(image[:, 1:] != image[:, :-1], axis=1)
    order, flat = np.argsort(-size, kind="stable"), t.ravel()
    # u in blocks of a quarter _BLOCK (128 KB intp indices reuse freed memory)
    while todo.size and lo < n:
        u = order[lo : lo + max(1, (_BLOCK >> 2) // todo.size)]
        su = flat.take(todo[:, None] * n + u)
        hit = flat.take(su * np.intp(n) + todo[:, None]) == todo[:, None]
        found = hit.any(axis=1)
        inner[todo[found]] = u[hit[found].argmax(axis=1)]
        todo, lo = todo[~found], lo + len(u)
    if todo.size:
        return None
    star = t[t[inner, every], inner]
    return tuple(star.tolist()) if _inverse_pairs(t, star) else None


def _fold(t: np.ndarray) -> int:
    """The left fold ((e1 e2) e3)... of the idempotents, or -1 when there are none."""
    e = np.flatnonzero(t.diagonal() == np.arange(len(t))).tolist()
    return reduce(t.item, e) if e else -1


def _absorbing(t: np.ndarray) -> int | None:
    """The z whose row and column are constant at z, or None.

    In any magma such a z is one idempotent (z = zz' = z'), and the left
    fold ((e1 e2) e3)... of the idempotents stays at z once it meets it.
    """
    z = _fold(t)
    return z if z >= 0 and (t[z] == z).all() and (t[:, z] == z).all() else None


def validate_inverse_semigroup(
    elements: Iterable[str],
    table: Iterable[Iterable[int]] | np.ndarray,
    star: Sequence[int] | np.ndarray | None = None,
) -> FiniteInverseSemigroup:
    """Check a raw multiplication table and derive or verify the involution, and the zero.

    Raises ValidationError when associativity fails, with the witness triple
    of names, when an element s lacks a unique inverse, with the witness (s,
    its candidates), or when no zero exists.  An associative table is an
    inverse semigroup iff it is regular and its idempotents commute
    (Clifford-Preston I, Thm 1.17; Howie, Thm 5.1.1), and then s* is the
    one u with sus = s and usu = u.  So the idempotents are checked to
    commute, and a candidate ``star`` (one element index per element) is
    taken when s s* s = s and s* s s* = s* hold for every s.  Without a
    candidate, or when it fails, sus = s makes usu an inverse of s:
    s(usu)s = (sus)us = s and (usu)s(usu) = u(sus)(usu) = u(sus)u = usu;
    so s* = usu for the first u with sus = s is re-checked the same way.
    A table that fails there gets the full scan of every pair (s, u) for
    its message.  The result and every message are the same with or
    without a candidate.  The zero is read off the idempotents.
    Malformed shapes (non-square table, out-of-range entries, duplicate
    names, a candidate that is not n element indices) raise ValueError
    because they are caller errors, not algebra.
    Every check is an array test on the table as one int32 array, and
    that array is the returned table, made read-only.  An int32 array
    argument is taken over without a copy, so a caller that still writes
    to its table passes a copy.
    """
    names = tuple(str(x) for x in elements)
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("duplicate element names")
    if n == 0:
        raise ValidationError("empty element set has no absorbing element")
    t = _square_table(table, n)
    if star is not None:
        star = np.asarray(star)
        malformed = star.shape != (n,) or star.dtype.kind not in "iu"
        if malformed or not 0 <= star.min() <= star.max() < n:
            raise ValueError(f"star must be {n} element indices")

    witness = associativity_witness(t)
    if witness is not None:
        x, a, y = (names[i] for i in witness)
        raise ValidationError(f"associativity fails at ({x}, {a}, {y})", witness=(x, a, y))
    idempotent_table = _idempotent_table(t)
    if not _symmetric(idempotent_table):
        _unique_inverses(t, names)
    if star is not None and _inverse_pairs(t, star):
        star = tuple(star.tolist())
    else:
        star = _inner_inverses(t)
    if star is None:
        _unique_inverses(t, names)
    zero = _absorbing(t)
    if zero is None:
        raise ValidationError("no absorbing element in table")
    S = FiniteInverseSemigroup(names, t, zero, star)
    vars(S)["idempotent_table"] = idempotent_table  # the cached property, gathered once
    return S


def adjoin_zero(
    elements: Sequence[str], table: Iterable[Iterable[int]] | np.ndarray
) -> tuple[tuple[str, ...], np.ndarray]:
    """Add a fresh absorbing element unless the table already has one.

    Returns the (possibly unchanged) element list and the table as an
    int32 array; a malformed table is a ValueError, as in validation.
    """
    names = tuple(str(x) for x in elements)
    t = _square_table(table, len(names))
    if _absorbing(t) is not None:
        return names, t
    n = len(names)
    # the first free name of 0, zero, _0, __0, ___0, ...
    candidates = chain(("0", "zero"), ("_" * k + "0" for k in count(1)))
    fresh = next(c for c in candidates if c not in names)
    out = np.full((n + 1, n + 1), n, dtype=np.int32)
    out[:n, :n] = t
    return names + (fresh,), out


@dataclass(frozen=True)
class Semilattice:
    """The idempotents of an inverse semigroup under the induced meet.

    ``carrier`` holds ambient element indices in ascending order; the
    bitmask positions used throughout the spectrum code are offsets into
    ``carrier``.  Build through :func:`idempotent_semilattice`; validation
    decided that idempotents commute, so ``meets`` is closed and symmetric.
    """

    semigroup: FiniteInverseSemigroup
    carrier: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.carrier)

    @cached_property
    def positions(self) -> np.ndarray:
        """positions[e] = position of ambient element e, or -1 when e is not idempotent."""
        out = np.full(len(self.semigroup), -1, dtype=np.int32)
        out[list(self.carrier)] = np.arange(len(self.carrier))
        return out

    @cached_property
    def meets(self) -> np.ndarray:
        """meets[p, q] = position of e_p e_q, or -1 when that is not idempotent."""
        return self.positions[self.semigroup.idempotent_table]  # not take: no intp copy

    @cached_property
    def zero_pos(self) -> int:
        return int(self.positions[self.semigroup.zero])

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.carrier)) - 1

    @cached_property
    def nonzero_mask(self) -> int:
        return self.full_mask & ~(1 << self.zero_pos)

    # Row p of each comparison below is the mask of positions q; meets is
    # symmetric, so meets[p, q] is also e_q e_p.

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """down_masks[p] = positions q with e_q <= e_p."""
        return row_masks(self.meets == np.arange(len(self.carrier)))

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """up_masks[p] = positions q with e_p <= e_q."""
        return row_masks(self.meets == np.arange(len(self.carrier))[:, None])

    @cached_property
    def minimum_of(self) -> dict[int, int]:
        """minimum_of[up_masks[p]] = p for every nonzero position p.

        In a finite semilattice a filter holds the meet of its members and
        everything above it, and nothing else, so the keys are exactly the
        filters and each maps to its minimum.
        """
        zero = self.zero_pos
        out = {u: p for p, u in enumerate(self.up_masks) if p != zero}
        if len(out) != len(self.carrier) - 1:
            raise CheckFailed("distinct idempotents must have distinct principal filters")
        return out

    @cached_property
    def orth_masks(self) -> tuple[int, ...]:
        """orth_masks[p] = positions q with e_q e_p = 0."""
        return row_masks(self.meets == self.zero_pos)

    @cached_property
    def intersect_masks(self) -> tuple[int, ...]:
        """intersect_masks[p] = positions q with e_q e_p != 0."""
        return tuple(self.full_mask & ~m for m in self.orth_masks)


def idempotent_semilattice(S: FiniteInverseSemigroup) -> Semilattice:
    """Collect the idempotents of S; they commute (validation), so ef is one too."""
    E = Semilattice(S, S.idempotents)
    if E.positions[S.zero] < 0:
        raise CheckFailed("a validated semigroup always has an idempotent zero")
    return E
