"""Finite inverse semigroups presented by multiplication tables.

Element names are opaque strings mapped to dense indices at validation
time; everything downstream computes on indices, so a product is a single
table lookup.  The involution is always derived from the defining
identities, never taken on trust from the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    CheckFailed,
    NotAssociative,
    NotIdempotent,
    NoUniqueInverse,
    NoZero,
)

# Entries per temporary array: the table checks work on blocks of rows.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class FiniteInverseSemigroup:
    """Validated inverse semigroup with zero.

    Build through :func:`validate_inverse_semigroup`; direct construction is
    reserved for code that relabels an already validated structure.
    """

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    zero: int
    star: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.elements)}

    @cached_property
    def idempotents(self) -> tuple[int, ...]:
        return tuple(e for e in range(len(self.elements)) if self.table[e][e] == e)

    def mul_all(self, items: Iterable[int]) -> int:
        """Product over a nonempty sequence, left to right."""
        it = iter(items)
        try:
            acc = next(it)
        except StopIteration:
            raise ValueError("empty product is undefined") from None
        for x in it:
            acc = self.table[acc][x]
        return acc

    def is_idempotent(self, e: int) -> bool:
        return self.table[e][e] == e


def row_blocks(count: int, width: int) -> Iterator[slice]:
    """Consecutive slices of range(count), each about _BLOCK // width rows."""
    step = max(1, _BLOCK // max(width, 1))
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _table_rows(t: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """An n x n int array as tuple rows whose entries are n shared int objects."""
    ints = list(range(len(t)))
    return tuple(tuple(map(ints.__getitem__, row.tolist())) for row in t)


def _square_table(table, n: int) -> np.ndarray:
    """The table as an n x n int32 array.

    A wrong shape, or an entry outside range(n), is a ValueError; the
    message names the first bad entry in row-major order.
    """
    rows = table if isinstance(table, np.ndarray) else [tuple(row) for row in table]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"table must be {n}x{n}")
    t = np.asarray(rows)  # entries past int64 give an object array, checked the same way
    bad = np.flatnonzero((t < 0) | (t >= n))
    if bad.size:
        raise ValueError(f"table entry {t.flat[bad[0]]} out of range")
    return t.astype(np.int32, copy=False)


def _generators(t: np.ndarray) -> list[int]:
    """A greedy generating set of the magma t, candidates in ascending order.

    Each element not yet generated joins the set, and the closure grows by
    multiplying each fresh element with every member on both sides.  Only
    the table's own products are used, never associativity, so the set
    generates t even when t is not a semigroup.
    """
    member = np.zeros(len(t), dtype=bool)
    gens = []
    for g in range(len(t)):
        if member[g]:
            continue
        gens.append(g)
        member[g] = True
        fresh = np.array([g])
        while fresh.size:
            before = member.copy()
            inside = np.flatnonzero(member)
            for rows in row_blocks(len(fresh), len(t)):
                member[t[fresh[rows]][:, inside]] = True
                member[t[:, fresh[rows]][inside]] = True
            fresh = np.flatnonzero(member & ~before)
    return gens


def associativity_witness(t: np.ndarray) -> tuple[int, int, int] | None:
    """A triple (x, a, y) with (xa)y != x(ay), or None when t is associative.

    Light's test (Clifford-Preston, *The Algebraic Theory of Semigroups* I,
    section 1.2): the b with (xb)y = x(by) for all x, y are closed under
    the product, since (x(bc))y = ((xb)c)y = (xb)(cy) = x(b(cy)) =
    x((bc)y).  So checking a generating set A suffices, O(n^2 |A|) work.
    The argument never uses associativity, so A may come from the closure
    of the untrusted table itself.
    """
    gens = _generators(t)
    for rows in row_blocks(len(t), len(t)):
        block = t[rows]
        for a in gens:
            # (xa)y against x(ay)
            bad = np.take(t, block[:, a], axis=0) != np.take(block, t[a], axis=1)
            if bad.any():
                x, y = divmod(int(bad.argmax()), len(t))
                return (rows.start + x, a, y)
    return None


def _unique_inverses(t: np.ndarray, names: tuple[str, ...]) -> tuple[int, ...]:
    """For each s the one u with sus = s and usu = u; NoUniqueInverse otherwise."""
    n = len(t)
    every = np.arange(n)
    star = np.empty(n, dtype=np.int32)
    for rows in row_blocks(n, n):
        s = every[rows, None]
        candidates = (t[t[rows], s] == s) & (t[t[:, rows].T, every] == every)
        wrong = np.flatnonzero(candidates.sum(axis=1) != 1)
        if wrong.size:
            i = wrong[0]
            raise NoUniqueInverse(
                names[rows.start + i], (names[u] for u in np.flatnonzero(candidates[i]))
            )
        star[rows] = candidates.argmax(axis=1)
    return tuple(star.tolist())


def _absorbing(t: np.ndarray) -> int | None:
    """The first z whose row and column are constant at z, or None."""
    n = len(t)
    every = np.arange(n)
    row_ok = np.empty(n, dtype=bool)
    column_ok = np.ones(n, dtype=bool)
    for rows in row_blocks(n, n):
        block = t[rows]
        row_ok[rows] = (block == every[rows, None]).all(axis=1)
        column_ok &= (block == every).all(axis=0)
    zeros = np.flatnonzero(row_ok & column_ok)
    return int(zeros[0]) if zeros.size else None


def validate_inverse_semigroup(
    elements: Iterable[str], table: Iterable[Iterable[int]] | np.ndarray
) -> FiniteInverseSemigroup:
    """Check a raw multiplication table and derive the involution and zero.

    Raises NotAssociative, NoUniqueInverse or NoZero, each with a witness.
    Malformed shapes (non-square table, out-of-range entries, duplicate
    names) raise ValueError because they are caller errors, not algebra.
    Every check is an array test on the table as one int32 array; the
    returned table is tuple rows again.
    """
    names = tuple(str(x) for x in elements)
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("duplicate element names")
    if n == 0:
        raise NoZero("empty element set has no absorbing element")
    t = _square_table(table, n)

    witness = associativity_witness(t)
    if witness is not None:
        x, a, y = witness
        raise NotAssociative(names[x], names[a], names[y])
    star = _unique_inverses(t, names)
    zero = _absorbing(t)
    if zero is None:
        raise NoZero("no absorbing element in table")
    return FiniteInverseSemigroup(names, _table_rows(t), zero, star)


def adjoin_zero(
    elements: Sequence[str], table: Sequence[Sequence[int]]
) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """Add a fresh absorbing element unless the table already has one.

    Returns the (possibly unchanged) element list and table.
    """
    names = tuple(str(x) for x in elements)
    rows = tuple(tuple(int(v) for v in row) for row in table)
    n = len(names)
    for z in range(n):
        if all(rows[z][x] == z == rows[x][z] for x in range(n)):
            return names, rows
    fresh = next(c for c in ("0", "zero", "_0") if c not in names)
    new_rows = [row + (n,) for row in rows]
    new_rows.append(tuple([n] * (n + 1)))
    return names + (fresh,), tuple(new_rows)


@dataclass(frozen=True)
class Semilattice:
    """The idempotents of an inverse semigroup under the induced meet.

    ``carrier`` holds ambient element indices in ascending order; the
    bitmask positions used throughout the spectrum code are offsets into
    ``carrier``.
    """

    semigroup: FiniteInverseSemigroup
    carrier: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.carrier)

    @cached_property
    def position(self) -> dict[int, int]:
        return {e: p for p, e in enumerate(self.carrier)}

    @cached_property
    def zero_pos(self) -> int:
        return self.position[self.semigroup.zero]

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.carrier)) - 1

    @cached_property
    def nonzero_mask(self) -> int:
        return self.full_mask & ~(1 << self.zero_pos)

    def _require_idempotent(self, e: int) -> None:
        if e not in self.position:
            label = (
                self.semigroup.elements[e]
                if 0 <= e < len(self.semigroup.elements)
                else e
            )
            raise NotIdempotent(label)

    # -- ambient-index relations ------------------------------------------

    def meet(self, e: int, f: int) -> int:
        self._require_idempotent(e)
        self._require_idempotent(f)
        return self.semigroup.table[e][f]

    def leq(self, e: int, f: int) -> bool:
        """Natural order: e <= f iff ef = e."""
        return self.meet(e, f) == e

    def orthogonal(self, e: int, f: int) -> bool:
        """ef = 0."""
        return self.meet(e, f) == self.semigroup.zero

    def intersects(self, e: int, f: int) -> bool:
        """ef != 0."""
        return not self.orthogonal(e, f)

    # -- position-level machinery ------------------------------------------

    def meet_pos(self, p: int, q: int) -> int:
        table = self.semigroup.table
        return self.position[table[self.carrier[p]][self.carrier[q]]]

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """down_masks[p] = positions q with e_q <= e_p."""
        out = []
        for p in range(len(self.carrier)):
            mask = 0
            for q in range(len(self.carrier)):
                if self.meet_pos(q, p) == q:
                    mask |= 1 << q
            out.append(mask)
        return tuple(out)

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """up_masks[p] = positions q with e_p <= e_q."""
        out = [0] * len(self.carrier)
        for q, down in enumerate(self.down_masks):
            for p in range(len(self.carrier)):
                if down >> p & 1:
                    out[p] |= 1 << q
        return tuple(out)

    @cached_property
    def orth_masks(self) -> tuple[int, ...]:
        """orth_masks[p] = positions q with e_q e_p = 0."""
        out = []
        zero = self.zero_pos
        for p in range(len(self.carrier)):
            mask = 0
            for q in range(len(self.carrier)):
                if self.meet_pos(q, p) == zero:
                    mask |= 1 << q
            out.append(mask)
        return tuple(out)

    @cached_property
    def intersect_masks(self) -> tuple[int, ...]:
        """intersect_masks[p] = positions q with e_q e_p != 0."""
        return tuple(self.full_mask & ~m for m in self.orth_masks)

    def restricted_ideal_mask(
        self, below: Iterable[int] = (), orthogonal_to: Iterable[int] = ()
    ) -> int:
        """E^{X,Y} over positions: everything under all of X and orthogonal to all of Y."""
        mask = self.full_mask
        for p in below:
            mask &= self.down_masks[p]
        for q in orthogonal_to:
            mask &= self.orth_masks[q]
        return mask

    def restricted_ideal(
        self, below: Iterable[int] = (), orthogonal_to: Iterable[int] = ()
    ) -> tuple[int, ...]:
        """Ambient indices of E^{X,Y}; an empty X imposes no upper bound."""
        xs = []
        for e in below:
            self._require_idempotent(e)
            xs.append(self.position[e])
        ys = []
        for f in orthogonal_to:
            self._require_idempotent(f)
            ys.append(self.position[f])
        mask = self.restricted_ideal_mask(xs, ys)
        return tuple(
            self.carrier[p] for p in range(len(self.carrier)) if mask >> p & 1
        )

    def is_cover(self, cover: Iterable[int], family: Iterable[int]) -> bool:
        """Z covers F: Z is inside F and every nonzero f in F meets some z.

        Members of F equal to zero impose no demand; zero meets nothing, and
        every use of covers goes through characters that vanish at zero.
        """
        zs = []
        for z in cover:
            self._require_idempotent(z)
            zs.append(self.position[z])
        fs = []
        for f in family:
            self._require_idempotent(f)
            fs.append(self.position[f])
        fset = set(fs)
        if any(z not in fset for z in zs):
            return False
        zmask = 0
        for z in zs:
            zmask |= 1 << z
        for f in fs:
            if f == self.zero_pos:
                continue
            if not self.intersect_masks[f] & zmask:
                return False
        return True


def idempotent_semilattice(S: FiniteInverseSemigroup) -> Semilattice:
    """Collect the idempotents of S and certify they form a semilattice."""
    carrier = S.idempotents
    members = set(carrier)
    if S.zero not in members:
        raise CheckFailed("a validated semigroup always has an idempotent zero")
    for e in carrier:
        row = S.table[e]
        for f in carrier:
            ef = row[f]
            if ef not in members or ef != S.table[f][e]:
                raise CheckFailed("idempotents must form a commutative subsemigroup")
    return Semilattice(S, carrier)
