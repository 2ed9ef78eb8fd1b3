"""Finite inverse semigroups presented by multiplication tables.

Element names are opaque strings mapped to dense indices at validation
time; everything downstream computes on indices, so a product is a single
table lookup.  The involution is always derived from the defining
identities, never taken on trust from the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import NotAssociative, NotIdempotent, NoUniqueInverse, NoZero

# A pure-python triple loop is fine for small tables; numpy pays off past this.
_NUMPY_ASSOC_CUTOFF = 64


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


def _associativity_witness(
    table: Sequence[Sequence[int]], n: int
) -> tuple[int, int, int] | None:
    if n >= _NUMPY_ASSOC_CUTOFF:
        t = np.asarray(table, dtype=np.intp)
        for c in range(n):
            lhs = t[t, c]  # lhs[a, b] = t[t[a, b], c]
            rhs = t[:, t[:, c]]  # rhs[a, b] = t[a, t[b, c]]
            bad = np.argwhere(lhs != rhs)
            if bad.size:
                a, b = map(int, bad[0])
                return (a, b, c)
        return None
    for a in range(n):
        row_a = table[a]
        for b in range(n):
            row_ab = table[row_a[b]]
            row_b = table[b]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    return (a, b, c)
    return None


def validate_inverse_semigroup(
    elements: Iterable[str], table: Iterable[Iterable[int]]
) -> FiniteInverseSemigroup:
    """Check a raw multiplication table and derive the involution and zero.

    Raises NotAssociative, NoUniqueInverse or NoZero, each with a witness.
    Malformed shapes (non-square table, out-of-range entries, duplicate
    names) raise ValueError because they are caller errors, not algebra.
    """
    names = tuple(str(x) for x in elements)
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("duplicate element names")
    if n == 0:
        raise NoZero("empty element set has no absorbing element")
    rows = tuple(tuple(int(v) for v in row) for row in table)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"table must be {n}x{n}")
    for row in rows:
        for v in row:
            if not 0 <= v < n:
                raise ValueError(f"table entry {v} out of range")

    witness = _associativity_witness(rows, n)
    if witness is not None:
        a, b, c = witness
        raise NotAssociative(names[a], names[b], names[c])

    star = []
    for s in range(n):
        row_s = rows[s]
        candidates = [
            t
            for t in range(n)
            if rows[row_s[t]][s] == s and rows[rows[t][s]][t] == t
        ]
        if len(candidates) != 1:
            raise NoUniqueInverse(names[s], (names[t] for t in candidates))
        star.append(candidates[0])

    zero = next(
        (z for z in range(n) if all(rows[z][x] == z == rows[x][z] for x in range(n))),
        None,
    )
    if zero is None:
        raise NoZero("no absorbing element in table")

    return FiniteInverseSemigroup(names, rows, zero, tuple(star))


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
    assert S.zero in members, "a validated semigroup always has an idempotent zero"
    for e in carrier:
        row = S.table[e]
        for f in carrier:
            ef = row[f]
            assert ef in members and ef == S.table[f][e], (
                "idempotents must form a commutative subsemigroup"
            )
    return Semilattice(S, carrier)
