"""The convolution algebra of a finite groupoid, and tight representations in it.

A representation's images come in with fractions.Fraction coefficients,
and every check runs on them scaled once to integer rows: every identity
checked here is exact, and a tolerance would only mask bugs.  The algebra
of a finite groupoid is already unital (the indicator of the unit space),
so the adjoined unit of the tightness identity is modeled by that indicator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from math import lcm
from typing import Mapping, Sequence

import numpy as np

from .bitsets import iter_bits, mask_of, row_masks
from .errors import BoundExceeded, CheckFailed, ValidationError
from .groupoids import FiniteGroupoid
from .semigroups import FiniteInverseSemigroup, Semilattice, idempotent_semilattice
from .semigroups import _BLOCK, integers, ranked_generators, row_blocks
from .spectrum import tight_spectrum

# Largest cover --audit-covers adds to the minimal ones.
AUDIT_COVER_SIZE = 4
# Most cover-sup instances a failing verdict or --audit-covers lists.
MAX_REP_INSTANCES = 1 << 24
# Most states one walk memoizes: (available candidates, O) for the count of one
# block, where pair20 singleton memoizes 3 a block and units5 ample (one block)
# 385, and (available candidates, E^{X,Y}, atoms) for the listing.
MAX_REP_STATES = 1 << 22


class AlgebraElement:
    """A finitely supported rational function on arrows: an image of a representation.

    Convolution stays for benchmark/tracing.py, which counts its calls.
    """

    __slots__ = ("groupoid", "coeffs")

    def __init__(self, groupoid: FiniteGroupoid, coeffs=None):
        items = list(coeffs.items() if isinstance(coeffs, dict) else coeffs or ())
        arrows = integers((arrow for arrow, _ in items), "arrow index")
        for arrow in arrows:
            if not 0 <= arrow < len(groupoid.arrows):
                raise ValueError(f"arrow index {arrow} out of range")
        data: dict[int, Fraction] = {}
        for arrow, (_, value) in zip(arrows, items):
            data[arrow] = data.get(arrow, 0) + Fraction(value)
        self.groupoid = groupoid
        self.coeffs = {arrow: v for arrow, v in data.items() if v}

    @classmethod
    def zero(cls, groupoid: FiniteGroupoid) -> "AlgebraElement":
        return cls(groupoid)

    @classmethod
    def indicator(cls, groupoid: FiniteGroupoid, mask: int) -> "AlgebraElement":
        if mask < 0 or mask >> len(groupoid.arrows):
            raise ValueError(f"mask {mask} is not a set of the {len(groupoid.arrows)} arrows")
        res = cls(groupoid)
        res.coeffs = dict.fromkeys(iter_bits(mask), Fraction(1))
        return res

    @classmethod
    def unit(cls, groupoid: FiniteGroupoid) -> "AlgebraElement":
        """Indicator of the whole unit space: the algebra unit."""
        return cls.indicator(groupoid, groupoid.units_mask)

    def _check_same(self, other: "AlgebraElement") -> None:
        if self.groupoid is not other.groupoid:
            raise ValidationError("operands live over different groupoids")

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Convolution: (f g)(gamma) = sum of f(alpha) g(beta) over alpha beta = gamma."""
        self._check_same(other)
        compose = self.groupoid.compose
        out: dict[int, Fraction] = {}
        for a, fa in self.coeffs.items():
            for b, gb in other.coeffs.items():
                c = compose.item(a, b)
                if c >= 0:
                    out[c] = out[c] + fa * gb if c in out else fa * gb
        res = AlgebraElement(self.groupoid)
        res.coeffs = {a: v for a, v in out.items() if v}
        return res

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.groupoid is other.groupoid and self.coeffs == other.coeffs


def rho(G: FiniteGroupoid, mask: int) -> AlgebraElement:
    """The indicator representation: a bisection to its characteristic function."""
    return AlgebraElement.indicator(G, mask)


def _minimal_covers(isect: Sequence[int], fplus: int) -> tuple[int, ...]:
    """Minimal Z inside F+ meeting every member of F+, as position masks.

    Branches on the lowest uncovered member, so every minimal cover is
    reached.  A cover is minimal iff each of its members meets a member
    of F+ that no other member meets, its private part; adding members
    only shrinks private parts, so a branch stops as soon as one is empty.
    A branch leaves out the candidates its earlier siblings tried: a cover
    that holds one of them is reached in that sibling's branch, or is not
    minimal, so each cover is reached once.
    """
    if fplus == 0:
        return (0,)
    found: list[int] = []

    def rec(zmask: int, private: list[int], uncovered: int, taken: int) -> None:
        if not uncovered:
            found.append(zmask)
            return
        candidates = isect[(uncovered & -uncovered).bit_length() - 1] & fplus & ~taken
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            meets = isect[low.bit_length() - 1]
            parts = [part & ~meets for part in private]
            if all(parts):
                parts.append(meets & uncovered)
                rec(zmask | low, parts, uncovered & ~meets, taken)
            taken |= low

    rec(0, [], fplus, 0)
    return tuple(sorted(found))


def _all_covers_upto(isect: Sequence[int], fplus: int, max_size: int) -> list[int]:
    """Every cover of F+ of at most max_size members (audit mode)."""
    members = list(iter_bits(fplus))
    sizes = range(min(max_size, len(members)) + 1)
    masks = (mask_of(combo) for k in sizes for combo in combinations(members, k))
    return [zmask for zmask in masks if all(isect[f] & zmask for f in members)]


@dataclass(frozen=True)
class _CoefficientMatrix:
    """pi as integer rows: pi(s) = rows[s] / scale, exactly.

    ``support`` and ``weights`` list the nonzero entries of each row,
    padded with the arrow count and 0; ``compose`` is the groupoid's
    composition as an (arrows+1)^2 array whose last row and column, and
    every non-composable pair, hold the padding index.  The dtype is
    int64 when no product or scaled row can overflow it, object (Python
    ints) otherwise.
    """

    rows: np.ndarray
    scale: int
    support: np.ndarray
    weights: np.ndarray
    compose: np.ndarray

    @property
    def width(self) -> int:
        """Entries of the largest temporary one product needs."""
        return max(self.support.shape[1] ** 2, self.rows.shape[1] + 1)

    def at(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """The support and weights rows of pi at the element indices idx."""
        return self.support[idx], self.weights[idx]

    def products(self, left, right) -> np.ndarray:
        """Integer rows of l r, one per row of the factors (support, weights).

        Factors are padded as ``support`` and ``weights``, and a support of
        one row serves every row; on ``at(a)`` and ``at(b)`` the rows are
        scale^2 pi(a) pi(b).
        """
        (lsup, lw), (rsup, rw) = left, right
        arrows = self.rows.shape[1]
        terms = lw[:, :, None] * rw[:, None, :]
        count = len(terms)
        target = self.compose[lsup[:, :, None], rsup[:, None, :]]
        target += np.arange(0, count * (arrows + 1), arrows + 1)[:, None, None]
        out = np.zeros(count * (arrows + 1), dtype=terms.dtype)
        np.add.at(out, target.ravel(), terms.ravel())
        return out.reshape(count, arrows + 1)[:, :arrows]


def _coefficient_matrix(
    values: Sequence[AlgebraElement], G: FiniteGroupoid
) -> _CoefficientMatrix:
    """Scale pi by the LCM of its denominators into integer rows."""
    arrows = len(G.arrows)
    scale = lcm(*(c.denominator for v in values for c in v.coeffs.values()))
    entries = [
        (s, r, a, c) for s, v in enumerate(values) for r, (a, c) in enumerate(v.coeffs.items())
    ]
    elements, ranks, columns, coeffs = map(list, zip(*entries)) if entries else ([],) * 4
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    k = max([len(v.coeffs) for v in values] + [1])
    big = max(map(abs, ints), default=0)
    # a product slot sums at most k * k terms of at most big * big each
    dtype = np.int64 if max(k * k * big * big, scale * big) < 1 << 63 else object
    rows = np.zeros((len(values), arrows), dtype=dtype)
    support = np.full((len(values), k), arrows, dtype=np.intp)
    weights = np.zeros((len(values), k), dtype=dtype)
    entries = np.array(ints, dtype=dtype)
    rows[elements, columns] = entries
    support[elements, ranks] = columns
    weights[elements, ranks] = entries
    compose = np.full((arrows + 1, arrows + 1), arrows, dtype=np.intp)
    compose[:arrows, :arrows] = np.where(G.compose < 0, arrows, G.compose)
    return _CoefficientMatrix(rows, scale, support, weights, compose)


def _first_mismatch(count: int, width: int, differs) -> int | None:
    """Least i < count at which differs(indices) is True, in blocks of indices."""
    # a block of products holds about five temporaries: a quarter of a table block
    for block in row_blocks(count, 4 * width):
        bad = np.flatnonzero(differs(np.arange(block.start, block.stop)))
        if bad.size:
            return block.start + int(bad[0])
    return None


def _minimal_sum_is_unit(pm: _CoefficientMatrix, E: Semilattice, units: Sequence[int]) -> bool:
    """Whether the pi(a) at the minimal nonzero idempotents a sum to the unit.

    Scaled, their rows must sum to scale times the indicator of the units.
    The sum adds |Min| rows of entries at most big and subtracts scale, so
    it stays int64 while |Min| big + scale < 2^63, Python ints past it.
    """
    nonzero = E.nonzero_mask
    minimal = [e for e, down in zip(E.carrier, E.down_masks) if (down & nonzero).bit_count() == 1]
    support, weights = pm.at(np.array(minimal, dtype=np.intp))
    big = int(abs(weights).max(initial=0))
    if weights.dtype != object and len(minimal) * big + pm.scale >= 1 << 63:
        weights = weights.astype(object)
    whole = np.zeros(pm.rows.shape[1] + 1, dtype=weights.dtype)
    np.add.at(whole, support.ravel(), weights.ravel())
    whole[list(units)] -= pm.scale
    return not np.count_nonzero(whole[:-1])


def _atom_characters(pm: _CoefficientMatrix, E: Semilattice, units: Sequence[int]) -> list[int]:
    """Position masks of the atoms of the Boolean algebra the pi(e) generate.

    The pi(e) must be commuting idempotents.  The unit is refined by each
    pi(e) in turn, an atom a splitting into a pi(e) and a - a pi(e) when
    both are nonzero; nonzero orthogonal idempotents are linearly
    independent, so at most one atom per arrow.  The atoms are the k rows
    of X over D = scale^j after j splits: a split by the row P of pi(e)
    scales X, and replaces each row x that splits by x P and a new row
    scale x - x P.  One kernel product multiplies each row by each P it
    meets over a run of positions, k x arrows x run <= _BLOCK, and the
    run ends at its first split.  Entries are int64 while a bound on max|X|
    (sum |P| + scale) stays below 2^63, Python ints past it.  Atom k's
    mask holds the e with atom_k <= pi(e); scale (sum of the rows below e)
    = D rows[e] is certified, and the masks come in refinement order.
    """
    arrows, m, carrier = pm.rows.shape[1], len(E), list(E.carrier)
    supports, weights = pm.at(carrier)
    composable = (pm.compose[:arrows, supports] < arrows).any(axis=2)
    spread = (abs(weights).sum(axis=1) + pm.scale).tolist()
    X = np.zeros((arrows, arrows), dtype=pm.rows.dtype)
    below = np.zeros((arrows, m), dtype=bool)
    k = min(len(units), 1)
    X[:k, list(units)] = 1
    p, big, denominator = 0, 1, 1
    while p < m:
        end = min(m, p + max(1, _BLOCK // max(k * arrows, 1)))
        if X.dtype != object and big * max(spread[p:end]) >= 1 << 63:
            X = X.astype(object)
        meets = composable[:, p:end].any(axis=1)
        rows, positions = ((X[:k, meets] != 0) @ composable[meets, p:end]).nonzero()
        positions += p
        right = supports[positions], weights[positions]
        inside = pm.products((np.arange(arrows)[None], X[rows]), right)
        rest = pm.scale * X[rows] - inside
        kept = np.logical_or.reduce(inside != 0, axis=1)
        both = kept & np.logical_or.reduce(rest != 0, axis=1)
        p = int(positions[both].min()) if both.any() else end
        settled, split = positions <= p, both & (positions == p)
        below[rows[settled], positions[settled]] = kept[settled]
        if split.any():
            rows, new = rows[split], k + int(np.count_nonzero(split))
            X[:k] *= pm.scale
            X[rows], X[k:new] = inside[split], rest[split]
            below[k:new] = below[rows]
            below[k:new, p] = False
            big = max(big * pm.scale, int(abs(inside[split]).max()), int(abs(rest[split]).max()))
            k, p, denominator = new, p + 1, denominator * pm.scale
    X, below, images = X[:k], below[:k], pm.rows[carrier]
    if max(k * big * pm.scale, denominator * int(abs(images).max(initial=1))) >= 1 << 63:
        X, images = X.astype(object), images.astype(object)

    def sum_differs(idx: np.ndarray) -> np.ndarray:
        atoms, positions = below[:, idx].nonzero()
        sums = np.zeros((len(idx), arrows), dtype=X.dtype)
        np.add.at(sums, positions, X[atoms])
        return (pm.scale * sums != denominator * images[idx]).any(axis=1)

    bad = _first_mismatch(m, arrows, sum_differs)
    if bad is not None:
        e = E.semigroup.elements[carrier[bad]]
        raise CheckFailed(f"pi({e}) is not the sum of the atoms below it")
    # refinement order puts the part under pi(e) first: bits from position 0 up, set first
    return list(row_masks(below[np.lexsort(~below[:, ::-1].T)]))


def _cover_sup_walk(
    E: Semilattice, atom_masks: Sequence[int], covers_of
) -> tuple[int, int, list[tuple[int | None, int, int]]]:
    """Instances, covers and the violated (x, Y, Z) of the cover-sup identity.

    An instance is X (nothing or one position) with an antichain Y of
    nonzero positions, and contributes the covers Z of the nonzero part of
    E^{X,Y}.  Written as sets of atoms, pi(x) prod (1 - pi(y)) is
    A_x & ~(A_y1 | ...) and the join over Z is A_z1 | ..., so the identity
    compares ints.  Y grows by its lowest available candidate, memoized
    on (available candidates, E^{X,Y}, atoms of pi(x) prod (1 - pi(y)));
    a state's violations are relative to it, and its parent prefixes its
    own candidate, which keeps them in depth-first order.  Past
    MAX_REP_STATES states, or Python's stack limit (antichains or covers
    of about a thousand members), it raises BoundExceeded.
    """
    m, k = len(E), len(atom_masks)
    shift, atoms = m + k, (1 << k) - 1
    below = [mask_of(a for a, mask in enumerate(atom_masks) if mask >> p & 1) for p in range(m)]
    # a state is the atoms above the m bits of E^{X,Y}; choosing y in Y
    # leaves rest & apart available and takes the state to state & keep
    down, up, orth = E.down_masks, E.up_masks, E.orth_masks
    nonzero = E.nonzero_mask
    steps = {
        p: (~(down[p] | up[p]), (atoms & ~below[p]) << m | orth[p]) for p in iter_bits(nonzero)
    }
    joins: dict[int, int] = {0: 0}

    def join(zmask: int) -> int:
        got = joins.get(zmask)
        if got is None:
            low = zmask & -zmask
            got = joins[zmask] = below[low.bit_length() - 1] | join(zmask ^ low)
        return got

    memo: dict[int, tuple[int, int, Sequence[tuple[int, int]]]] = {}

    def expand(avail: int, state: int) -> tuple[int, int, Sequence[tuple[int, int]]]:
        """Walk and memoize a state not in the memo; callers read hits themselves."""
        covers = covers_of(state & nonzero)
        instances, total = 1, len(covers)
        bad = [(0, z) for z in covers if join(z) != state >> m]
        rest = avail
        while rest:
            low = rest & -rest
            rest ^= low
            apart, keep = steps[low.bit_length() - 1]
            a, s = rest & apart, state & keep
            i, c, sub = memo.get(a << shift | s) or expand(a, s)
            instances += i
            total += c
            if sub:
                bad += [(y | low, z) for y, z in sub]
        if len(memo) >= MAX_REP_STATES:
            raise BoundExceeded(f"the cover-sup count passed {MAX_REP_STATES} memoized states")
        got = memo[avail << shift | state] = (instances, total, bad)
        return got

    roots = [(None, atoms << m | E.full_mask)]
    roots += [(x, below[x] << m | down[x]) for x in range(m)]
    instances = covers = 0
    violations: list[tuple[int | None, int, int]] = []
    try:
        for x, state in roots:
            i, c, bad = memo.get(nonzero << shift | state) or expand(nonzero, state)
            instances += i
            covers += c
            violations += [(x, y, z) for y, z in bad]
    except RecursionError:
        raise BoundExceeded("the cover-sup count recursed past the stack limit") from None
    return instances, covers, violations


def _block_count(E: Semilattice, covers_of, block: int) -> tuple[int, int, int]:
    """Antichains of an orthogonal block B, with the covers for no X and for each X in B.

    One walk over the antichains Y of B, memoized on (available candidates,
    O) with O the members of B orthogonal to all of Y.  Each node adds
    its antichain, the covers of O for the root with no X, and h(O), the
    sum over x in B of the covers of down(x) & O, for the roots X = x.
    The node with nothing available, O's leaf, holds exactly those terms
    of O, so h(O) is memoized with it.  A state keeps its three sums as
    one int, in fields of 2|B| + 1 bits: B has at most 2^|B| antichains
    and each O at most 2^|B| covers, so no sum carries into the next
    field.  Past MAX_REP_STATES memoized states it raises BoundExceeded.
    """
    m, down, width = len(E), E.down_masks, 2 * block.bit_count() + 1
    steps = {1 << p: (~(down[p] | E.up_masks[p]), E.orth_masks[p]) for p in iter_bits(block)}
    memo: dict[int, int] = {}
    get = memo.get

    def walk(avail: int, inside: int) -> int:
        """Walk and memoize a state not in the memo; callers read hits themselves."""
        if avail:
            sums = get(inside) or walk(0, inside)
            rest = avail
            while rest:
                low = rest & -rest
                rest ^= low
                apart, keep = steps[low]
                a, o = rest & apart, inside & keep
                sums += get(a << m | o) or walk(a, o)
        else:
            h = sum(len(covers_of(down[x] & inside)) for x in iter_bits(block))
            sums = 1 | len(covers_of(inside)) << width | h << 2 * width
        if len(memo) >= MAX_REP_STATES:
            raise BoundExceeded(f"the cover-sup count passed {MAX_REP_STATES} memoized states")
        memo[avail << m | inside] = sums
        return sums

    sums, field = walk(block, block), (1 << width) - 1
    return sums & field, sums >> width & field, sums >> 2 * width


def _cover_sup_count(E: Semilattice, covers_of) -> tuple[int, int]:
    """The cover-sup counts as products over blocks (see check_tight_representation).

    Each block is one walk (_block_count); past Python's stack limit
    (antichains or covers of about a thousand members) it raises
    BoundExceeded.
    """
    antichains, none, sums, rest = 1, 1, [], E.nonzero_mask
    while rest:
        block, todo = 0, rest & -rest
        while todo:
            low = todo & -todo
            block |= low
            todo = (todo | E.intersect_masks[low.bit_length() - 1]) & ~block
        rest &= ~block
        try:
            a, c, h = _block_count(E, covers_of, block)
        except RecursionError:
            raise BoundExceeded("the cover-sup count recursed past the stack limit") from None
        none *= c
        sums.append((a, h))
        antichains *= a
    covers = none + antichains + sum(h * (antichains // a) for a, h in sums)
    return (len(E) + 1) * antichains, covers


def _instances_within_bound(instances: int) -> None:
    """Raise BoundExceeded when the cover-sup listing is past MAX_REP_INSTANCES."""
    if instances > MAX_REP_INSTANCES:
        raise BoundExceeded(
            f"the cover-sup enumeration has {instances} instances, past {MAX_REP_INSTANCES}"
        )


@dataclass
class TightRepresentationReport:
    """Representation laws plus the cover-sup identity, with witnesses."""

    multiplicativity: bool
    star_compatible: bool
    zero_preserved: bool
    tightness_witnesses: list[tuple[str | None, tuple[str, ...], tuple[str, ...]]]
    instances_checked: int = 0
    covers_checked: int = 0
    failure_witness: str | None = None

    @property
    def passed(self) -> bool:
        laws = self.multiplicativity and self.star_compatible and self.zero_preserved
        return laws and not self.tightness_witnesses

    def lines(self) -> list[str]:
        out = [
            f"multiplicativity: {'pass' if self.multiplicativity else 'fail'}",
            f"star: {'pass' if self.star_compatible else 'fail'}",
            f"zero: {'pass' if self.zero_preserved else 'fail'}",
            f"tightness: {'pass' if not self.tightness_witnesses else 'fail'}"
            f" (instances={self.instances_checked} covers={self.covers_checked})",
        ]
        for x, ys, zs in self.tightness_witnesses:
            out.append(f"  violated at X={{{x or ''}}} Y={{{','.join(ys)}}} Z={{{','.join(zs)}}}")
        if self.failure_witness:
            out.append(f"  witness: {self.failure_witness}")
        return out

    def require(self) -> None:
        if not self.passed:
            raise CheckFailed(self.failure_witness or "representation check failed")


def check_tight_representation(
    pi: Mapping[int, AlgebraElement] | Sequence[AlgebraElement],
    S: FiniteInverseSemigroup,
    audit_covers: bool = False,
) -> TightRepresentationReport:
    """Verify that pi is a tight representation of S.

    pi maps every element index to an element of the convolution algebra
    of one groupoid, whose unit serves as the adjoined unit.

    Every check runs on pi scaled by the LCM of its denominators into
    integer rows.  The representation laws come first: multiplicativity,
    star-compatibility and pi(0) = 0, each reporting its first row-major
    witness.  The a with pi(ab) = pi(a) pi(b) for all b are closed under
    products, so multiplicativity is decided on the rows of
    ``ranked_generators``; only a failure scans all pairs, for its
    witness.  Images of idempotents must be commuting idempotents, which a
    multiplicative pi gives, so only a failed multiplicativity checks them
    (a violation raises CheckFailed: the identity is not well posed then).

    The identity has X reduced to one idempotent or nothing, Y running
    over antichains of nonzero idempotents, and Z over minimal covers of
    E^{X,Y}: multiplicativity collapses the general X and Y to these, and
    monotonicity of the projection join does the same for non-minimal
    covers.  ``audit_covers`` adds every cover of at most
    AUDIT_COVER_SIZE members.  The verdict does not enumerate these
    instances.  The pi(e) split the unit into the atoms of the Boolean
    algebra they generate (_atom_characters), and pi is tight iff every
    atom character e -> [atom <= pi(e)] is tight (Exel, *Inverse
    semigroups and combinatorial C*-algebras*, arXiv:math/0703182,
    sections 11-12; Donsig and Milan, *Joins and covers in inverse
    semigroups and tight C*-algebras*, Bull. Aust. Math. Soc. 2014), that
    is, a point of ``tight_spectrum(E)``: up(a) for a minimal nonzero a.

    For multiplicative pi with pi(0) = 0 that verdict is one identity: the
    pi(a) at the minimal nonzero idempotents a sum to the unit
    (_minimal_sum_is_unit; the README proves it).  Only a failing
    identity, a failed law or ``audit_covers`` refines the unit into
    atoms; atoms that reach the other verdict on such a pi raise
    CheckFailed, a bug trap.

    The counters multiply over the orthogonal blocks of nonzero
    idempotents (_cover_sup_count; the README proves it).  Only a failing
    verdict or ``audit_covers`` walks all of E with the atom masks, from
    each root in turn, to list every violated instance and count the
    audited covers, which do not multiply; past MAX_REP_INSTANCES
    instances it raises BoundExceeded.
    """
    values = []
    for s, element in enumerate(S.elements):
        try:
            values.append(pi[s])
        except (KeyError, IndexError):
            raise ValueError(f"pi has no image of element {element}") from None
        if not isinstance(values[-1], AlgebraElement):
            raise ValueError(f"pi({element}) is not an AlgebraElement")
    G = values[S.zero].groupoid
    if any(v.groupoid is not G for v in values):
        raise ValidationError("operands live over different groupoids")
    E = idempotent_semilattice(S)
    # E's masks, and the count that reads them, wait for the laws, unless an
    # audit is to learn first that its listing is past the bound
    minimal = cache(lambda fplus: _minimal_covers(E.intersect_masks, fplus))
    if audit_covers:
        instances, covers = _cover_sup_count(E, minimal)
        _instances_within_bound(instances)
    pm, n, name = _coefficient_matrix(values, G), len(S), S.elements

    def product_differs(idx: np.ndarray) -> np.ndarray:
        a, b = np.divmod(idx, n)
        expected = pm.scale * pm.rows[S.table[a, b]]
        return (pm.products(pm.at(a), pm.at(b)) != expected).any(axis=1)

    left = np.fromiter(ranked_generators(S.table), np.intp)

    def left_differs(idx: np.ndarray) -> np.ndarray:
        return product_differs(left[idx // n] * n + idx % n)

    witness = None
    mult_ok = _first_mismatch(len(left) * n, pm.width, left_differs) is None
    if not mult_ok:
        a, b = divmod(_first_mismatch(n * n, pm.width, product_differs), n)
        witness = f"pi({name[a]} {name[b]}) != pi({name[a]}) pi({name[b]})"
    star, inverse = np.array(S.star, dtype=np.intp), np.array(G.inverse, dtype=np.intp)
    bad = _first_mismatch(
        n, len(G.arrows), lambda idx: (pm.rows[star[idx]] != pm.rows[idx][:, inverse]).any(axis=1)
    )
    star_ok = bad is None
    if not star_ok:
        witness = witness or f"pi({name[bad]}*) != pi({name[bad]})*"
    zero_ok = not np.count_nonzero(pm.rows[S.zero])
    if not zero_ok:
        witness = witness or "pi(0) != 0"

    if not mult_ok:
        m, carrier = len(E), np.array(E.carrier, dtype=np.intp)

        def commutator_differs(idx: np.ndarray) -> np.ndarray:
            e, f = carrier[idx // m], carrier[idx % m]
            return (pm.products(pm.at(e), pm.at(f)) != pm.products(pm.at(f), pm.at(e))).any(axis=1)

        # as e e = e, pi(e) is idempotent iff pi is multiplicative at (e, e)
        bad = _first_mismatch(m, pm.width, lambda idx: product_differs(carrier[idx] * (n + 1)))
        if bad is not None:
            raise CheckFailed(f"pi({name[carrier[bad]]}) is not idempotent")
        bad = _first_mismatch(m * m, pm.width, commutator_differs)
        if bad is not None:
            e, f = carrier[bad // m], carrier[bad % m]
            raise CheckFailed(f"pi({name[e]}) and pi({name[f]}) do not commute")

    lawful = mult_ok and zero_ok
    tight = lawful and _minimal_sum_is_unit(pm, E, G.units)
    if audit_covers or not tight:
        atom_masks = _atom_characters(pm, E, G.units)
        points = tight_spectrum(E).point_index
        atoms_tight = all(mask in points for mask in atom_masks)
        if lawful and atoms_tight != tight:
            raise CheckFailed("the minimal idempotents and the atom characters disagree on tightness")
        tight = atoms_tight

    covers_of = minimal
    if audit_covers:
        audit = partial(_all_covers_upto, E.intersect_masks, max_size=AUDIT_COVER_SIZE)
        covers_of = cache(lambda fplus: tuple(sorted({*minimal(fplus), *audit(fplus)})))
    else:
        instances, covers = _cover_sup_count(E, minimal)

    witnesses: list[tuple[str | None, tuple[str, ...], tuple[str, ...]]] = []
    if audit_covers or not tight:
        _instances_within_bound(instances)

        def names_of(mask: int) -> tuple[str, ...]:
            return tuple(name[E.carrier[p]] for p in iter_bits(mask))

        _, covers, violations = _cover_sup_walk(E, atom_masks, covers_of)
        for x, y_mask, zmask in violations:
            x_name = None if x is None else name[E.carrier[x]]
            witnesses.append((x_name, names_of(y_mask), names_of(zmask)))

    if witnesses and witness is None:
        x, ys, zs = witnesses[0]
        witness = f"cover-sup identity fails at X={{{x or ''}}} Y={{{','.join(ys)}}}"
    return TightRepresentationReport(
        mult_ok, star_ok, zero_ok, witnesses, instances, covers, witness
    )
