"""The point-to-character correspondence and the round trip.

A finite Hausdorff space is discrete, so a compact-open basis closed under
intersection that generates the topology must contain every singleton;
PointBasisSpace bakes that in.  The reconstruction itself consumes nothing
but an abstract multiplication table; the hidden audit produced alongside
the table is touched only by canonical_iso_of_run, after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .bitsets import iter_bits, mask_of
from .errors import BoundExceeded, CheckFailed, ValidationError
from .germs import GermGroupoidModel, build_germ_model
from .groupoids import BisectionSemigroup, FiniteGroupoid, TableAudit, abstract_table
from .semigroups import FiniteInverseSemigroup, integers, row_blocks

# Most closed families enumerate_point_bases generates: 1,405,050 on five points.
MAX_BASIS_FAMILIES = 1 << 21
# Most entries stone_check's (m, m, max(m, n)) temporaries may hold for one basis.
MAX_BASIS_ENTRIES = 1 << 21
# Most assignments brute_force_iso tries before it gives up.
MAX_ISO_NODES = 1_000_000


# -- point/basis spaces --------------------------------------------------------


@dataclass(frozen=True)
class PointBasisSpace:
    """A finite set of points with an intersection-closed basis of subsets.

    The basis must contain the empty set and every singleton; members are
    stored as int masks over point indices, ordered by size, then by their
    sorted members.
    """

    points: tuple[str, ...]
    basis: tuple[int, ...]


def _basis_order(mask: int) -> tuple[int, list[int]]:
    return mask.bit_count(), list(iter_bits(mask))


def point_basis_space(
    points: Iterable[str], sets: Iterable[Iterable[int]]
) -> PointBasisSpace:
    pts = tuple(str(p) for p in points)
    members = [integers(s, "point index") for s in sets]
    for s in members:
        for i in s:
            if not 0 <= i < len(pts):
                raise ValidationError(f"basis member mentions unknown point {i}")
    ordered = tuple(sorted({mask_of(s) for s in members}, key=_basis_order))
    family = set(ordered)
    if 0 not in family:
        raise ValidationError("basis must contain the empty set")
    for i in range(len(pts)):
        if 1 << i not in family:
            raise ValidationError(f"basis must contain the singleton of {pts[i]}")
    _require_closed(ordered)
    return PointBasisSpace(pts, ordered)


def _require_closed(sets: tuple[int, ...]) -> None:
    """ValidationError at the first pair, in basis order, whose intersection is missing."""
    family = set(sets)
    for a in sets:
        for b in sets:
            if a & b not in family:
                raise ValidationError(
                    "basis not closed under intersection at"
                    f" {list(iter_bits(a))} and {list(iter_bits(b))}"
                )


def _set_name(mask: int) -> str:
    if not mask:
        return "0"
    return "U" + ".".join(map(str, iter_bits(mask)))


@dataclass
class StoneReport:
    """Outcome of the point/spectrum comparison for one space."""

    point_count: int
    basis_count: int
    spectrum_size: int
    injective: bool
    surjective: bool
    basic_sets_match: bool
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.injective and self.surjective and self.basic_sets_match

    def require(self) -> None:
        if not self.passed:
            raise CheckFailed(self.witness or "stone check failed")


def _intersection_tables(masks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (B, m, m) positions of a & b within each basis of a (B, m) stack on n points.

    The second result says, per basis, whether every a & b equals exactly
    one member: the family is intersection-closed and lists no set twice.
    Where it does not, the positions are meaningless.  Each a & b is one
    lookup in a (B, 2^n) table of positions, B m^2 work.  Where that table
    would be larger than the m^3 cube of comparisons (many points, or
    masks past 62 points), a & b is compared with every member instead.
    """
    B, m = masks.shape
    meets = masks[:, :, None] & masks[:, None, :]
    # m^3 <= MAX_BASIS_ENTRIES, so a position, or -1 for no member, fits an int8
    if 1 << n > m**3:
        equal = meets[..., None] == masks[:, None, None, :]
        return equal.argmax(axis=3).astype(np.int8), (equal.sum(axis=3) == 1).all(axis=(1, 2))
    at = np.arange(B)[:, None] << n
    position = np.full(B << n, -1, dtype=np.int8)
    position[at + masks] = np.arange(m)  # a set listed twice keeps one of its positions
    t = position[at[:, :, None] + meets]
    listed_once = (position[at + masks] == np.arange(m)).all(axis=1)
    return t, listed_once & (t >= 0).all(axis=(1, 2))


def _row_codes(bits: np.ndarray) -> np.ndarray:
    """Each row of a bool array (its last axis) packed into 64-bit words.

    Two rows are equal iff their codes are equal in every word; a row of
    m bits takes ceil(m / 64) words, so any m packs.
    """
    packed = np.packbits(bits, axis=-1)
    words = np.zeros((*packed.shape[:-1], -(-packed.shape[-1] // 8) * 8), dtype=np.uint8)
    words[..., : packed.shape[-1]] = packed
    return words.view(np.uint64)


def stone_laws(
    t: np.ndarray, member: np.ndarray
) -> tuple[dict[str, np.ndarray], tuple[np.ndarray, ...]]:
    """Every law the stone check certifies, over a stack of B tables.

    ``t[b]`` is an m x m table on positions 0..m-1 and ``member[b, p, x]``
    says whether point x lies in member p of basis b.  The laws map each
    check on the table as an inverse semigroup, on its semilattice, on its
    tight spectrum and on the point characters to whether it holds, per
    basis, in that order.  Associativity compares the (B, m, m, m) cube of
    bracketings, and the inverse law reads sus and usu off it; "distinct
    filters" and "characters tight" compare up-sets and point characters
    as one packed code per row (_row_codes), so no other law builds a
    cube.  The verdicts are, per basis, the spectrum size, injective,
    surjective and the first member p whose image differs from its basic
    set (-1 when none does); they mean something only where every law
    holds.
    """
    B, m, _ = t.shape
    bb = np.arange(B)[:, None, None]
    every = np.arange(m)
    t_swapped = t.transpose(0, 2, 1)
    # left[b, x, a, y] = (xa)y; where t is symmetric (its own law), x(ay) = (ay)x
    left = np.take(t.reshape(B * m, m), t + bb * m, axis=0)
    associative = (left == left.transpose(0, 3, 1, 2)).all(axis=(1, 2, 3))
    # u is an inverse of s when sus = s and usu = u, indexed [b, s, u]; both
    # are read off the cube, sus[b, u, s] = left[b, s, u, s]
    sus = left.diagonal(axis1=1, axis2=3)
    inverses = (sus.transpose(0, 2, 1) == every[:, None]) & (sus == every)
    up = t == every[:, None]  # up[b, p, q]: pq = p, so p <= q
    down = t == every  # down[b, p, q]: pq = q, so q <= p
    absorbing = up.all(axis=2) & down.all(axis=1)
    nonzero = every != absorbing.argmax(axis=1)[:, None]
    ups = _row_codes(up)
    twins = (ups[:, :, None] == ups[:, None]).all(axis=3) & nonzero[:, :, None] & nonzero[:, None]
    # the atom rule of find_tightness_violation: nothing but p and zero below p
    tight = nonzero & ((down & nonzero[:, None]) == np.eye(m, dtype=bool)).all(axis=2)
    ultra = np.count_nonzero(down, axis=2) == 2
    # match[b, x, q]: the character of point x is the tight up-set of q
    characters = _row_codes(member.transpose(0, 2, 1))
    match = tight[:, None] & (characters[:, :, None] == ups[:, None]).all(axis=3)
    laws = {
        "associative": associative,
        "one inverse": (np.count_nonzero(inverses, axis=2) == 1).all(axis=1),
        "absorbing zero": absorbing.any(axis=1),
        "idempotent": (t.diagonal(axis1=1, axis2=2) == every).all(axis=1),
        "symmetric": (t == t_swapped).all(axis=(1, 2)),
        "distinct filters": ~(twins & ~np.eye(m, dtype=bool)).any(axis=(1, 2)),
        "tight are ultra": (tight == ultra).all(axis=1),
        "characters tight": (np.count_nonzero(match, axis=2) == 1).all(axis=1),
    }
    hit = match.any(axis=1)
    # image[b, p, q]: some point of member p goes to q; D_p holds the tight q <= p
    image = member @ match
    differs = (image != (tight[:, None] & up.transpose(0, 2, 1))).any(axis=2)
    verdicts = (
        np.count_nonzero(tight, axis=1),
        np.count_nonzero(hit, axis=1) == member.shape[2],
        (hit == tight).all(axis=1),
        np.where(differs.any(axis=1), differs.argmax(axis=1), -1),
    )
    return laws, verdicts


def stone_check(spaces: Iterable[PointBasisSpace]) -> list[StoneReport]:
    """Compare x -> xi_x against the tight spectrum of each basis, in input order.

    Verifies injectivity, surjectivity onto the tight characters, and that
    the image of each basis member U is exactly D_U.  Bases that share a
    point count n and a size m are checked as one stack of intersection
    tables (_intersection_tables), in chunks whose (B, m, m, max(m, n))
    temporaries hold one-byte entries and stay within the bytes of
    semigroups._BLOCK intp entries, or hold a single basis.  Every law is
    one comparison over a chunk (stone_laws); tight points are read by the
    atom rule that find_tightness_violation proves.  Before any check, a
    basis member that is not an integer raises ValueError, and a basis too
    large for MAX_BASIS_ENTRIES raises BoundExceeded.  Otherwise the first
    bad basis in input order raises: ValidationError for a member that is
    not a set of the points, an empty basis or a missing intersection,
    ValueError for a set listed twice, and CheckFailed for a broken law.
    """
    spaces = list(spaces)
    stacks: dict[tuple[int, int], list[int]] = {}
    failed: dict[int, str | None] = {}  # bad basis -> its first broken law, None if unclosed
    for i, space in enumerate(spaces):
        basis = integers(space.basis, "basis member")  # an int64 stack would truncate 1.5
        n, m = len(space.points), len(basis)
        if m * m * max(m, n) > MAX_BASIS_ENTRIES:
            raise BoundExceeded(
                f"stone check of {m} sets on {n} points would hold {m * m * max(m, n)}"
                f" > {MAX_BASIS_ENTRIES} entries at once"
            )
        if not m or min(basis) < 0 or max(basis) >> n:
            failed[i] = None  # not a family of sets of the points
        else:
            stacks.setdefault((n, m), []).append(i)
    reports: list[StoneReport | None] = [None] * len(spaces)
    for (n, m), where in stacks.items():
        # the cubes hold one-byte entries, eight to one intp entry of a block
        for rows in row_blocks(len(where), -(-m * m * max(m, n) // 8)):
            chunk = where[rows]
            # past 62 points a mask no longer fits an int64
            masks = np.array([spaces[i].basis for i in chunk], dtype=np.int64 if n < 63 else object)
            t, closed = _intersection_tables(masks, n)
            laws, verdicts = stone_laws(t, (masks[:, :, None] >> np.arange(n)) & 1 == 1)
            fine = closed & np.logical_and.reduce(list(laws.values()))
            for k, (i, ok, size, injective, surjective, first) in enumerate(
                zip(chunk, fine.tolist(), *map(np.ndarray.tolist, verdicts))
            ):
                if not ok:
                    broken = [name for name, law in laws.items() if not law[k]]
                    failed[i] = broken[0] if closed[k] else None  # laws are moot unclosed
                    continue
                witness = None
                if not injective:
                    witness = "two points induce the same character"
                elif not surjective:
                    witness = "a tight character comes from no point"
                if first >= 0:
                    basis = spaces[i].basis
                    witness = f"image of {_set_name(basis[first])} differs from its basic set"
                reports[i] = StoneReport(n, m, size, injective, surjective, first < 0, witness)
    if failed:
        i = min(failed)
        basis, n = spaces[i].basis, len(spaces[i].points)
        for s in basis:
            if not 0 <= s < 1 << n:
                raise ValidationError(f"basis member {s} is not a set of {n} points")
        if not basis:
            raise ValidationError("empty element set has no absorbing element")
        _require_closed(basis)
        if failed[i] is None:
            raise ValueError("duplicate element names")
        if failed[i] == "characters tight":
            raise CheckFailed("a point character must be an ultrafilter")
        raise CheckFailed(f"stone law {failed[i]!r} fails on basis {basis}")
    return reports


def enumerate_point_bases(n_points: int) -> Iterator[PointBasisSpace]:
    """Every intersection-closed, singleton-containing basis on n points.

    A basis is fixed by its sets of two or more points, and two of those
    constrain it only when they meet in two or more points.  The sets are
    decided in descending size: choosing one forces its intersections of
    two or more points with the sets already chosen, which are smaller and
    so still undecided, and a forced set is never left out.  So every
    closed family comes out once and nothing else does.  Two-point sets
    force nothing, so each choice of the larger sets stands for every
    choice of its unforced pairs.  The families come in ascending order of
    their pick, the integer whose bit i says whether the i-th set of two or
    more points (by size, then by sorted members) is in; that is the order
    of point_bases_by_definition.  Every family is generated and counted
    when this is called, and once the count passes MAX_BASIS_FAMILIES it
    raises BoundExceeded; the spaces are built one at a time as the
    returned iterator is consumed.
    """
    if n_points < 0:
        raise ValidationError(f"point count {n_points} is negative")
    pairs = (1 << n_points * (n_points - 1) // 2) - 1  # the pairs come first in `larger`

    def guard(count: int) -> None:
        if count > MAX_BASIS_FAMILIES:
            raise BoundExceeded(
                f"basis enumeration on {n_points} points would generate more than"
                f" {MAX_BASIS_FAMILIES} families"
            )

    guard(pairs + 1)  # any set of pairs is closed
    larger = [
        mask_of(c) for k in range(2, n_points + 1) for c in combinations(range(n_points), k)
    ]
    bit = {s: 1 << i for i, s in enumerate(larger)}
    order = larger[pairs.bit_length() :][::-1]
    families: list[tuple[int, int]] = []  # (pick, forced) once every larger set is decided
    count = 0

    def decide(i: int, pick: int, forced: int, chosen: tuple[int, ...]) -> None:
        nonlocal count
        if i == len(order):
            families.append((pick, forced))
            count += 1 << (pairs & ~forced).bit_count()
            guard(count)
            return
        s = order[i]
        if not forced & bit[s]:
            decide(i + 1, pick, forced, chosen)
        for c in chosen:
            meet = s & c
            if meet & (meet - 1):
                forced |= bit[meet]
        decide(i + 1, pick | bit[s], forced, (*chosen, s))

    decide(0, 0, 0, ())
    families.sort()
    names = tuple(f"p{i}" for i in range(n_points))
    fixed = (0, *(1 << i for i in range(n_points)))

    @cache
    def members(pick: int) -> tuple[int, ...]:
        return tuple(s for s in larger if pick & bit[s])

    def spaces() -> Iterator[PointBasisSpace]:
        # the pairs are the low bits of a pick: a family takes its forced pairs
        # and each subset of the others, in ascending order, so the picks ascend
        for pick, forced in families:
            top, free, sub = members(pick), pairs & ~forced, 0
            while True:
                yield PointBasisSpace(names, fixed + members(forced & pairs | sub) + top)
                sub = (sub - free) & free
                if not sub:
                    break

    return spaces()


# -- reconstruction and isomorphism ---------------------------------------------


def reconstruct(T: FiniteInverseSemigroup) -> FiniteGroupoid:
    """The reconstruction deliverable: the germ groupoid of the bare table."""
    return build_germ_model(T).groupoid


@dataclass(frozen=True)
class GroupoidIsomorphism:
    """An arrow bijection intertwining units, d, r, inversion and composition."""

    source: FiniteGroupoid
    target: FiniteGroupoid
    arrow_map: tuple[int, ...]

    __hash__ = None


def check_isomorphism(iso: GroupoidIsomorphism) -> None:
    """Raise CheckFailed with a witness unless the map is an isomorphism."""
    G, H, f = iso.source, iso.target, iso.arrow_map
    if len(f) != len(G.arrows) or len(set(f)) != len(f) or len(f) != len(H.arrows):
        raise CheckFailed(f"map covers {len(set(f))} of {len(H.arrows)} target arrows")
    for a, b in enumerate(f):
        if not 0 <= b < len(H.arrows):
            raise CheckFailed(f"{G.arrows[a]} maps to {b}, not a target arrow index")
    if mask_of(f[u] for u in G.units) != H.units_mask:
        raise CheckFailed("units are not carried onto units")
    for a in range(len(G.arrows)):
        if f[G.d[a]] != H.d[f[a]] or f[G.r[a]] != H.r[f[a]]:
            raise CheckFailed(f"source/range not intertwined at {G.arrows[a]}")
        if f[G.inverse[a]] != H.inverse[f[a]]:
            raise CheckFailed(f"inversion not intertwined at {G.arrows[a]}")
    # f(a) f(b) against f(ab); the trailing -1 keeps non-composable pairs at -1
    at = np.array([*f, -1])
    differs = H.compose[np.ix_(at[:-1], at[:-1])] != at[G.compose]
    if differs.any():
        a, b = divmod(int(differs.argmax()), len(f))
        raise CheckFailed(f"composition not intertwined at {G.arrows[a]} * {G.arrows[b]}")


@dataclass(frozen=True)
class ReconstructionRun:
    """One abstracted table with everything derived from it."""

    groupoid: FiniteGroupoid
    table: FiniteInverseSemigroup
    audit: TableAudit
    model: GermGroupoidModel

    __hash__ = None


def run_reconstruction(bs: BisectionSemigroup, seed: int = 0) -> ReconstructionRun:
    """Abstract the table of ``bs`` under ``seed`` and rebuild its germ groupoid."""
    T, audit = abstract_table(bs, seed=seed)
    return ReconstructionRun(bs.groupoid, T, audit, build_germ_model(T))


def canonical_iso_of_run(run: ReconstructionRun) -> GroupoidIsomorphism:
    """Send the germ of S at xi_x to the unique arrow of S with source x.

    A member's arrow with source x is its bisection masked by the arrows
    with source x.  Raises CheckFailed when class members disagree or the
    resulting map is not an isomorphism; these are bug traps at finite
    scale.
    """
    G = run.groupoid
    model = run.model
    audit = run.audit
    E = model.semilattice
    sources = {u: mask_of(fiber) for u, fiber in G.d_fibers.items()}
    pinned: dict[int, int] = {}  # base point -> its unit, at the point's first arrow
    mapping = []
    for a in range(len(model.groupoid.arrows)):
        point = model.arrow_point[a]
        if point not in pinned:
            inter = G.units_mask
            for p in iter_bits(model.spectrum.points[point]):
                unit_set = audit.bisections[E.carrier[p]]
                if unit_set & ~G.units_mask:
                    raise CheckFailed("idempotent bisections are unit sets")
                inter &= unit_set
            if inter == 0 or inter & (inter - 1):
                raise CheckFailed(
                    f"base character of arrow {model.groupoid.arrows[a]} does not pin a point"
                )
            pinned[point] = inter.bit_length() - 1
        x = pinned[point]
        gammas = set()
        for s in model.arrow_members[a]:
            found = audit.bisections[s] & sources[x]
            if found == 0 or found & (found - 1):
                raise CheckFailed(
                    f"{run.table.elements[s]} has no unique arrow with source {G.arrows[x]}"
                )
            gammas.add(found.bit_length() - 1)
        if len(gammas) != 1:
            raise CheckFailed(
                f"class members of {model.groupoid.arrows[a]} map to different arrows"
            )
        mapping.append(gammas.pop())
    if len(set(mapping)) != len(G.arrows):
        raise CheckFailed(f"germ arrows cover {len(set(mapping))} of {len(G.arrows)} arrows")
    iso = GroupoidIsomorphism(model.groupoid, G, tuple(mapping))
    check_isomorphism(iso)
    return iso


def _signatures(G: FiniteGroupoid) -> dict[int, tuple[int, int, int]]:
    """Each unit's arrows out, arrows in and loops, one bincount each."""
    units, n = list(G.units), len(G.arrows)
    d, r = np.array(G.d, dtype=np.intp), np.array(G.r, dtype=np.intp)
    counts = [np.bincount(v, minlength=n)[units].tolist() for v in (d, r, d[d == r])]
    return dict(zip(units, zip(*counts)))


def brute_force_iso(G1: FiniteGroupoid, G2: FiniteGroupoid) -> GroupoidIsomorphism | None:
    """Independent backtracking search for an isomorphism; None if none exists.

    Units are matched first, each to the free units of G2 in the bucket
    of its signature (arrows out, arrows in, loops), then the other arrows
    fiber by fiber, each to the free non-units of G2 in the bucket of its
    mapped (source, range); a bucket keeps the ascending order of a scan.
    An assignment a -> b is checked against inversion and against a's
    composable partners already mapped, the arrows whose range is d(a) and
    those whose source is r(a), never against whole rows of compose.  So
    it visits the nodes of a scan of every arrow, in the same order, and
    returns the same map; it gives up with BoundExceeded after
    MAX_ISO_NODES assignments, and never consults the canonical map.
    """
    n = len(G1.arrows)
    if n != len(G2.arrows) or len(G1.units) != len(G2.units):
        return None
    sig1, sig2 = _signatures(G1), _signatures(G2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None
    by_signature: dict[tuple[int, int, int], list[int]] = {}
    for u in G2.units:
        by_signature.setdefault(sig2[u], []).append(u)
    by_ends: dict[tuple[int, int], list[int]] = {}
    for b in range(n):
        if not G2.is_unit(b):
            by_ends.setdefault((G2.d[b], G2.r[b]), []).append(b)
    into: dict[int, list[int]] = {}  # unit -> the arrows with that range
    for x in range(n):
        into.setdefault(G1.r[x], []).append(x)
    out_of = G1.d_fibers  # unit -> the arrows with that source
    compose1, compose2 = G1.compose.item, G2.compose.item

    order = list(G1.units) + [a for a in range(n) if not G1.is_unit(a)]
    mapping: dict[int, int] = {}
    used = [False] * n

    def candidates(a: int) -> Iterator[int]:
        # lazy: whenever a level asks for its next candidate, every deeper
        # assignment is undone, so it skips what a list made up front would
        if G1.is_unit(a):
            bucket = by_signature[sig1[a]]
        else:
            bucket = by_ends.get((mapping[G1.d[a]], mapping[G1.r[a]]), [])
        return (b for b in bucket if not used[b])

    def consistent(a: int, b: int) -> bool:
        ia = G1.inverse[a]
        if ia in mapping and mapping[ia] != G2.inverse[b]:
            return False
        # a and b against every mapped partner and themselves, on both sides
        for x in into[G1.d[a]]:  # a * x is defined
            y = b if x == a else mapping.get(x)
            if y is not None:
                c, cc = compose1(a, x), compose2(b, y)
                if cc < 0 or (c in mapping and mapping[c] != cc):
                    return False
        for x in out_of[G1.r[a]]:  # x * a is defined
            y = b if x == a else mapping.get(x)
            if y is not None:
                c, cc = compose1(x, a), compose2(y, b)
                if cc < 0 or (c in mapping and mapping[c] != cc):
                    return False
        return True

    def search() -> bool:
        # levels[i] holds the untried candidates for order[i]: an explicit
        # stack, so a long order cannot overflow Python's recursion limit
        nodes = 0
        levels = [candidates(order[0])] if order else []
        while levels:
            a = order[len(levels) - 1]
            for b in levels[-1]:
                nodes += 1
                if nodes > MAX_ISO_NODES:
                    raise BoundExceeded("isomorphism search exceeded its node budget")
                if consistent(a, b):
                    break
            else:
                levels.pop()
                if levels:
                    used[mapping.pop(order[len(levels) - 1])] = False
                continue
            mapping[a] = b
            used[b] = True
            if len(levels) == len(order):
                return True
            levels.append(candidates(order[len(levels)]))
        return not order

    if not search():
        return None
    arrow_map = tuple(mapping[a] for a in range(n))
    iso = GroupoidIsomorphism(G1, G2, arrow_map)
    check_isomorphism(iso)
    return iso
