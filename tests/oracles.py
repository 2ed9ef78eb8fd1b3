"""Independent brute-force oracles.

Each function here recomputes a quantity straight from its definition,
staying off the code paths it is used to check.
"""

import re
from itertools import combinations, groupby, permutations
from typing import Sequence

import numpy as np

from ample import AlgebraElement, reconstruction, slice_product
from ample.bitsets import iter_bits, mask_of
from ample.convolution import AUDIT_COVER_SIZE, MAX_REP_STATES, TightRepresentationReport
from ample.errors import AmpleError, BoundExceeded, CheckFailed, ParseError, ValidationError
from ample.germs import GermGroupoidModel
from ample.groupoids import FiniteGroupoid, validate_groupoid
from ample.reconstruction import (
    GroupoidIsomorphism,
    StoneReport,
    _require_closed,
    _set_name,
    check_isomorphism,
)
from ample.semigroups import (
    Semilattice,
    adjoin_zero,
    idempotent_semilattice,
    row_blocks,
    validate_inverse_semigroup,
)
from ample.spectrum import tight_spectrum

# Largest carrier the 2^m subset scans below are run on.
EXHAUSTIVE_BOUND = 20


def filters_by_definition(E):
    """Scan every carrier subset against the three filter laws directly."""
    S = E.semigroup
    carrier = E.carrier
    out = []
    for bits in range(1, 1 << len(carrier)):
        members = [carrier[p] for p in range(len(carrier)) if bits >> p & 1]
        if S.zero in members:
            continue
        ok = True
        for e in members:
            for f in members:
                if S.table[e][f] not in members:
                    ok = False
        for e in members:
            for g in carrier:
                if S.table[e][g] == e and g not in members:
                    ok = False
        if ok:
            out.append(bits)
    return out


def meet_pos_by_table(E, p, q):
    """Position of e_p e_q, read from the semigroup's table."""
    return int(E.positions[E.semigroup.table[E.carrier[p], E.carrier[q]]])


def is_character(E, bits):
    """Multiplicative on all of E, vanishing at zero, not identically zero."""
    if bits == 0 or bits >> E.zero_pos & 1:
        return False
    m = len(E)
    for p in range(m):
        vp = bits >> p & 1
        for q in range(m):
            if bits >> meet_pos_by_table(E, p, q) & 1 != (vp & (bits >> q & 1)):
                return False
    return True


def order_masks_by_definition(E):
    """(down_masks, up_masks, orth_masks) from one table lookup per pair."""
    m = len(E)
    down, orth = [], []
    for p in range(m):
        down.append(sum(1 << q for q in range(m) if meet_pos_by_table(E, q, p) == q))
        orth.append(sum(1 << q for q in range(m) if meet_pos_by_table(E, q, p) == E.zero_pos))
    up = [sum(1 << q for q in range(m) if down[q] >> p & 1) for p in range(m)]
    return tuple(down), tuple(up), tuple(orth)


def point_bases_by_definition(n):
    """Every basis on n points, from the powerset of the powerset, as frozensets.

    A family is kept when it holds the empty set and every singleton and
    is closed under intersection, checked over all pairs of members.
    Families come in ascending order as bit patterns over the subsets
    listed by (size, sorted members), and so do the members of each.
    """
    subsets = [frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)]
    required = {frozenset()} | {frozenset([i]) for i in range(n)}
    out = []
    for pick in range(1 << len(subsets)):
        family = [s for i, s in enumerate(subsets) if pick >> i & 1]
        chosen = set(family)
        if required <= chosen and all(a & b in chosen for a in family for b in family):
            out.append(tuple(family))
    return out


def basis_semilattice(space):
    """The basis viewed as a semilattice under intersection.

    Carrier position p is the basis member ``space.basis[p]``.  A directly
    built space whose member is not a set of its points, or whose basis
    is not intersection-closed, raises ValidationError.
    """
    sets = space.basis
    for s in sets:
        if not 0 <= s < 1 << len(space.points):
            raise ValidationError(f"basis member {s} is not a set of {len(space.points)} points")
    _require_closed(sets)
    index = {s: i for i, s in enumerate(sets)}
    table = np.array([index[a & b] for a in sets for b in sets], dtype=np.int32)
    sg = validate_inverse_semigroup(map(_set_name, sets), table.reshape(len(sets), len(sets)))
    E = idempotent_semilattice(sg)
    if E.carrier != tuple(range(len(sets))):
        raise CheckFailed("every basis set must be an idempotent")
    return E


def phi_point(space, spec, x):
    """The character of the basis members through x; certified ultra.

    ``spec`` is the tight spectrum of :func:`basis_semilattice` of the
    space, whose points are certified to be its ultrafilters.
    """
    bits = mask_of(p for p, s in enumerate(space.basis) if s >> x & 1)
    if bits not in spec.point_index:
        raise CheckFailed("a point character must be an ultrafilter")
    return bits


def stone_check_by_definition(space):
    """One basis through basis_semilattice, tight_spectrum and phi_point.

    Compares x -> xi_x against the tight spectrum of the basis: injectivity,
    surjectivity onto the tight characters, and that the image of each
    basis member U is exactly D_U, as masks over the spectrum's point
    indices.  This is the per-basis route that stone_check decides in stacks,
    and it raises its own errors.
    """
    E = basis_semilattice(space)
    spec = tight_spectrum(E)
    point_of = [spec.point_index[phi_point(space, spec, x)] for x in range(len(space.points))]
    hit = mask_of(point_of)
    injective = hit.bit_count() == len(space.points)
    surjective = hit == (1 << len(spec.points)) - 1
    witness = None
    if not injective:
        witness = "two points induce the same character"
    elif not surjective:
        witness = "a tight character comes from no point"
    basic_ok = True
    for p, s in enumerate(space.basis):
        if mask_of(point_of[x] for x in iter_bits(s)) != spec.basic_sets[E.carrier[p]]:
            basic_ok = False
            witness = f"image of {_set_name(s)} differs from its basic set"
            break
    return StoneReport(
        point_count=len(space.points),
        basis_count=len(space.basis),
        spectrum_size=len(spec.points),
        injective=injective,
        surjective=surjective,
        basic_sets_match=basic_ok,
        witness=witness,
    )


def product_of(S, items):
    """Product of a nonempty sequence of elements, left to right."""
    items = list(items)
    acc = items[0]
    for x in items[1:]:
        acc = int(S.table[acc, x])
    return acc


def restricted_ideal(E, below=(), orthogonal_to=()):
    """Ambient idempotents e under all of X and orthogonal to all of Y, ascending.

    An empty X imposes no upper bound.
    """
    t = E.semigroup.table
    zero = E.semigroup.zero
    return tuple(
        e
        for e in E.carrier
        if all(t[e, x] == e for x in below) and all(t[e, y] == zero for y in orthogonal_to)
    )


def is_cover(E, cover, family):
    """Z covers F: Z is inside F and every nonzero f in F meets some z.

    Members of F equal to zero impose no demand; zero meets nothing.
    """
    S = E.semigroup
    family = set(family)
    if not set(cover) <= family:
        return False
    return all(
        any(S.table[f, z] != S.zero for z in cover) for f in family if f != S.zero
    )


def tightness_violation_by_definition(E, bits):
    """Scan every (X, Y) instance of the cover-sup condition literally.

    X is nothing or one position, Y any position mask.  Returns
    (x position or None, Y mask, killed part of E^{X,Y}) at the first
    violation, or None when the character is tight.
    """
    orth_all = [E.full_mask]  # orth_all[Y]: positions orthogonal to all of Y
    for y_mask in range(1, 1 << len(E)):
        low = y_mask & -y_mask
        orth_all.append(orth_all[y_mask ^ low] & E.orth_masks[low.bit_length() - 1])
    isect = E.intersect_masks
    for x in [None, *range(len(E))]:
        base = E.full_mask if x is None else E.down_masks[x]
        x_val = 1 if x is None else bits >> x & 1
        for y_mask, orth in enumerate(orth_all):
            exy = base & orth
            killed = exy & ~bits
            if x_val and not y_mask & bits:
                if all(isect[w] & killed for w in iter_bits(exy & E.nonzero_mask)):
                    return (x, y_mask, killed)
            elif exy & bits:
                # rhs is 0, so the character must vanish on E^{X,Y}
                return (x, y_mask, killed)
    return None


def tightness_violation_by_member_scan(E, bits):
    """Exel's member-by-member test of the filter bits, one member at a time.

    Walks the members x in ascending position order and returns
    (x, 0, down(x) - xi) at the first x whose killed part meets every
    nonzero w <= x, or None when no member has one.
    """
    down = E.down_masks
    isect = E.intersect_masks
    for x in iter_bits(bits):
        killed = down[x] & ~bits
        if all(isect[w] & killed for w in iter_bits(down[x] & E.nonzero_mask)):
            return (x, 0, killed)
    return None


def ultrafilters_by_pairwise_scan(filters):
    """Filters not properly contained in any other, by comparing every pair."""
    return tuple(f for f in filters if not any(g != f and g & f == f for g in filters))


def spectrum_report_by_definition(S):
    """The ``spectrum`` report of S, every line read off its table.

    The idempotents are the e with ee = e, ascending, and e <= f iff ef = e.
    A filter of a finite semilattice is up(e) for its least member e, a
    nonzero idempotent.  The points are up(a) for the atoms a (nothing
    nonzero lies strictly below a), in ascending order of their masks over
    the idempotents' positions; D[e] lists the points whose filter holds e.
    """
    t = S.table.tolist()
    carrier = [e for e in range(len(t)) if t[e][e] == e]
    nonzero = [e for e in carrier if e != S.zero]

    def up(e):
        return mask_of(p for p, f in enumerate(carrier) if t[e][f] == e)

    atoms = [a for a in nonzero if not any(t[f][a] == f != a for f in nonzero)]
    points = sorted(up(a) for a in atoms)
    lines = [
        f"elements: {len(t)}",
        f"idempotents: {len(carrier)}",
        f"filters: {len({up(e) for e in nonzero})}",
        f"ultrafilters: {len(points)}",
        f"tight-points: {len(points)}",
    ]
    for i, bits in enumerate(points):
        members = [S.elements[f] for p, f in enumerate(carrier) if bits >> p & 1]
        lines.append(f"point q{i} = {{{','.join(members)}}}")
    for p, e in enumerate(carrier):
        alive = [f"q{i}" for i, bits in enumerate(points) if bits >> p & 1]
        lines.append(f"D[{S.elements[e]}] = {{{','.join(alive)}}}")
    return lines


def covers_upto_by_definition(isect, fplus, max_size):
    """Every Z inside F+ of at most max_size members meeting each member of F+."""
    members = list(iter_bits(fplus))
    return [
        zmask
        for k in range(min(max_size, len(members)) + 1)
        for zmask in map(mask_of, combinations(members, k))
        if all(isect[f] & zmask for f in members)
    ]


def minimal_covers_by_definition(isect, fplus):
    """Covers of F+ with no cover one member smaller, ascending, by subset scan.

    Covers are closed upwards inside F+, so that is no smaller cover at all.
    """
    covers = set(covers_upto_by_definition(isect, fplus, fplus.bit_count()))
    return tuple(
        sorted(z for z in covers if not any(z & ~(1 << m) in covers for m in iter_bits(z)))
    )


def is_idempotent(S, e):
    return S.table[e][e] == e


def range_mask(G, mask):
    """r(S) as a bitmask of unit arrows."""
    out = 0
    for a in iter_bits(mask):
        out |= 1 << G.r[a]
    return out


def domain_idempotent(S, s):
    """s*s, the idempotent on which s is defined."""
    return int(S.table[S.star[s], s])


def theta_apply(E, s, bits):
    """Push the character through s: result(e) = value at s* e s.

    Defined only when the character is alive at s*s; the result is a
    character alive at ss*.
    """
    S = E.semigroup
    t = S.table
    st = S.star[s]
    ss = domain_idempotent(S, s)
    if not bits >> int(E.positions[ss]) & 1:
        raise ValidationError(
            f"character vanishes at {S.elements[ss]}, the domain of {S.elements[s]}"
        )
    conj = E.positions[t[t[st, list(E.carrier)], s]]  # positions of s* e s
    out = mask_of(p for p, c in enumerate(conj.tolist()) if bits >> c & 1)
    if not out >> int(E.positions[t[s, st]]) & 1:
        raise CheckFailed("image must live at ss*")
    return out


def theta_point(spec, s, point):
    """Index of the image point of the action of s."""
    bits = theta_apply(spec.semilattice, s, spec.points[point])
    return spec.point_index[bits]


def same_germ(E, s1, s2, bits):
    """Some idempotent e with character value 1 has s1 e = s2 e."""
    S = E.semigroup
    for s in (s1, s2):
        if not bits >> int(E.positions[S.table[S.star[s]][s]]) & 1:
            raise ValidationError(f"character vanishes at the domain of {S.elements[s]}")
    return any(
        bits >> p & 1 and S.table[s1][e] == S.table[s2][e] for p, e in enumerate(E.carrier)
    )


def compose_array(n, products):
    """The (n, n) composition array of a {(a, b): ab} dict, -1 elsewhere."""
    out = np.full((n, n), -1, dtype=np.int32)
    for (a, b), c in products.items():
        out[a, b] = c
    return out


def validate_groupoid_by_definition(arrows, units, d, r, compose, inverse):
    """ample.groupoids.validate_groupoid, pair by pair over a dict of products.

    The declared pairs of the composition array are read in row-major
    order; each check then looks products up one pair at a time.
    """
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
    rows = np.asarray(compose).tolist()
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"composition must be {n}x{n}")
    for row in rows:
        for c in row:
            if not -1 <= c < n:
                raise ValueError(f"composition value {c} out of range")

    for u in units_t:
        if d_t[u] != u or r_t[u] != u:
            raise ValidationError(f"unit {names[u]} must have d = r = itself")
    for a in range(n):
        if d_t[a] not in unit_set or r_t[a] not in unit_set:
            raise ValidationError(f"arrow {names[a]} has non-unit source or range")

    comp = {(a, b): c for a, row in enumerate(rows) for b, c in enumerate(row) if c >= 0}
    expected = {(a, b) for a in range(n) for b in range(n) if d_t[a] == r_t[b]}
    declared = set(comp)
    extra = declared - expected
    if extra:
        a, b = min(extra)
        raise ValidationError(
            f"product {names[a]}*{names[b]} declared but d({names[a]}) != r({names[b]})"
        )
    missing = expected - declared
    if missing:
        a, b = min(missing)
        raise ValidationError(
            f"composable pair {names[a]}*{names[b]} has no declared product"
        )
    for (a, b), c in comp.items():
        if d_t[c] != d_t[b] or r_t[c] != r_t[a]:
            raise ValidationError(
                f"product {names[a]}*{names[b]} = {names[c]} breaks source/range bookkeeping"
            )

    for a in range(n):
        if comp[(a, d_t[a])] != a or comp[(r_t[a], a)] != a:
            raise ValidationError(f"unit laws fail at arrow {names[a]}")

    for b in range(n):
        lefts = [a for a in range(n) if d_t[a] == r_t[b]]
        rights = [c for c in range(n) if d_t[b] == r_t[c]]
        for a in lefts:
            ab = comp[(a, b)]
            for c in rights:
                if comp[(ab, c)] != comp[(a, comp[(b, c)])]:
                    x, y, z = names[a], names[b], names[c]
                    raise ValidationError(
                        f"associativity fails at ({x}, {y}, {z})", witness=(x, y, z)
                    )

    for a in range(n):
        ia = inv_t[a]
        if inv_t[ia] != a or d_t[ia] != r_t[a] or r_t[ia] != d_t[a]:
            raise ValidationError(f"inverse bookkeeping fails at arrow {names[a]}")
        if comp[(a, ia)] != r_t[a] or comp[(ia, a)] != d_t[a]:
            raise ValidationError(
                f"{names[a]} and {names[ia]} do not compose to the expected units"
            )

    return FiniteGroupoid(names, units_t, d_t, r_t, compose_array(n, comp), inv_t)


def bisections_by_definition(G):
    """Scan every arrow subset, collecting d and r images as lists."""
    out = []
    for mask in range(1 << len(G.arrows)):
        arrows = [a for a in range(len(G.arrows)) if mask >> a & 1]
        ds = [G.d[a] for a in arrows]
        rs = [G.r[a] for a in arrows]
        if len(set(ds)) == len(ds) and len(set(rs)) == len(rs):
            out.append(mask)
    return out


def product_table_by_definition(G, masks):
    """slice_product on every pair of the ascending masks, as masks."""
    ordered = sorted(set(masks))
    return [[slice_product(G, s, t) for t in ordered] for s in ordered]


def associativity_witness_by_definition(table):
    """The first (a, b, c) in row-major order with (ab)c != a(bc), or None."""
    n = len(table)
    for a in range(n):
        row_a = table[a]
        for b in range(n):
            row_ab = table[row_a[b]]
            row_b = table[b]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    return (a, b, c)
    return None


def _generators_ascending(t: np.ndarray) -> list[int]:
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


# The former associativity_witness, whose witness a failing verdict must still return.
def associativity_witness_ascending(t: np.ndarray) -> tuple[int, int, int] | None:
    """A triple (x, a, y) with (xa)y != x(ay), or None when t is associative.

    Light's test (Clifford-Preston, *The Algebraic Theory of Semigroups* I,
    section 1.2): the b with (xb)y = x(by) for all x, y are closed under
    the product, since (x(bc))y = ((xb)c)y = (xb)(cy) = x(b(cy)) =
    x((bc)y).  So checking a generating set A suffices, O(n^2 |A|) work.
    The argument never uses associativity, so A may come from the closure
    of the untrusted table itself.
    """
    gens = _generators_ascending(t)
    for rows in row_blocks(len(t), len(t)):
        block = t[rows]
        for a in gens:
            # (xa)y against x(ay)
            bad = np.take(t, block[:, a], axis=0) != np.take(block, t[a], axis=1)
            if bad.any():
                x, y = divmod(int(bad.argmax()), len(t))
                return (rows.start + x, a, y)
    return None


def closure_by_definition(rows, gens):
    """The set of elements reached from gens by products in rows, one pair at a time."""
    inside = set(gens)
    todo = list(inside)
    while todo:
        a = todo.pop()
        for b in list(inside):
            for c in (rows[a][b], rows[b][a]):
                if c not in inside:
                    inside.add(c)
                    todo.append(c)
    return inside


def left_words_closure_by_definition(rows, gens):
    """The left-bracketed words ((a1 a2) a3)... over gens: gens closed under w -> w g."""
    inside = set(gens)
    todo = list(inside)
    while todo:
        w = todo.pop()
        for g in gens:
            c = rows[w][g]
            if c not in inside:
                inside.add(c)
                todo.append(c)
    return inside


def word_generators_by_definition(rows, order):
    """The greedy set by left-bracketed words: a candidate joins unless it is a word already."""
    gens, words = [], set()
    for g in order:
        if g not in words:
            gens.append(g)
            words = left_words_closure_by_definition(rows, gens)
    return gens


def generalized_inverses_by_definition(rows):
    """For each s, the u with sus = s and usu = u, ascending, one pair at a time."""
    n = len(rows)
    return [
        tuple(u for u in range(n) if rows[rows[s][u]][s] == s and rows[rows[u][s]][u] == u)
        for s in range(n)
    ]


def absorbing_by_definition(rows):
    """Every z with zx = xz = z for all x, ascending, one z at a time."""
    n = len(rows)
    return [z for z in range(n) if all(rows[z][x] == z == rows[x][z] for x in range(n))]


def fold_of_idempotents(rows):
    """The left fold ((e1 e2) e3)... of the idempotents, ascending, or -1 when there are none."""
    z = -1
    for e in idempotents_of_table(rows):
        z = e if z < 0 else rows[z][e]
    return z


def support_conditions_by_definition(rows, z):
    """The three conditions of the support verdict, one triple at a time.

    (i) (xa)y = x(ay) whenever xa != z and ay != z; (ii) (xa)y = z
    whenever xa != z and ay = z; (iii) x(ay) = z whenever xa = z and
    ay != z.
    """
    n = len(rows)
    holds = [True, True, True]
    for x in range(n):
        for a in range(n):
            xa = rows[x][a]
            for y in range(n):
                ay = rows[a][y]
                if xa != z and ay != z:
                    holds[0] &= rows[xa][y] == rows[x][ay]
                elif xa != z:
                    holds[1] &= rows[xa][y] == z
                elif ay != z:
                    holds[2] &= rows[x][ay] == z
    return tuple(holds)


def top_down_order_by_definition(rows):
    """Indices by descending count of row entries other than that fold, ties going to
    non-idempotents first, then by index."""
    z = fold_of_idempotents(rows)
    return sorted(
        range(len(rows)), key=lambda g: (-sum(v != z for v in rows[g]), rows[g][g] == g, g)
    )


def product_blocks_by_definition(rows, z):
    """The blocks of the elements other than z: x, a and xa joined whenever xa != z.

    One pair at a time through a dict of parents; blocks as sorted tuples,
    ascending by their least member.
    """
    parent = {x: x for x in range(len(rows)) if x != z}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x in parent:
        for a in parent:
            if rows[x][a] != z:
                for y in (a, rows[x][a]):
                    rx, ry = root(x), root(y)
                    parent[max(rx, ry)] = min(rx, ry)
    blocks = {}
    for x in parent:
        blocks.setdefault(root(x), []).append(x)
    return sorted(tuple(b) for b in blocks.values())


def idempotents_of_table(rows):
    return [i for i in range(len(rows)) if rows[i][i] == i]


# The former canonical_iso_of_run, whose messages the masked map must keep.
def canonical_map_by_member_loop(run):
    """Send the germ of S at xi_x to the unique arrow of S with source x, member by member.

    Raises CheckFailed when class members disagree or the resulting map
    is not an isomorphism.
    """
    G = run.groupoid
    model = run.model
    audit = run.audit
    E = model.semilattice
    mapping = []
    for a in range(len(model.groupoid.arrows)):
        bits = model.spectrum.points[model.arrow_point[a]]
        inter = G.units_mask
        for p in iter_bits(bits):
            unit_set = audit.bisections[E.carrier[p]]
            if unit_set & ~G.units_mask:
                raise CheckFailed("idempotent bisections are unit sets")
            inter &= unit_set
        if inter == 0 or inter & (inter - 1):
            raise CheckFailed(
                f"base character of arrow {model.groupoid.arrows[a]} does not pin a point"
            )
        x = inter.bit_length() - 1
        gammas = set()
        for s in model.arrow_members[a]:
            found = [g for g in iter_bits(audit.bisections[s]) if G.d[g] == x]
            if len(found) != 1:
                raise CheckFailed(
                    f"{run.table.elements[s]} has no unique arrow with source {G.arrows[x]}"
                )
            gammas.add(found[0])
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


def germ_count_by_pairwise_quotient(S):
    """Count germ classes by the definitional witness relation alone."""
    E = idempotent_semilattice(S)
    spec = tight_spectrum(E)
    total = 0
    for bits in spec.points:
        valid = [
            s
            for s in range(len(S))
            if bits >> int(E.positions[S.table[S.star[s]][s]]) & 1
        ]
        classes = []
        for s in valid:
            for cls in classes:
                if same_germ(E, s, cls[0], bits):
                    cls.append(s)
                    break
            else:
                classes.append([s])
        total += len(classes)
    return total


def germ_model_by_point_loop(S):
    """The germ model built point by point, each class keyed through a dict."""
    E = idempotent_semilattice(S)
    spec = tight_spectrum(E)
    points = spec.points
    least = [E.minimum_of[bits] for bits in points]  # the position of each point's minimum
    minima = [E.carrier[p] for p in least]

    # Germ classes per point, keyed by s * m with m the point's minimum.
    t = S.table
    star = np.array(S.star)
    domain = E.positions[t[star, np.arange(len(S))]]  # position of s*s
    classes: list[tuple[int, int, int, tuple[int, ...]]] = []
    for pi, bits in enumerate(points):
        in_point = np.array([bits >> p & 1 for p in range(len(E))], dtype=bool)
        alive = np.flatnonzero(in_point[domain])
        keys = t[alive, minima[pi]]
        order = np.argsort(keys, kind="stable")
        pairs = zip(keys[order].tolist(), alive[order].tolist())
        for key, group in groupby(pairs, key=lambda pair: pair[0]):
            members = tuple(s for _, s in group)
            classes.append((pi, members[0], key, members))

    unit_classes = [c for c in classes if c[2] == minima[c[0]]]
    other_classes = [c for c in classes if c[2] != minima[c[0]]]
    unit_classes.sort(key=lambda c: c[0])
    other_classes.sort(key=lambda c: (c[0], c[1]))
    ordered = unit_classes + other_classes

    arrow_point = tuple(c[0] for c in ordered)
    arrow_rep = tuple(c[1] for c in ordered)
    arrow_key = tuple(c[2] for c in ordered)
    arrow_members = tuple(c[3] for c in ordered)
    names = tuple(
        f"{S.elements[rep]}@q{pt}" for rep, pt in zip(arrow_rep, arrow_point)
    )

    germ_index = {
        (arrow_point[a], arrow_key[a]): a for a in range(len(ordered))
    }

    # the unit at point p is arrow p, so d and r are the base and target points;
    # intp even when there are no points, so the gathers below stay integer
    reps, point, point_min = (np.array(v, dtype=np.intp) for v in (arrow_rep, arrow_point, minima))
    # theta_s sends up(m) to {e : m <= s*es}, which is up(sms*) since m <= s*s
    image = t[t[reps, point_min[point]], star[reps]]
    if (t[image, t[reps, star[reps]]] != image).any():
        raise CheckFailed("image must live at ss*")
    # point_at[p] indexes the point up(p), or is -1; the last entry serves position -1
    point_at = np.full(len(E) + 1, -1, dtype=np.intp)
    point_at[least] = np.arange(len(points))
    target = point_at[E.positions[image]]
    if (target < 0).any():
        raise CheckFailed("image must be a tight point")
    target_point = tuple(target.tolist())

    left, right = np.nonzero(point[:, None] == target)  # every composable (a, b), row-major
    keys = t[t[reps[left], reps[right]], point_min[point[right]]]
    compose = np.full((len(ordered), len(ordered)), -1, dtype=np.int32)
    compose[left, right] = [
        germ_index[pt_key] for pt_key in zip(point[right].tolist(), keys.tolist())
    ]

    keys = t[star[reps], point_min[target]]
    inverse = [germ_index[pt_key] for pt_key in zip(target_point, keys.tolist())]

    groupoid = validate_groupoid(
        names, range(len(points)), arrow_point, target_point, compose, inverse
    )
    return GermGroupoidModel(
        semigroup=S,
        semilattice=E,
        spectrum=spec,
        groupoid=groupoid,
        arrow_point=arrow_point,
        arrow_rep=arrow_rep,
        arrow_members=arrow_members,
    )


def tables_isomorphic(rows_a, rows_b):
    """Exhaustive permutation search between two small multiplication tables."""
    n = len(rows_a)
    if n != len(rows_b):
        return False
    for perm in permutations(range(n)):
        if all(
            perm[rows_a[i][j]] == rows_b[perm[i]][perm[j]]
            for i in range(n)
            for j in range(n)
        ):
            return True
    return False


def _unit_signature(G, u):
    out = sum(1 for a in range(len(G.arrows)) if G.d[a] == u)
    inc = sum(1 for a in range(len(G.arrows)) if G.r[a] == u)
    loops = sum(1 for a in range(len(G.arrows)) if G.d[a] == u and G.r[a] == u)
    return (out, inc, loops)


def brute_force_iso_by_scan(G1, G2):
    """ample.brute_force_iso, scanning every arrow for candidates and whole
    compose rows for consistency; the same node budget, read at call time."""
    n = len(G1.arrows)
    if n != len(G2.arrows) or len(G1.units) != len(G2.units):
        return None
    sig1 = {u: _unit_signature(G1, u) for u in G1.units}
    sig2 = {u: _unit_signature(G2, u) for u in G2.units}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None

    order = list(G1.units) + [a for a in range(n) if not G1.is_unit(a)]
    mapping = {}
    used = [False] * n

    def candidates(a):
        if G1.is_unit(a):
            return [u for u in G2.units if not used[u] and sig2[u] == sig1[a]]
        du, ru = mapping.get(G1.d[a]), mapping.get(G1.r[a])
        return [
            b
            for b in range(n)
            if not used[b]
            and not G2.is_unit(b)
            and G2.d[b] == du
            and G2.r[b] == ru
        ]

    def consistent(a, b):
        ia = G1.inverse[a]
        if ia in mapping and mapping[ia] != G2.inverse[b]:
            return False
        # a and b against every mapped pair and themselves, on both sides
        pairs = (*mapping.items(), (a, b))
        for one, two in (
            (G1.compose[a].tolist(), G2.compose[b].tolist()),
            (G1.compose[:, a].tolist(), G2.compose[:, b].tolist()),
        ):
            for x, y in pairs:
                c = one[x]
                if c >= 0:
                    cc = two[y]
                    if cc < 0 or (c in mapping and mapping[c] != cc):
                        return False
        return True

    def search():
        nodes = 0
        levels = [iter(candidates(order[0]))] if order else []
        while levels:
            a = order[len(levels) - 1]
            for b in levels[-1]:
                nodes += 1
                if nodes > reconstruction.MAX_ISO_NODES:
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
            levels.append(iter(candidates(order[len(levels)])))
        return not order

    if not search():
        return None
    iso = GroupoidIsomorphism(G1, G2, tuple(mapping[a] for a in range(n)))
    check_isomorphism(iso)
    return iso


# -- the convolution algebra on Fraction coefficients -----------------------------
# check_tight_representation reads pi's coefficients once and works on integer
# rows; these recompute sums, adjoints and the atoms from the Fractions.


def _element(G, coeffs):
    out = AlgebraElement(G)
    out.coeffs = coeffs
    return out


def add(f, g):
    """f + g, dropping the arrows whose coefficients cancel."""
    f._check_same(g)
    out = dict(f.coeffs)
    for a, v in g.coeffs.items():
        acc = out.get(a, 0) + v
        if acc:
            out[a] = acc
        else:
            out.pop(a, None)
    return _element(f.groupoid, out)


def neg(f):
    return _element(f.groupoid, {a: -v for a, v in f.coeffs.items()})


def sub(f, g):
    return add(f, neg(g))


def star(f):
    """f*(gamma) = f(gamma^{-1}); coefficients are rational, so no conjugation."""
    return _element(f.groupoid, {f.groupoid.inverse[a]: v for a, v in f.coeffs.items()})


def element_hash(f):
    return hash((id(f.groupoid), frozenset(f.coeffs.items())))


def element_repr(f):
    if not f.coeffs:
        return "AlgebraElement(0)"
    terms = " + ".join(f"{v}*[{f.groupoid.arrows[a]}]" for a, v in sorted(f.coeffs.items()))
    return f"AlgebraElement({terms})"


def atom_characters_by_definition(values, E, unit):
    """Position masks of the atoms the pi(e) generate, by Fraction convolutions.

    The unit is refined by one pi(e) at a time, each atom a splitting into
    a pi(e) and a - a pi(e), in that order, with zero parts dropped.  Atom
    k's mask holds the positions e with atom_k <= pi(e), and pi(e) = sum
    of those atoms is certified for every e.
    """
    S = E.semigroup
    atoms = [(unit, 0)] if unit else []
    for p, e in enumerate(E.carrier):
        split = []
        for atom, mask in atoms:
            inside = atom * values[e]
            if inside:
                split.append((inside, mask | 1 << p))
            if inside != atom:
                split.append((sub(atom, inside), mask))
        atoms = split
    for p, e in enumerate(E.carrier):
        total = AlgebraElement.zero(unit.groupoid)
        for atom, mask in atoms:
            if mask >> p & 1:
                total = add(total, atom)
        if total != values[e]:
            raise CheckFailed(f"pi({S.elements[e]}) is not the sum of the atoms below it")
    return [mask for _, mask in atoms]


def representation_laws_by_definition(pi, S):
    """Multiplicativity, star and zero from one Fraction convolution per pair.

    Returns (multiplicativity, star, zero, first witness) and raises
    CheckFailed, with check_tight_representation's messages, when the
    images of idempotents are not commuting idempotents.
    """
    values = {s: pi[s] for s in range(len(S))}
    mult_ok = True
    star_ok = True
    witness = None
    for a in range(len(S)):
        for b in range(len(S)):
            if values[S.table[a][b]] != values[a] * values[b]:
                mult_ok = False
                witness = f"pi({S.elements[a]} {S.elements[b]}) != pi({S.elements[a]}) pi({S.elements[b]})"
                break
        if not mult_ok:
            break
    for a in range(len(S)):
        if values[S.star[a]] != star(values[a]):
            star_ok = False
            witness = witness or f"pi({S.elements[a]}*) != pi({S.elements[a]})*"
            break
    zero_ok = not values[S.zero]
    if not zero_ok:
        witness = witness or "pi(0) != 0"
    E = idempotent_semilattice(S)
    for e in E.carrier:
        if values[e] * values[e] != values[e]:
            raise CheckFailed(f"pi({S.elements[e]}) is not idempotent")
    for e in E.carrier:
        for f in E.carrier:
            if values[e] * values[f] != values[f] * values[e]:
                raise CheckFailed(
                    f"pi({S.elements[e]}) and pi({S.elements[f]}) do not commute"
                )
    return mult_ok, star_ok, zero_ok, witness


def tight_representation_by_definition(pi, S, audit_covers=False):
    """The whole TightRepresentationReport from a literal scan of every instance.

    X is nothing or one idempotent, Y every antichain of nonzero
    idempotents, Z every minimal cover of E^{X,Y} (plus the covers of at
    most AUDIT_COVER_SIZE members under ``audit_covers``); both sides of
    the identity are built as Fraction convolutions, the join over Z by
    p + q - pq.
    """
    mult_ok, star_ok, zero_ok, witness = representation_laws_by_definition(pi, S)
    unit = AlgebraElement.unit(pi[S.zero].groupoid)
    E = idempotent_semilattice(S)
    val = [pi[e] for e in E.carrier]
    one_minus = [sub(unit, v) for v in val]
    down, up, orth, isect = E.down_masks, E.up_masks, E.orth_masks, E.intersect_masks
    witnesses = []
    counters = {"instances": 0, "covers": 0}
    sup_cache = {0: AlgebraElement.zero(unit.groupoid)}
    cover_cache = {}

    def sup_of(zmask):
        if zmask not in sup_cache:
            low = zmask & -zmask
            p, q = val[low.bit_length() - 1], sup_of(zmask ^ low)
            sup_cache[zmask] = sub(add(p, q), p * q)
        return sup_cache[zmask]

    def names_of(mask):
        return tuple(S.elements[E.carrier[p]] for p in iter_bits(mask))

    def check_instance(x, y_mask, exy, rhs):
        counters["instances"] += 1
        fplus = exy & E.nonzero_mask
        if fplus not in cover_cache:
            covers = minimal_covers_by_definition(isect, fplus)
            if audit_covers:
                audit = covers_upto_by_definition(isect, fplus, AUDIT_COVER_SIZE)
                covers = tuple(sorted(set(covers) | set(audit)))
            cover_cache[fplus] = covers
        covers = cover_cache[fplus]
        x_name = None if x is None else S.elements[E.carrier[x]]
        for zmask in covers:
            counters["covers"] += 1
            if sup_of(zmask) != rhs:
                witnesses.append((x_name, names_of(y_mask), names_of(zmask)))

    candidates = [q for q in range(len(E)) if q != E.zero_pos]

    def scan(start, y_mask, exy, blocked, rhs, x):
        check_instance(x, y_mask, exy, rhs)
        for j in range(start, len(candidates)):
            q = candidates[j]
            if not blocked >> q & 1:
                scan(
                    j + 1,
                    y_mask | 1 << q,
                    exy & orth[q],
                    blocked | down[q] | up[q],
                    rhs * one_minus[q],
                    x,
                )

    for x in [None, *range(len(E))]:
        scan(0, 0, E.full_mask if x is None else down[x], 0, unit if x is None else val[x], x)
    if witnesses and witness is None:
        x, ys, _ = witnesses[0]
        witness = f"cover-sup identity fails at X={{{x or ''}}} Y={{{','.join(ys)}}}"
    return TightRepresentationReport(
        multiplicativity=mult_ok,
        star_compatible=star_ok,
        zero_preserved=zero_ok,
        tightness_witnesses=witnesses,
        instances_checked=counters["instances"],
        covers_checked=counters["covers"],
        failure_witness=witness,
    )


def orthogonal_blocks_by_definition(E):
    """The classes of nonzero positions joined by e f != 0, as ascending masks."""
    zero = E.zero_pos
    block = {p: {p} for p in range(len(E)) if p != zero}
    for p in block:
        for q in block:
            if E.meets[p, q] != zero and block[p] is not block[q]:
                merged = block[p] | block[q]
                for r in merged:
                    block[r] = merged
    return sorted({mask_of(b) for b in block.values()})


# -- the cover-sup count and listing as two separate walks -------------------------
# A count memoized on (available candidates, E^{X,Y}) only and an
# unmemoized listing; the tests compare convolution._cover_sup_walk with both.

def _count_instances(E: Semilattice, covers_of) -> tuple[int, int]:
    """Instances and covers of the cover-sup enumeration, counted without listing them.

    An instance is X (nothing or one position) with an antichain Y of
    nonzero positions, and contributes the covers of the nonzero part of
    E^{X,Y}.  The count recurses over the candidates of Y still
    available, memoized on (available candidates, E^{X,Y}); past
    MAX_REP_STATES memoized states it raises BoundExceeded, and so it
    does when the recursion passes Python's stack limit, which takes
    antichains (or covers) of about a thousand members and so a count
    far past any feasible one.
    """
    m = len(E)
    comparable = [d | u for d, u in zip(E.down_masks, E.up_masks)]
    orth = E.orth_masks
    nonzero = E.nonzero_mask
    memo: dict[int, tuple[int, int]] = {}

    def count(avail: int, exy: int) -> tuple[int, int]:
        key = avail << m | exy
        got = memo.get(key)
        if got is None:
            instances, covers = 1, len(covers_of(exy & nonzero))
            rest = avail
            while rest:
                low = rest & -rest
                rest ^= low
                q = low.bit_length() - 1
                i, c = count(rest & ~comparable[q], exy & orth[q])
                instances += i
                covers += c
            if len(memo) >= MAX_REP_STATES:
                raise BoundExceeded(
                    f"the cover-sup count passed {MAX_REP_STATES} memoized states"
                )
            got = memo[key] = (instances, covers)
        return got

    try:
        totals = [count(nonzero, base) for base in (E.full_mask, *E.down_masks)]
    except RecursionError:
        raise BoundExceeded("the cover-sup count recursed past the stack limit") from None
    return sum(i for i, _ in totals), sum(c for _, c in totals)


def _cover_sup_violations(
    E: Semilattice, atom_masks: Sequence[int], covers_of
) -> list[tuple[int | None, int, int]]:
    """Every (x, Y, Z) at which the cover-sup identity fails, in enumeration order.

    The literal enumeration, with each projection written as the set of
    atoms below it: pi(x) prod (1 - pi(y)) is A_x & ~(A_y1 | ...) and the
    join over Z is A_z1 | ..., so the identity is a comparison of ints.
    """
    below = [
        mask_of(k for k, mask in enumerate(atom_masks) if mask >> p & 1) for p in range(len(E))
    ]
    comparable = [d | u for d, u in zip(E.down_masks, E.up_masks)]
    orth = E.orth_masks
    nonzero = E.nonzero_mask
    joins: dict[int, int] = {0: 0}

    def join(zmask: int) -> int:
        got = joins.get(zmask)
        if got is None:
            low = zmask & -zmask
            got = joins[zmask] = below[low.bit_length() - 1] | join(zmask ^ low)
        return got

    out: list[tuple[int | None, int, int]] = []

    def visit(x: int | None, avail: int, y_mask: int, exy: int, rhs: int) -> None:
        for zmask in covers_of(exy & nonzero):
            if join(zmask) != rhs:
                out.append((x, y_mask, zmask))
        rest = avail
        while rest:
            low = rest & -rest
            rest ^= low
            q = low.bit_length() - 1
            visit(x, rest & ~comparable[q], y_mask | low, exy & orth[q], rhs & ~below[q])

    visit(None, nonzero, 0, E.full_mask, (1 << len(atom_masks)) - 1)
    for x in range(len(E)):
        visit(x, nonzero, 0, E.down_masks[x], below[x])
    return out


# -- token-at-a-time document parser ---------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<lbrace>\{)
  | (?P<rbrace>\})
  | (?P<colon>:)
  | (?P<equals>=)
  | (?P<ident>[A-Za-z0-9_.+@]+)
""",
    re.VERBOSE,
)


class _TokenScanner:
    """One token per call, tracking line and column as it goes."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self._peeked = None

    def _advance(self, s: str) -> None:
        newlines = s.count("\n")
        if newlines:
            self.line += newlines
            self.col = len(s) - s.rfind("\n")
        else:
            self.col += len(s)
        self.pos += len(s)

    def _next_raw(self):
        while self.pos < len(self.text):
            m = _TOKEN_RE.match(self.text, self.pos)
            if m is None:
                raise ParseError(
                    f"unexpected character {self.text[self.pos]!r}", self.line, self.col
                )
            kind = m.lastgroup
            line, col = self.line, self.col
            self._advance(m.group())
            if kind in ("ws", "comment"):
                continue
            return (kind, m.group(), line, col)
        return ("eof", "", self.line, self.col)

    def peek(self):
        if self._peeked is None:
            self._peeked = self._next_raw()
        return self._peeked

    def next(self):
        tok = self.peek()
        self._peeked = None
        return tok

    def expect(self, kind: str, what: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1] or 'end of input'!r}", tok[2], tok[3])
        return tok

    def expect_keyword(self, word: str):
        tok = self.expect("ident", f"'{word}'")
        if tok[1] != word:
            raise ParseError(f"expected '{word}', found {tok[1]!r}", tok[2], tok[3])
        return tok


def _ident_list(sc: _TokenScanner):
    sc.expect("lbrace", "'{'")
    out = []
    while sc.peek()[0] == "ident":
        tok = sc.next()
        out.append((tok[1], tok[2], tok[3]))
    sc.expect("rbrace", "'}'")
    return out


def parse_semigroup_by_tokens(text, adjoin_missing_zero=False):
    """ample.formats.parse_semigroup, reading one token per scanner call."""
    sc = _TokenScanner(text)
    sc.expect_keyword("semigroup")
    sc.expect("lbrace", "'{'")

    sc.expect_keyword("elements")
    elements = _ident_list(sc)
    names = []
    seen = {}
    for name, line, col in elements:
        if name in seen:
            raise ParseError(f"duplicate element {name!r}", line, col)
        seen[name] = len(names)
        names.append(name)
    if not names:
        tok = sc.peek()
        raise ParseError("element list is empty", tok[2], tok[3])

    sc.expect_keyword("zero")
    ztok = sc.expect("ident", "zero element name")
    if ztok[1] not in seen:
        raise ParseError(f"unknown zero element {ztok[1]!r}", ztok[2], ztok[3])

    sc.expect_keyword("table")
    entries = _ident_list(sc)
    n = len(names)
    if len(entries) != n * n:
        tok = sc.peek()
        raise ParseError(
            f"table has {len(entries)} entries, expected {n * n}", tok[2], tok[3]
        )
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            name, line, col = entries[i * n + j]
            if name not in seen:
                raise ParseError(f"unknown element {name!r} in table", line, col)
            row.append(seen[name])
        rows.append(row)

    sc.expect("rbrace", "'}'")
    tail = sc.next()
    if tail[0] != "eof":
        raise ParseError("unexpected trailing input", tail[2], tail[3])

    element_names = tuple(names)
    table = tuple(tuple(row) for row in rows)
    if adjoin_missing_zero:
        element_names, table = adjoin_zero(element_names, table)
    try:
        sg = validate_inverse_semigroup(element_names, table)
    except AmpleError as exc:
        raise ValidationError(f"semigroup document is invalid: {exc}", reason=exc) from exc
    if len(sg) == n and sg.elements[sg.zero] != ztok[1]:
        raise ValidationError(
            f"declared zero {ztok[1]!r} is not the absorbing element "
            f"({sg.elements[sg.zero]!r} is)"
        )
    return sg


def parse_groupoid_by_tokens(text):
    """ample.formats.parse_groupoid, reading one token per scanner call."""
    sc = _TokenScanner(text)
    sc.expect_keyword("groupoid")
    sc.expect("lbrace", "'{'")

    sc.expect_keyword("units")
    unit_toks = _ident_list(sc)
    names = []
    seen = {}
    for name, line, col in unit_toks:
        if name in seen:
            raise ParseError(f"duplicate unit {name!r}", line, col)
        seen[name] = len(names)
        names.append(name)
    n_units = len(names)

    sc.expect_keyword("arrows")
    sc.expect("lbrace", "'{'")
    raw_arrows = []
    while sc.peek()[0] == "ident":
        atok = sc.next()
        if atok[1] in seen:
            raise ParseError(f"duplicate arrow id {atok[1]!r}", atok[2], atok[3])
        seen[atok[1]] = len(names)
        names.append(atok[1])
        sc.expect("colon", "':'")
        dtok = sc.expect("ident", "source unit")
        sc.expect("arrow", "'->'")
        rtok = sc.expect("ident", "range unit")
        raw_arrows.append((atok, dtok, rtok))
    sc.expect("rbrace", "'}'")

    d = list(range(n_units)) + [0] * len(raw_arrows)
    r = list(range(n_units)) + [0] * len(raw_arrows)
    for k, (atok, dtok, rtok) in enumerate(raw_arrows):
        for tok, target in ((dtok, d), (rtok, r)):
            if tok[1] not in seen or seen[tok[1]] >= n_units:
                raise ParseError(f"unknown unit {tok[1]!r}", tok[2], tok[3])
            target[n_units + k] = seen[tok[1]]

    sc.expect_keyword("compose")
    sc.expect("lbrace", "'{'")
    compose = {}
    while sc.peek()[0] == "ident":
        ltok = sc.next()
        rtok = sc.expect("ident", "right factor")
        sc.expect("equals", "'='")
        vtok = sc.expect("ident", "product arrow")
        for tok in (ltok, rtok, vtok):
            if tok[1] not in seen:
                raise ParseError(f"unknown arrow {tok[1]!r}", tok[2], tok[3])
        key = (seen[ltok[1]], seen[rtok[1]])
        if key in compose:
            raise ParseError(
                f"duplicate composition {ltok[1]} {rtok[1]}", ltok[2], ltok[3]
            )
        compose[key] = seen[vtok[1]]
    sc.expect("rbrace", "'}'")

    sc.expect_keyword("inverse")
    sc.expect("lbrace", "'{'")
    inverse = {u: u for u in range(n_units)}
    while sc.peek()[0] == "ident":
        ltok = sc.next()
        sc.expect("equals", "'='")
        vtok = sc.expect("ident", "inverse arrow")
        for tok in (ltok, vtok):
            if tok[1] not in seen:
                raise ParseError(f"unknown arrow {tok[1]!r}", tok[2], tok[3])
        a = seen[ltok[1]]
        v = seen[vtok[1]]
        if a in inverse and inverse[a] != v:
            raise ParseError(f"conflicting inverse for {ltok[1]!r}", ltok[2], ltok[3])
        inverse[a] = v
    close = sc.expect("rbrace", "'}'")

    sc.expect("rbrace", "'}'")
    tail = sc.next()
    if tail[0] != "eof":
        raise ParseError("unexpected trailing input", tail[2], tail[3])

    n = len(names)
    for a in range(n):
        if a not in inverse:
            raise ParseError(
                f"missing inverse for arrow {names[a]!r}", close[2], close[3]
            )

    # Unit-involving compositions are implied by the unit laws; fill any the
    # document left out, but never overwrite what it said.
    for a in range(n):
        compose.setdefault((a, d[a]), a)
        compose.setdefault((r[a], a), a)

    try:
        return validate_groupoid(
            names, range(n_units), d, r, compose_array(n, compose), [inverse[a] for a in range(n)]
        )
    except AmpleError as exc:
        raise ValidationError(f"groupoid document is invalid: {exc}", reason=exc) from exc


def semigroup_document_by_join(S):
    """ample.write_semigroup, joining the names of each table row."""
    names = np.array(S.elements, dtype=object)
    lines = ["semigroup {", "  elements { " + " ".join(S.elements) + " }",
             f"  zero {S.elements[S.zero]}", "  table {"]
    lines += ["    " + " ".join(names[row].tolist()) for row in S.table]
    return "\n".join(lines + ["  }", "}"]) + "\n"
