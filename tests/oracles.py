"""Independent brute-force oracles.

Each function here recomputes a quantity straight from its definition,
staying off the code paths it is used to check.
"""

from itertools import permutations

from ample import same_germ
from ample.bitsets import iter_bits
from ample.semigroups import idempotent_semilattice
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


def is_character(E, bits):
    """Multiplicative on all of E, vanishing at zero, not identically zero."""
    if bits == 0 or bits >> E.zero_pos & 1:
        return False
    m = len(E)
    for p in range(m):
        vp = bits >> p & 1
        for q in range(m):
            if bits >> E.meet_pos(p, q) & 1 != (vp & (bits >> q & 1)):
                return False
    return True


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


def idempotents_of_table(rows):
    return [i for i in range(len(rows)) if rows[i][i] == i]


def germ_count_by_pairwise_quotient(S):
    """Count germ classes by the definitional witness relation alone."""
    E = idempotent_semilattice(S)
    spec = tight_spectrum(E)
    total = 0
    for bits in spec.points:
        valid = [
            s
            for s in range(len(S))
            if bits >> E.position[S.table[S.star[s]][s]] & 1
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
