"""Built-in groupoid family: the instances every check suite runs over.

Spans units-only, principal (pair groupoids), and isotropy-rich (groups,
group bundle) cases, plus disjoint unions mixing them.
"""

from __future__ import annotations

import numpy as np

from .groupoids import FiniteGroupoid, validate_groupoid


def pair_groupoid(n: int) -> FiniteGroupoid:
    """Arrows (i -> j) between n units; a{i}{j} has source u{i} and range u{j}.

    Past ten units the indices can have two digits, which run together
    (from twelve units on, 1 -> 11 and 11 -> 1 would both be a111), so the
    arrows are named a{i}_{j} there instead.
    """
    units = [f"u{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    sep = "_" if n > 10 else ""
    names = units + [f"a{i}{sep}{j}" for i, j in pairs]
    # arrow k runs from u{i} to u{j}, where (i, j) is the k-th of these ends
    ends = [(i, i) for i in range(n)] + pairs
    d, r = np.array(ends, dtype=np.intp).reshape(-1, 2).T
    code = np.empty((n, n), dtype=np.int32)  # code[i, j]: the arrow u{i} -> u{j}
    code[d, r] = range(len(names))
    # sigma.tau is the arrow d(tau) -> r(sigma) when d(sigma) = r(tau)
    compose = np.where(d[:, None] == r, code[d, r[:, None]], -1)
    return validate_groupoid(names, range(n), d, r, compose, code[r, d])


def group_groupoid(k: int) -> FiniteGroupoid:
    """The cyclic group of order k as a one-unit groupoid."""
    names = ["e"] + [f"c{i}" for i in range(1, k)]
    d = [0] * k
    r = [0] * k
    compose = np.add.outer(range(k), range(k)) % k
    inverse = [(-a) % k for a in range(k)]
    return validate_groupoid(names, [0], d, r, compose, inverse)


def units_groupoid(n: int) -> FiniteGroupoid:
    """n isolated units and nothing else."""
    names = [f"u{i}" for i in range(n)]
    compose = np.full((n, n), -1)
    np.fill_diagonal(compose, range(n))
    return validate_groupoid(names, range(n), range(n), range(n), compose, range(n))


def group_bundle_z2() -> FiniteGroupoid:
    """Two units, each carrying a Z/2 isotropy arrow; nothing crosses over."""
    names = ["u0", "u1", "f0", "f1"]
    d = [0, 1, 0, 1]
    r = [0, 1, 0, 1]
    compose = [
        [0, -1, 2, -1],
        [-1, 1, -1, 3],
        [2, -1, 0, -1],
        [-1, 3, -1, 1],
    ]
    inverse = [0, 1, 2, 3]
    return validate_groupoid(names, [0, 1], d, r, compose, inverse)


def disjoint_union(a: FiniteGroupoid, b: FiniteGroupoid) -> FiniteGroupoid:
    """Side-by-side union; arrow names get A./B. prefixes, units stay first."""
    parts = ((a, "A."), (b, "B."))
    names = [p + part.arrows[u] for part, p in parts for u in part.units]
    names += [p + x for part, p in parts for i, x in enumerate(part.arrows) if not part.is_unit(i)]
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    d, r, inverse = [0] * n, [0] * n, [0] * n
    compose = np.full((n, n), -1, dtype=np.int32)
    for part, p in parts:
        # the trailing -1 keeps the non-composable entries at -1
        at = np.array([*(index[p + x] for x in part.arrows), -1])
        for x, y in enumerate(at[:-1]):
            d[y], r[y], inverse[y] = at[part.d[x]], at[part.r[x]], at[part.inverse[x]]
        compose[np.ix_(at[:-1], at[:-1])] = at[part.compose]
    return validate_groupoid(names, range(len(a.units) + len(b.units)), d, r, compose, inverse)


def corpus() -> dict[str, FiniteGroupoid]:
    """Name -> groupoid for the whole built-in family, in a fixed order."""
    out: dict[str, FiniteGroupoid] = {}
    for n in (1, 2, 3, 4):
        out[f"units{n}"] = units_groupoid(n)
    for n in (2, 3, 4):
        out[f"pair{n}"] = pair_groupoid(n)
    for k in (2, 3, 4):
        out[f"z{k}"] = group_groupoid(k)
    out["pair2+units1"] = disjoint_union(pair_groupoid(2), units_groupoid(1))
    out["pair2+pair2"] = disjoint_union(pair_groupoid(2), pair_groupoid(2))
    out["pair2+z2"] = disjoint_union(pair_groupoid(2), group_groupoid(2))
    out["bundle2xZ2"] = group_bundle_z2()
    return out
