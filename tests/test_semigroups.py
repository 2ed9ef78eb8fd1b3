import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from ample import (
    adjoin_zero,
    bisection_semigroup,
    enumerate_bisections,
    idempotent_semilattice,
    pair_groupoid,
    validate_inverse_semigroup,
)
from ample.errors import NotAssociative, NotIdempotent, NoUniqueInverse, NoZero
from ample.semigroups import associativity_witness

from oracles import associativity_witness_by_definition, idempotents_of_table

DATA = Path(__file__).parent / "data"


def powerset_semilattice(points):
    """Subsets of `points` under intersection, as an inverse semigroup."""
    subsets = []
    for k in range(len(points) + 1):
        for c in combinations(points, k):
            subsets.append(frozenset(c))
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    index = {s: i for i, s in enumerate(subsets)}
    names = ["0" if not s else "s" + "".join(map(str, sorted(s))) for s in subsets]
    rows = [[index[a & b] for b in subsets] for a in subsets]
    return validate_inverse_semigroup(names, rows), subsets


def chain_semilattice(length):
    """0 < e1 < ... < e_length under min."""
    names = ["0"] + [f"e{i}" for i in range(1, length + 1)]
    rows = [[min(i, j) for j in range(length + 1)] for i in range(length + 1)]
    return validate_inverse_semigroup(names, rows)


def test_two_element_semilattice_is_valid():
    S = validate_inverse_semigroup(["0", "e"], [[0, 0], [0, 1]])
    assert S.zero == 0
    assert S.star == (0, 1)  # idempotents are self-adjoint


def test_right_zero_band_has_no_unique_inverse():
    # ab = b, ba = a: both elements invert a, witnessed exhaustively.
    with pytest.raises(NoUniqueInverse) as exc:
        validate_inverse_semigroup(["a", "b"], [[0, 1], [0, 1]])
    assert exc.value.element == "a"
    assert set(exc.value.candidates) == {"a", "b"}


def test_symmetric_inverse_monoid_on_one_point():
    S = validate_inverse_semigroup(["0", "id"], [[0, 0], [0, 1]])
    assert S.star == (0, 1)
    assert S.elements[S.zero] == "0"


def test_not_associative_witness():
    # (aa)a = ba = a but a(aa) = ab = b
    with pytest.raises(NotAssociative) as exc:
        validate_inverse_semigroup(["a", "b"], [[1, 1], [0, 0]])
    assert exc.value.witness == ("a", "a", "a")


def test_associativity_check_large_table():
    n = 70
    names = [f"e{i}" for i in range(n)]
    rows = [[min(i, j) for j in range(n)] for i in range(n)]
    assert len(validate_inverse_semigroup(names, rows)) == n
    rows[40][50] = 60  # min-table cell pushed above both arguments
    with pytest.raises(NotAssociative) as exc:
        validate_inverse_semigroup(names, rows)
    assert len(exc.value.witness) == 3


def rows_of_document(path):
    """The table of a semigroup document as index rows, read without validation."""
    words = " ".join(line.split("#")[0] for line in path.read_text().splitlines()).split()
    names = words[words.index("elements") + 2 : words.index("zero") - 1]
    entries = words[words.index("table") + 2 : -2]
    n = len(names)
    return [[names.index(v) for v in entries[i * n : (i + 1) * n]] for i in range(n)]


def assert_light_agrees(rows):
    """Light's test and the cubic scan give one verdict; a witness really fails."""
    witness = associativity_witness(np.array(rows, dtype=np.int32))
    assert (witness is None) == (associativity_witness_by_definition(rows) is None)
    if witness is not None:
        x, a, y = witness
        assert rows[rows[x][a]][y] != rows[x][rows[a][y]]
    return witness


def test_light_agrees_with_cubic_scan_on_fixtures():
    assert assert_light_agrees(rows_of_document(DATA / "bad_assoc.sgp")) == (0, 0, 0)
    assert assert_light_agrees(rows_of_document(DATA / "chain.sgp")) is None
    n = 70
    rows = [[min(i, j) for j in range(n)] for i in range(n)]
    assert assert_light_agrees(rows) is None
    rows[40][50] = 60
    assert assert_light_agrees(rows) is not None


def test_light_agrees_with_cubic_scan_on_corrupted_tables(corpus_runs):
    tables = [r.bisection_semigroup.semigroup.table for r in corpus_runs if len(r.masks) <= 50]
    rng = random.Random(7)
    rejected = 0
    for _ in range(240):
        rows = [list(row) for row in rng.choice(tables)]
        n = len(rows)
        a, b = rng.randrange(n), rng.randrange(n)
        rows[a][b] = rng.choice([v for v in range(n) if v != rows[a][b]])
        if assert_light_agrees(rows) is not None:
            rejected += 1
    assert 0 < rejected < 240


def test_malformed_tables_name_the_first_bad_entry():
    with pytest.raises(ValueError, match="table must be 2x2"):
        validate_inverse_semigroup(["a", "b"], [[0, 1], [0]])
    with pytest.raises(ValueError, match="table entry 5 out of range"):
        validate_inverse_semigroup(["a", "b"], [[0, 5], [-1, 0]])
    with pytest.raises(ValueError, match=f"table entry {2**70} out of range"):
        validate_inverse_semigroup(["a", "b"], [[0, 0], [2**70, -1]])


def test_no_zero():
    # the one-element semigroup's element is absorbing, so it validates
    assert validate_inverse_semigroup(["e"], [[0]]).zero == 0
    # a two-element group has no absorbing element
    with pytest.raises(NoZero):
        validate_inverse_semigroup(["e", "g"], [[0, 1], [1, 0]])


def test_adjoin_zero():
    names, rows = adjoin_zero(["e", "g"], [[0, 1], [1, 0]])
    S = validate_inverse_semigroup(names, rows)
    assert len(S) == 3
    assert S.elements[S.zero] == "0"
    # no-op when an absorbing element already exists
    names2, rows2 = adjoin_zero(names, rows)
    assert names2 == names and rows2 == rows


def test_star_is_involutive_antihomomorphism():
    S, _ = powerset_semilattice((1, 2))
    Z3, _ = _group_with_zero(3)
    for T in (S, Z3):
        for s in range(len(T)):
            assert T.star[T.star[s]] == s
            assert T.is_idempotent(T.table[T.star[s]][s])
            assert T.is_idempotent(T.table[s][T.star[s]])
            for t in range(len(T)):
                assert T.star[T.table[s][t]] == T.table[T.star[t]][T.star[s]]


def _group_with_zero(k):
    names = ["0"] + [f"g{i}" for i in range(k)]

    def mul(a, b):
        if a == 0 or b == 0:
            return 0
        return 1 + (a - 1 + b - 1) % k

    rows = [[mul(a, b) for b in range(k + 1)] for a in range(k + 1)]
    return validate_inverse_semigroup(names, rows), rows


def test_idempotent_semilattice_of_semilattice_is_everything():
    S, _ = powerset_semilattice((1, 2))
    E = idempotent_semilattice(S)
    assert E.carrier == tuple(range(len(S)))


def test_idempotent_semilattice_of_group_with_zero():
    S, _ = _group_with_zero(4)
    E = idempotent_semilattice(S)
    assert [S.elements[e] for e in E.carrier] == ["0", "g0"]


def test_bisection_semigroup_idempotents_by_oracle():
    # brute-force idempotency scan of the 7x7 bisection product table
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    oracle = idempotents_of_table(bs.semigroup.table)
    assert oracle == list(bs.semigroup.idempotents)
    names = {bs.semigroup.elements[e] for e in oracle}
    assert names == {"0", "u0", "u1", "u0+u1"}


def test_order_and_orthogonality_on_powerset():
    S, subsets = powerset_semilattice((1, 2))
    E = idempotent_semilattice(S)
    idx = {s: i for i, s in enumerate(subsets)}
    assert E.leq(idx[frozenset([1])], idx[frozenset([1, 2])])
    assert not E.leq(idx[frozenset([1, 2])], idx[frozenset([1])])
    assert E.orthogonal(idx[frozenset([1])], idx[frozenset([2])])
    assert E.intersects(idx[frozenset([1])], idx[frozenset([1, 2])])
    for e in E.carrier:
        assert E.leq(e, e)


def test_order_rejects_non_idempotents():
    S, _ = _group_with_zero(3)
    E = idempotent_semilattice(S)
    with pytest.raises(NotIdempotent):
        E.leq(E.carrier[0], 2)  # g1 is not idempotent


def test_natural_order_is_partial_order():
    for S in (powerset_semilattice((1, 2, 3))[0], chain_semilattice(3)):
        E = idempotent_semilattice(S)
        for e in E.carrier:
            assert E.leq(e, e)
            for f in E.carrier:
                if E.leq(e, f) and E.leq(f, e):
                    assert e == f
                for g in E.carrier:
                    if E.leq(e, f) and E.leq(f, g):
                        assert E.leq(e, g)


def test_restricted_ideal_examples():
    S, subsets = powerset_semilattice((1, 2))
    E = idempotent_semilattice(S)
    idx = {s: i for i, s in enumerate(subsets)}
    # Y = {0}: zero is orthogonal to everything, so nothing is excluded
    assert E.restricted_ideal((), (S.zero,)) == tuple(E.carrier)
    # X = {{1,2}}, Y = {{1}}
    got = E.restricted_ideal((idx[frozenset([1, 2])],), (idx[frozenset([1])],))
    assert got == (idx[frozenset()], idx[frozenset([2])])


def test_restricted_ideal_top_of_bisection_semilattice():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    E = idempotent_semilattice(bs.semigroup)
    top = bs.semigroup.index["u0+u1"]
    assert E.restricted_ideal((top,), ()) == tuple(E.carrier)


def test_restricted_ideal_meet_reduction():
    S, _ = powerset_semilattice((1, 2, 3))
    E = idempotent_semilattice(S)
    carrier = E.carrier
    for size in (1, 2, 3):
        for X in combinations(carrier, size):
            meet = S.mul_all(X)
            for Y in combinations(carrier, 2):
                assert E.restricted_ideal(X, Y) == E.restricted_ideal((meet,), Y)


def test_is_cover_examples():
    S, subsets = powerset_semilattice((1, 2))
    E = idempotent_semilattice(S)
    idx = {s: i for i, s in enumerate(subsets)}
    all_e = tuple(E.carrier)
    assert E.is_cover(all_e, all_e)  # F covers itself when it has a nonzero member
    assert E.is_cover((idx[frozenset([1])], idx[frozenset([2])]), all_e)
    assert not E.is_cover((S.zero,), all_e)  # zero intersects nothing
    assert not E.is_cover((idx[frozenset([1])],), all_e)  # misses {2}


def test_is_cover_monotone():
    S, _ = powerset_semilattice((1, 2))
    E = idempotent_semilattice(S)
    family = tuple(E.carrier)
    for size in range(1, len(family) + 1):
        for Z in combinations(family, size):
            if not E.is_cover(Z, family):
                continue
            for bigger_size in range(size, len(family) + 1):
                for Z2 in combinations(family, bigger_size):
                    if set(Z) <= set(Z2):
                        assert E.is_cover(Z2, family)
