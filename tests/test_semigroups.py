import random
from itertools import combinations
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from ample import (
    abstract_table,
    adjoin_zero,
    bisection_semigroup,
    build_germ_model,
    disjoint_union,
    enumerate_bisections,
    group_groupoid,
    idempotent_semilattice,
    pair_groupoid,
    parse_semigroup,
    point_basis_space,
    singleton_semigroup,
    units_groupoid,
    validate_inverse_semigroup,
    write_semigroup,
)
from ample.bitsets import iter_bits
from ample.errors import ValidationError
from ample import semigroups
from ample.semigroups import associativity_witness

from oracles import (
    absorbing_by_definition,
    associativity_witness_ascending,
    basis_semilattice,
    associativity_witness_by_definition,
    closure_by_definition,
    fold_of_idempotents,
    idempotents_of_table,
    generalized_inverses_by_definition,
    is_idempotent,
    left_words_closure_by_definition,
    order_masks_by_definition,
    product_blocks_by_definition,
    product_of,
    support_conditions_by_definition,
    top_down_order_by_definition,
    word_generators_by_definition,
)
from semilattice_zoo import all_semilattices_upto

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
    with pytest.raises(ValidationError, match="element a has 2 generalized inverse") as exc:
        validate_inverse_semigroup(["a", "b"], [[0, 1], [0, 1]])
    element, candidates = exc.value.witness
    assert element == "a"
    assert set(candidates) == {"a", "b"}


def test_symmetric_inverse_monoid_on_one_point():
    S = validate_inverse_semigroup(["0", "id"], [[0, 0], [0, 1]])
    assert S.star == (0, 1)
    assert S.elements[S.zero] == "0"


def test_not_associative_witness():
    # (aa)a = ba = a but a(aa) = ab = b
    with pytest.raises(ValidationError, match=r"associativity fails at \(a, a, a\)") as exc:
        validate_inverse_semigroup(["a", "b"], [[1, 1], [0, 0]])
    assert exc.value.witness == ("a", "a", "a")


def test_associativity_check_large_table():
    n = 70
    names = [f"e{i}" for i in range(n)]
    rows = [[min(i, j) for j in range(n)] for i in range(n)]
    assert len(validate_inverse_semigroup(names, rows)) == n
    rows[40][50] = 60  # min-table cell pushed above both arguments
    with pytest.raises(ValidationError, match="associativity fails at") as exc:
        validate_inverse_semigroup(names, rows)
    assert len(exc.value.witness) == 3


def rows_of_document(path):
    """The table of a semigroup document as index rows, read without validation."""
    words = " ".join(line.split("#")[0] for line in path.read_text().splitlines()).split()
    names = words[words.index("elements") + 2 : words.index("zero") - 1]
    entries = words[words.index("table") + 2 : -2]
    n = len(names)
    return [[names.index(v) for v in entries[i * n : (i + 1) * n]] for i in range(n)]


def corrupt(rows, rng):
    """A copy of rows with one entry changed to another element."""
    rows = [list(row) for row in rows]
    n = len(rows)
    a, b = rng.randrange(n), rng.randrange(n)
    rows[a][b] = rng.choice([v for v in range(n) if v != rows[a][b]])
    return rows


def assert_light_agrees(rows):
    """Light's test and the cubic scan give one verdict; a witness really fails.

    The witness is the one Light's test finds with ascending candidates.
    """
    witness = associativity_witness(np.array(rows, dtype=np.int32))
    assert witness == associativity_witness_ascending(np.array(rows, dtype=np.int32))
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
    # tables on both sides of the direct comparison's line
    assert {len(t) ** 3 <= semigroups._BLOCK for t in tables} == {True, False}
    rng = random.Random(7)
    rejected = 0
    for _ in range(240):
        if assert_light_agrees(corrupt(rng.choice(tables), rng)) is not None:
            rejected += 1
    assert 0 < rejected < 240


def drawn_generators(t):
    """associativity_witness(t) and each set it drew, in order, as (kind, members).

    The kind is "words" for a set drawn by left-bracketed words (the
    verdict's) and "two-sided" for one drawn by the two-sided closure.
    """
    drawn = []
    real = semigroups._generators

    def spy(table, order, words=False):
        gens = []
        drawn.append(("words" if words else "two-sided", gens))
        for g in real(table, order, words):
            gens.append(g)
            yield g

    with patch.object(semigroups, "_generators", spy):
        witness = associativity_witness(t)
    return witness, drawn


def decided_on_the_support(rows):
    """Whether a table above the direct comparison gets its verdict on its support.

    It does when z, the fold of the idempotents, is absorbing and the
    counts r and c of entries other than z in each row and column have
    sum of c[a] r[a] at most n^2.
    """
    n, z = len(rows), fold_of_idempotents(rows)
    r = [sum(v != z for v in row) for row in rows]
    c = [sum(row[a] != z for row in rows) for a in range(n)]
    return z in absorbing_by_definition(rows) and sum(map(int.__mul__, c, r)) <= n * n


def assert_top_down_generates(rows):
    """Check what the verdict draws; return the full top-down set, which generates rows.

    A table with n^3 <= _BLOCK gets a direct verdict and draws no set, and
    so does one decided on its support; any other draws the top-down set
    by left-bracketed words, all of it when it is associative.  A failure
    then draws the two-sided ascending set up to the witness's generator,
    since every table here fits one row block.  On an associative table
    the set by words is the two-sided top-down set.
    """
    t = np.array(rows, dtype=np.int32)
    n = len(rows)
    assert n * n <= semigroups._BLOCK
    witness, drawn = drawn_generators(t)
    order = top_down_order_by_definition(rows)
    top_down = list(semigroups._generators(t, order))
    by_words = word_generators_by_definition(rows, order)
    ascending = list(semigroups._generators(t, range(n)))
    for gens in (top_down, ascending):
        assert closure_by_definition(rows, gens) == set(range(n))
    assert left_words_closure_by_definition(rows, by_words) == set(range(n))
    assert list(semigroups._generators(t, order, words=True)) == by_words
    light = n**3 > semigroups._BLOCK and not decided_on_the_support(rows)
    verdict = [("words", by_words)] if light else []
    if witness is None:
        assert drawn == verdict
        assert by_words == top_down
        return top_down
    assert len(drawn) == len(verdict) + 1
    if verdict:
        kind, gens = drawn[0]
        assert kind == "words" and gens == by_words[: len(gens)]
    assert drawn[-1] == ("two-sided", ascending[: ascending.index(witness[1]) + 1])
    return top_down


def relabellings(run, seeds=(1, 2, 3)):
    """The run's table and its abstract_table relabellings, as index rows."""
    bs = run.bisection_semigroup
    return [bs.semigroup.table.tolist()] + [abstract_table(bs, seed=s)[0].table.tolist() for s in seeds]


def test_top_down_generators_generate_every_corpus_table(corpus_runs):
    for run in corpus_runs:
        for rows in relabellings(run):
            assert_top_down_generates(rows)


def test_top_down_generators_generate_corrupted_tables(corpus_runs):
    rng = random.Random(11)
    failing = 0
    for run in corpus_runs:
        for rows in relabellings(run):
            for _ in range(3):
                bad = corrupt(rows, rng)
                assert_top_down_generates(bad)
                failing += associativity_witness_by_definition(bad) is not None
    assert failing > 0


def test_top_down_generator_counts(corpus_runs):
    runs = {run.label: run for run in corpus_runs}
    # ascending order draws 16, 19, 37 and 46 generators on these tables;
    # the last two lie above the direct comparison, so the verdict draws them
    for label, count in (
        ("units4/ample", 5),
        ("pair3/ample", 4),
        ("pair2+pair2/ample", 5),
        ("pair4/ample", 5),
    ):
        t = runs[label].bisection_semigroup.semigroup.table
        assert len(assert_top_down_generates(t.tolist())) == count
        assert len(list(semigroups._generators(t, range(len(t))))) > count


def test_witness_matches_ascending_order_on_relabelled_corruptions(corpus_runs):
    runs = {run.label: run for run in corpus_runs}
    rng = random.Random(5)
    failing = 0
    for label in ("units4/ample", "pair3/ample"):
        for rows in relabellings(runs[label], seeds=(1, 2, 3, 4, 5)):
            for _ in range(20):
                t = np.array(corrupt(rows, rng), dtype=np.int32)
                witness = associativity_witness(t)
                assert witness == associativity_witness_ascending(t)
                failing += witness is not None
    assert failing > 0


def test_direct_verdict_agrees_on_both_sides_of_the_line():
    rng = random.Random(3)
    for n in (40, 41):
        assert (n**3 <= semigroups._BLOCK) == (n == 40)
        chain = [[min(i, j) for j in range(n)] for i in range(n)]
        tables = [chain] + [corrupt(chain, rng) for _ in range(10)]
        tables += [[[rng.randrange(n) for _ in range(n)] for _ in range(n)] for _ in range(10)]
        verdicts = set()
        for rows in tables:
            verdicts.add(assert_light_agrees(rows) is None)
            assert_top_down_generates(rows)
        assert verdicts == {True, False}


def test_a_failing_table_draws_the_ascending_set_up_to_its_witness(corpus_runs):
    rng = random.Random(17)
    saved = 0
    for label in ("units4/ample", "pair3/ample", "pair2+pair2/ample", "pair4/ample"):
        run = next(r for r in corpus_runs if r.label == label)
        rows = run.bisection_semigroup.semigroup.table.tolist()
        for _ in range(10):
            t = np.array(corrupt(rows, rng), dtype=np.int32)
            witness, drawn = drawn_generators(t)
            if witness is None:
                continue
            ascending = list(semigroups._generators(t, range(len(t))))
            assert drawn[-1] == ("two-sided", ascending[: ascending.index(witness[1]) + 1])
            saved += len(ascending) - len(drawn[-1][1])
    assert saved > 0


def ranked_order(t):
    """The candidates of ranked_generators: descending count of row entries other than z."""
    z = fold_of_idempotents(t.tolist())
    return np.argsort(-(t != z).sum(axis=1), kind="stable").tolist()


def test_the_words_draw_matches_the_definition_on_both_sides_of_one_block():
    # pair2+pair3 and units8 ample fit one row block, which units8 fills: the list
    # walk draws from them; the others take the array rounds
    tables = []
    for G, masks in (
        (disjoint_union(pair_groupoid(2), pair_groupoid(3)), enumerate_bisections),
        (units_groupoid(8), enumerate_bisections),
        (units_groupoid(9), enumerate_bisections),
        (units_groupoid(300), singleton_semigroup),
    ):
        tables.append(bisection_semigroup(G, masks(G)).semigroup.table)
    G = pair_groupoid(5)
    tables.append(abstract_table(bisection_semigroup(G, enumerate_bisections(G)), seed=2)[0].table)
    assert [len(t) ** 2 <= semigroups._BLOCK for t in tables] == [True, True, False, False, False]
    rng = random.Random(23)
    for table in tables:
        for rows in [table.tolist()] + [corrupt(table.tolist(), rng) for _ in range(2)]:
            t = np.array(rows, dtype=np.int32)
            order = ranked_order(t)
            drawn = list(semigroups._generators(t, order, words=True))
            assert drawn == word_generators_by_definition(rows, order)
            assert drawn == list(semigroups.ranked_generators(t))


def test_light_gives_the_ascending_witness_on_one_and_on_several_blocks():
    # pair3+z3 and pair4 fit one row block (41 <= n <= 256), pair4+units1 does not
    rng = random.Random(29)
    failing = set()
    for G in (
        disjoint_union(pair_groupoid(3), group_groupoid(3)),
        pair_groupoid(4),
        disjoint_union(pair_groupoid(4), units_groupoid(1)),
    ):
        bs = bisection_semigroup(G, enumerate_bisections(G))
        for rows in (bs.semigroup.table.tolist(), abstract_table(bs, seed=4)[0].table.tolist()):
            for _ in range(6):
                t = np.array(corrupt(rows, rng), dtype=np.int32)
                witness, drawn = drawn_generators(t)
                assert witness == associativity_witness_ascending(t)
                if witness is not None:
                    failing.add((len(t) ** 2 <= semigroups._BLOCK, drawn[0][0]))
    assert failing == {(True, "words"), (False, "words")}


def test_malformed_tables_name_the_first_bad_entry():
    with pytest.raises(ValueError, match="table must be 2x2"):
        validate_inverse_semigroup(["a", "b"], [[0, 1], [0]])
    with pytest.raises(ValueError, match="table entry 5 out of range"):
        validate_inverse_semigroup(["a", "b"], [[0, 5], [-1, 0]])
    with pytest.raises(ValueError, match=f"table entry {2**70} out of range"):
        validate_inverse_semigroup(["a", "b"], [[0, 0], [2**70, -1]])
    # the entries just past either end, as rows and as an int32 array
    for rows, entry in (([[0, 1], [2, 0]], 2), ([[0, -1], [1, 0]], -1)):
        for table in (rows, np.array(rows, dtype=np.int32)):
            with pytest.raises(ValueError, match=f"^table entry {entry} out of range$"):
                validate_inverse_semigroup(["a", "b"], table)
            with pytest.raises(ValueError, match=f"^table entry {entry} out of range$"):
                adjoin_zero(["a", "b"], table)


def test_non_integer_tables_are_rejected_not_truncated():
    with pytest.raises(ValueError, match=r"table entry 0\.5 is not an integer"):
        validate_inverse_semigroup(["z"], [[0.5]])
    with pytest.raises(ValueError, match=r"table entry 0\.5 is not an integer"):
        validate_inverse_semigroup(["z"], np.array([[0.5]]))
    with pytest.raises(ValueError, match="table entry '0' is not an integer"):
        validate_inverse_semigroup(["z"], [["0"]])
    with pytest.raises(ValueError, match="table entry None is not an integer"):
        validate_inverse_semigroup(["a", "b"], [[0, 2**70], [None, 0]])
    with pytest.raises(ValueError, match=r"table entry 0\.5 is not an integer"):
        adjoin_zero(["a", "b"], [[0.5, 1], [1, 1.9]])
    with pytest.raises(ValueError, match="table must be 2x2"):
        adjoin_zero(["a", "b"], [[0, 1]])
    # integers of any integer type are taken
    assert validate_inverse_semigroup(["z"], np.array([[0]], dtype=np.uint8)).table.dtype == np.int32


def test_no_zero():
    # the one-element semigroup's element is absorbing, so it validates
    assert validate_inverse_semigroup(["e"], [[0]]).zero == 0
    # a two-element group has no absorbing element
    with pytest.raises(ValidationError, match="no absorbing element in table"):
        validate_inverse_semigroup(["e", "g"], [[0, 1], [1, 0]])


def test_adjoin_zero():
    names, rows = adjoin_zero(["e", "g"], [[0, 1], [1, 0]])
    S = validate_inverse_semigroup(names, rows)
    assert len(S) == 3
    assert S.elements[S.zero] == "0"
    # no-op when an absorbing element already exists
    names2, rows2 = adjoin_zero(names, rows)
    assert names2 == names and np.array_equal(rows2, rows)
    # the fresh name is the first free one of 0, zero, _0, __0, ___0, ...
    group = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    assert adjoin_zero(["e", "zero", "0", "g"], group)[0][-1] == "_0"
    assert adjoin_zero(["_0", "zero", "0", "__0"], group)[0][-1] == "___0"


def test_star_is_involutive_antihomomorphism():
    S, _ = powerset_semilattice((1, 2))
    Z3, _ = _group_with_zero(3)
    for T in (S, Z3):
        for s in range(len(T)):
            assert T.star[T.star[s]] == s
            assert is_idempotent(T, T.table[T.star[s]][s])
            assert is_idempotent(T, T.table[s][T.star[s]])
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


def _leq(E, p, q):
    """e_p <= e_q, read off the position masks."""
    return bool(E.down_masks[q] >> p & 1)


def _restricted_ideal_mask(E, below=(), orthogonal_to=()):
    """E^{X,Y} over positions, from the down and orth masks."""
    mask = E.full_mask
    for p in below:
        mask &= E.down_masks[p]
    for q in orthogonal_to:
        mask &= E.orth_masks[q]
    return mask


def _is_cover_mask(E, zmask, fmask):
    """Z inside F, and every nonzero member of F meets some member of Z."""
    return not zmask & ~fmask and all(
        E.intersect_masks[f] & zmask for f in iter_bits(fmask & E.nonzero_mask)
    )


def test_order_and_orthogonality_on_powerset():
    S, subsets = powerset_semilattice((1, 2))
    E = idempotent_semilattice(S)
    pos = {s: int(E.positions[i]) for i, s in enumerate(subsets)}
    s1, s2, s12 = pos[frozenset([1])], pos[frozenset([2])], pos[frozenset([1, 2])]
    assert _leq(E, s1, s12) and E.up_masks[s1] >> s12 & 1
    assert not _leq(E, s12, s1) and not E.up_masks[s12] >> s1 & 1
    assert E.orth_masks[s1] >> s2 & 1
    assert E.intersect_masks[s1] >> s12 & 1
    for p in range(len(E)):
        assert _leq(E, p, p)


def test_natural_order_is_partial_order():
    for S in (powerset_semilattice((1, 2, 3))[0], chain_semilattice(3)):
        E = idempotent_semilattice(S)
        m = len(E)
        for p in range(m):
            assert _leq(E, p, p)
            for q in range(m):
                assert _leq(E, p, q) == bool(E.up_masks[p] >> q & 1)
                if _leq(E, p, q) and _leq(E, q, p):
                    assert p == q
                for r in range(m):
                    if _leq(E, p, q) and _leq(E, q, r):
                        assert _leq(E, p, r)


def test_restricted_ideal_examples():
    S, subsets = powerset_semilattice((1, 2))
    E = idempotent_semilattice(S)
    pos = {s: int(E.positions[i]) for i, s in enumerate(subsets)}
    # Y = {0}: zero is orthogonal to everything, so nothing is excluded
    assert _restricted_ideal_mask(E, (), (E.zero_pos,)) == E.full_mask
    # X = {{1,2}}, Y = {{1}}
    got = _restricted_ideal_mask(E, (pos[frozenset([1, 2])],), (pos[frozenset([1])],))
    assert got == 1 << pos[frozenset()] | 1 << pos[frozenset([2])]


def test_restricted_ideal_top_of_bisection_semilattice():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    E = idempotent_semilattice(bs.semigroup)
    top = int(E.positions[bs.semigroup.index["u0+u1"]])
    assert _restricted_ideal_mask(E, (top,), ()) == E.full_mask


def test_restricted_ideal_meet_reduction():
    S, _ = powerset_semilattice((1, 2, 3))
    E = idempotent_semilattice(S)
    carrier = E.carrier
    for size in (1, 2, 3):
        for X in combinations(carrier, size):
            meet = int(E.positions[product_of(S, X)])
            xs = [int(E.positions[e]) for e in X]
            for Y in combinations(range(len(E)), 2):
                assert _restricted_ideal_mask(E, xs, Y) == _restricted_ideal_mask(E, (meet,), Y)


def test_is_cover_examples():
    S, subsets = powerset_semilattice((1, 2))
    E = idempotent_semilattice(S)
    pos = {s: int(E.positions[i]) for i, s in enumerate(subsets)}
    s1, s2 = 1 << pos[frozenset([1])], 1 << pos[frozenset([2])]
    full = E.full_mask
    assert _is_cover_mask(E, full, full)  # F covers itself when it has a nonzero member
    assert _is_cover_mask(E, s1 | s2, full)
    assert not _is_cover_mask(E, 1 << E.zero_pos, full)  # zero intersects nothing
    assert not _is_cover_mask(E, s1, full)  # misses {2}


def test_is_cover_monotone():
    S, _ = powerset_semilattice((1, 2))
    E = idempotent_semilattice(S)
    family = E.full_mask
    for z in range(1, family + 1):
        if not _is_cover_mask(E, z, family):
            continue
        for z2 in range(z, family + 1):
            if z & z2 == z:
                assert _is_cover_mask(E, z2, family)


def test_order_masks_match_definition(corpus_runs):
    semilattices = [
        idempotent_semilattice(S) for items in all_semilattices_upto(6).values() for S in items
    ]
    semilattices += [idempotent_semilattice(r.bisection_semigroup.semigroup) for r in corpus_runs]
    for E in semilattices:
        assert (E.down_masks, E.up_masks, E.orth_masks) == order_masks_by_definition(E)


def test_every_constructor_yields_a_read_only_int32_table():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    T, _ = abstract_table(bs, seed=3)
    space = point_basis_space(["x", "y"], [(), (0,), (1,), (0, 1)])
    rows = [[min(i, j) for j in range(4)] for i in range(4)]
    group_names, group_rows = adjoin_zero(["e", "g"], [[0, 1], [1, 0]])
    assert group_rows.dtype == np.int32 and group_rows.shape == (3, 3)
    built = [
        parse_semigroup((DATA / "chain.sgp").read_text()),
        parse_semigroup(write_semigroup(T), adjoin_missing_zero=True),
        validate_inverse_semigroup(list("abcd"), rows),
        validate_inverse_semigroup(list("abcd"), np.array(rows)),  # int64, converted
        validate_inverse_semigroup(list("abcd"), np.array(rows, dtype=np.int32)),
        validate_inverse_semigroup(group_names, group_rows),
        validate_inverse_semigroup(*adjoin_zero(list("abcd"), rows)),
        bs.semigroup,
        T,
        basis_semilattice(space).semigroup,
    ]
    for S in built:
        n = len(S)
        assert S.table.dtype == np.int32 and S.table.shape == (n, n)
        with pytest.raises(ValueError):
            S.table[0, 0] = 0
        assert all(type(v) is int for v in (*S.star, *S.idempotents, S.zero))
        with pytest.raises(TypeError):
            hash(S)
    model = build_germ_model(T)
    for field in ("arrow_point", "arrow_rep"):
        assert all(type(v) is int for v in getattr(model, field)), field
    assert all(type(s) is int for members in model.arrow_members for s in members)
    for field in ("inverse", "r"):
        assert all(type(v) is int for v in getattr(model.groupoid, field)), field


def validation_by_definition(names, rows):
    """(star, None) or (None, first message): Light's test, then every pair (s, u), then zero."""
    witness = associativity_witness_ascending(np.array(rows, dtype=np.int32))
    if witness is not None:
        x, a, y = (names[i] for i in witness)
        return None, f"associativity fails at ({x}, {a}, {y})"
    inverses = generalized_inverses_by_definition(rows)
    for s, found in enumerate(inverses):
        if len(found) != 1:
            found = tuple(names[u] for u in found)
            return None, f"element {names[s]} has {len(found)} generalized inverse(s): {found!r}"
    if not absorbing_by_definition(rows):
        return None, "no absorbing element in table"
    return tuple(u for (u,) in inverses), None


def assert_validation_agrees(rows, names=None):
    """validate_inverse_semigroup gives the definition's star or first message, returned."""
    names = names or [f"x{i}" for i in range(len(rows))]
    star, message = validation_by_definition(names, rows)
    try:
        S = validate_inverse_semigroup(names, rows)
    except ValidationError as exc:
        assert str(exc) == message
        return message
    assert message is None and S.star == star
    return None


def left_zero_band_with_zero(k):
    """k idempotents with xy = x, then an adjoined zero: idempotents that do not commute."""
    return [[i if max(i, j) < k else k for j in range(k + 1)] for i in range(k + 1)]


def chain_with_nilpotent(m):
    """The chain 0 < e1 < ... < em under min, then x with x * anything = anything * x = 0."""
    return [[min(i, j) if max(i, j) <= m else 0 for j in range(m + 2)] for i in range(m + 2)]


def right_zero_band(k):
    """k idempotents with xy = y: every element inverts every other, and there is no zero."""
    return [list(range(k)) for _ in range(k)]


def failing_inverse_tables():
    """Associative tables that are not inverse semigroups, of 2 to 90 elements."""
    return [
        left_zero_band_with_zero(2),
        left_zero_band_with_zero(89),
        chain_with_nilpotent(1),
        chain_with_nilpotent(88),
        rows_of_document(DATA / "right_zero.sgp"),
        right_zero_band(90),
    ]


def test_left_zero_band_with_zero_keeps_the_full_scan_message():
    with pytest.raises(ValidationError) as exc:
        parse_semigroup((DATA / "left_zero.sgp").read_text())
    assert str(exc.value.reason) == "element e has 2 generalized inverse(s): ('e', 'f')"
    assert exc.value.reason.witness == ("e", ("e", "f"))
    assert rows_of_document(DATA / "left_zero.sgp") == left_zero_band_with_zero(2)


def test_tables_that_are_not_inverse_semigroups_get_the_full_scan_message():
    messages = []
    for rows in failing_inverse_tables():
        t = np.array(rows, dtype=np.int32)
        assert associativity_witness(t) is None
        # the inner route refuses them: the idempotents do not commute, or the search fails
        commute = semigroups._symmetric(semigroups._idempotent_table(t))
        assert not commute or semigroups._inner_inverses(t) is None
        messages.append(assert_validation_agrees(rows))
    counts = ["2", "89", "0", "0", "2", "90"]
    assert [m.split(" has ")[1].split()[0] for m in messages] == counts


def test_validation_matches_the_definition_on_corpus_tables(corpus_runs):
    for run in corpus_runs:
        for rows in relabellings(run):
            assert assert_validation_agrees(rows) is None, run.label


def test_inner_inverses_match_the_definition_on_every_corpus_table(corpus_runs):
    bands = 0
    for run in corpus_runs:
        for rows in relabellings(run):
            star = semigroups._inner_inverses(np.array(rows, dtype=np.int32))
            assert star == tuple(u for (u,) in generalized_inverses_by_definition(rows)), run.label
            if all(rows[s][s] == s for s in range(len(rows))):
                assert star == tuple(range(len(rows)))
                bands += 1
    assert 0 < bands < 4 * len(corpus_runs)


def test_inner_inverses_match_the_definition_on_units10_and_pair5():
    for G in (units_groupoid(10), pair_groupoid(5)):
        S = bisection_semigroup(G, enumerate_bisections(G)).semigroup
        inverses = generalized_inverses_by_definition(S.table.tolist())
        assert S.star == semigroups._inner_inverses(S.table) == tuple(u for (u,) in inverses)


def test_validation_matches_the_definition_on_corrupted_tables(corpus_runs):
    tables = failing_inverse_tables()
    small = [r for r in corpus_runs if len(r.masks) <= 50]
    tables += [r.bisection_semigroup.semigroup.table.tolist() for r in small]
    rng = random.Random(23)
    kinds = set()
    for rows in tables:
        for _ in range(12):
            message = assert_validation_agrees(corrupt(rows, rng))
            kinds.add(message.split()[0] if message else None)
    assert kinds == {"associativity", "element", "no", None}


# A magma without idempotents in which every s has a u with sus = s.
NO_IDEMPOTENTS = [[2, 2, 3, 3], [2, 3, 2, 1], [3, 1, 1, 2], [0, 3, 0, 2]]


def test_inner_inverses_recheck_the_inverse_laws():
    # no idempotents, and every s has a u with sus = s, but this magma is not
    # associative and some usu is no inverse of s: the re-check refuses it
    t = np.array(NO_IDEMPOTENTS, dtype=np.int32)
    assert associativity_witness(t) is not None
    assert all(any(t[t[s, u], s] == s for u in range(4)) for s in range(4))
    assert semigroups._inner_inverses(t) is None


def assert_absorbing_agrees(rows):
    """_absorbing and adjoin_zero find the definition's absorbing element; it is returned."""
    found = absorbing_by_definition(rows)
    assert len(found) <= 1
    zero = found[0] if found else None
    t = np.array(rows, dtype=np.int32)
    assert semigroups._absorbing(t) == zero
    names, grown = adjoin_zero([f"x{i}" for i in range(len(rows))], t)
    assert len(names) == len(rows) + (zero is None)
    assert semigroups._absorbing(grown) == (len(rows) if zero is None else zero)
    return zero


def test_absorbing_matches_the_definition(corpus_runs):
    tables = [rows for run in corpus_runs for rows in relabellings(run)]
    for G in (units_groupoid(10), pair_groupoid(5)):
        tables.append(bisection_semigroup(G, enumerate_bisections(G)).semigroup.table)
    for rows in tables:
        assert assert_absorbing_agrees(rows) is not None
    rng = random.Random(31)
    small = [r.bisection_semigroup.semigroup.table.tolist() for r in corpus_runs]
    small = [rows for rows in small if len(rows) <= 50]
    found = {assert_absorbing_agrees(corrupt(rng.choice(small), rng)) is None for _ in range(200)}
    assert found == {True, False}
    group = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    for rows in (NO_IDEMPOTENTS, right_zero_band(5), group):
        assert assert_absorbing_agrees(rows) is None
    # a chain under max: every element is idempotent and the top, the last one, absorbs
    assert assert_absorbing_agrees([[max(i, j) for j in range(6)] for i in range(6)]) == 5


# -- the verified involution --------------------------------------------------


def validation_outcome(names, rows, star=None):
    """The validated semigroup, or the message and witness of its ValidationError."""
    try:
        return validate_inverse_semigroup(names, rows, star)
    except ValidationError as exc:
        return str(exc), exc.witness


def candidate_involutions(rows):
    """A correct, a wrong and a non-involutive candidate star, then an inner inverse per s."""
    n = len(rows)
    inverses = generalized_inverses_by_definition(rows)
    correct = [found[0] if found else 0 for found in inverses]
    inner = [next((u for u in range(n) if rows[rows[s][u]][s] == s), 0) for s in range(n)]
    return correct, correct[1:] + correct[:1], [n - 1] * n, inner


def assert_candidates_agree(rows):
    """Every candidate star gives what validation without one gives: the oracle's outcome."""
    names = [f"x{i}" for i in range(len(rows))]
    expected = validation_outcome(names, rows)
    star, message = validation_by_definition(names, rows)
    if message is None:
        assert expected.star == star
        e = idempotents_of_table(rows)
        assert expected.idempotent_table.tolist() == [[rows[f][g] for g in e] for f in e]
    else:
        assert expected[0] == message
    for candidate in candidate_involutions(rows):
        for form in (candidate, np.array(candidate, dtype=np.int32)):
            assert validation_outcome(names, rows, form) == expected
    return message


def test_a_candidate_star_changes_no_outcome_on_the_zoo_and_the_data_tables():
    tables = [S.table.tolist() for items in all_semilattices_upto(5).values() for S in items]
    tables += [rows_of_document(path) for path in sorted(DATA.glob("*.sgp"))]
    tables += failing_inverse_tables() + [NO_IDEMPOTENTS, right_zero_band(5)]
    tables.append([[(i + j) % 4 for j in range(4)] for i in range(4)])  # a group: no zero
    messages = [assert_candidates_agree(rows) for rows in tables]
    kinds = {m.split()[0] if m else None for m in messages}
    assert kinds == {"associativity", "element", "no", None}


def test_a_candidate_star_changes_no_outcome_on_corpus_tables(corpus_runs):
    rng = random.Random(41)
    kinds = set()
    for run in corpus_runs:
        for rows in relabellings(run, seeds=(1,)):
            assert assert_candidates_agree(rows) is None, run.label
            if len(rows) <= 50:
                message = assert_candidates_agree(corrupt(rows, rng))
                kinds.add(message.split()[0] if message else None)
    assert {"associativity", "element"} <= kinds


def test_malformed_candidate_stars_are_value_errors():
    rows = [[0, 0], [0, 1]]
    for star in ([0], [0, 2], [-1, 1], [0.0, 1.0], [[0, 1]]):
        with pytest.raises(ValueError, match="star must be 2 element indices"):
            validate_inverse_semigroup(["0", "e"], rows, star)


def test_bisection_tables_verify_the_arrow_inverses_without_a_search(corpus_runs):
    def refuse(t):
        raise AssertionError("the inner-inverse search ran")

    with patch.object(semigroups, "_inner_inverses", refuse):
        for run in corpus_runs:
            bs = bisection_semigroup(run.groupoid, run.masks)
            assert bs.semigroup.star == run.bisection_semigroup.semigroup.star


# -- the verdict per orthogonal block -------------------------------------------


def brandt_blocks(*sizes):
    """The 0-direct union of the matrix units (i, j), i, j < k, of one Brandt block per size.

    Element 0 is the zero; (i, j)(j, l) = (i, l) within a block, and every
    other product is 0.
    """
    units = [(b, i, j) for b, k in enumerate(sizes) for i in range(k) for j in range(k)]
    index = {u: p + 1 for p, u in enumerate(units)}
    rows = [[0] * (len(units) + 1) for _ in range(len(units) + 1)]
    for (b, i, j), p in index.items():
        for (c, k, l), q in index.items():
            if b == c and j == k:
                rows[p][q] = index[(b, i, l)]
    return rows


def relabelled(rows, rng):
    """rows under a random permutation of the elements."""
    n = len(rows)
    new = list(range(n))
    rng.shuffle(new)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[new[x]][new[y]] = new[rows[x][y]]
    return out


def plant_in_a_block(rows, z, rng):
    """A copy of rows with one nonzero product of a block moved to another member of it."""
    rows = [list(row) for row in rows]
    n = len(rows)
    x, a = rng.choice([(x, a) for x in range(n) for a in range(n) if rows[x][a] != z])
    block = next(b for b in product_blocks_by_definition(rows, z) if x in b)
    if len(block) > 1:
        rows[x][a] = rng.choice([v for v in block if v != rows[x][a]])
    return rows


def squares(k):
    """0, x1..xk, w1..wk with xi xi = wi and every other product 0.

    wi is joined to xi by a product only: no nonzero product has wi as a factor.
    """
    rows = [[0] * (2 * k + 1) for _ in range(2 * k + 1)]
    for i in range(1, k + 1):
        rows[i][i] = k + i
    return rows


def cyclic_blocks(*orders):
    """0, then one cyclic group Z_k per order: products add within a group, every other is 0."""
    n = 1 + sum(orders)
    rows = [[0] * n for _ in range(n)]
    start = 1
    for k in orders:
        for i in range(k):
            for j in range(k):
                rows[start + i][start + j] = start + (i + j) % k
        start += k
    return rows


def test_zero_sparse_tables_are_decided_on_their_support():
    rng = random.Random(43)
    shapes = ((7, 1, 3, 1, 2), (1,) * 60, (4, 4, 4), (9,), (12,), (2, 6, 1))
    G = units_groupoid(60)
    units = abstract_table(bisection_semigroup(G, singleton_semigroup(G)), seed=3)[0].table
    tables = [relabelled(brandt_blocks(*sizes), rng) for sizes in shapes]
    tables += [relabelled(squares(30), rng), units.tolist()]
    assert assert_validation_agrees(squares(30)) == "element x1 has 0 generalized inverse(s): ()"
    failing = 0
    for rows in tables:
        assert len(rows) ** 3 > semigroups._BLOCK and decided_on_the_support(rows)
        t = np.array(rows, dtype=np.int32)
        assert drawn_generators(t) == (None, [])
        assert associativity_witness_by_definition(rows) is None
        z = absorbing_by_definition(rows)[0]
        assert semigroups._nonzero_counts(t)[0] == z
        for _ in range(5):
            bad = plant_in_a_block(rows, z, rng)
            t = np.array(bad, dtype=np.int32)
            witness, drawn = drawn_generators(t)
            assert witness == associativity_witness_ascending(t)
            assert (witness is None) == (associativity_witness_by_definition(bad) is None)
            if decided_on_the_support(bad):
                assert [kind for kind, _ in drawn] == ([] if witness is None else ["two-sided"])
            failing += witness is not None
    assert failing > 10


def test_the_count_pass_keeps_the_support_while_it_is_small():
    # units300's 301 x 301 table spans two row blocks and has 300 entries != z:
    # the count pass lists them all while keep allows, and none past it
    G = units_groupoid(300)
    t = abstract_table(bisection_semigroup(G, singleton_semigroup(G)), seed=5)[0].table
    assert len(list(semigroups.row_blocks(len(t), len(t)))) == 2
    z, rows, cols, at = semigroups._nonzero_counts(t, keep=300)
    assert np.array_equal(at, np.flatnonzero(t != z)) and at.dtype == np.intp
    assert semigroups._nonzero_counts(t, keep=299)[3] is None
    assert semigroups._nonzero_counts(t)[3] is None
    assert semigroups._support_associative(t, z, rows, cols, at)
    assert semigroups._support_associative(t, z, rows, cols, None)


def test_dense_blocks_are_decided_whole_by_light_s_test():
    rows = relabelled(cyclic_blocks(20, 25), random.Random(47))  # 46 elements
    assert not decided_on_the_support(rows)
    witness, drawn = drawn_generators(np.array(rows, dtype=np.int32))
    assert witness is None and [kind for kind, _ in drawn] == ["words"]
    assert assert_validation_agrees(rows) is None


def test_each_support_inclusion_rejects_on_its_own():
    # x1 x1 = w1 in squares(30): w1 x2 := w3 puts a nonzero in row w1 outside row x1's
    # support, (ii); x2 w1 := w3 one in column w1 outside column x1's support, (iii)
    x2, w1, w3 = 2, 31, 33
    for cell, conditions, witness in (
        ((w1, x2), (True, False, True), (1, 1, 2)),
        ((x2, w1), (True, True, False), (2, 1, 1)),
    ):
        rows = squares(30)
        rows[cell[0]][cell[1]] = w3
        assert decided_on_the_support(rows)
        assert support_conditions_by_definition(rows, 0) == conditions
        t = np.array(rows, dtype=np.int32)
        found, drawn = drawn_generators(t)
        assert [kind for kind, _ in drawn] == ["two-sided"]
        assert found == witness == associativity_witness_ascending(t)
        assert associativity_witness_by_definition(rows) == witness
        x, a, y = (f"x{i}" for i in witness)
        assert assert_validation_agrees(rows) == f"associativity fails at ({x}, {a}, {y})"


def test_a_triple_planted_in_one_block_gets_the_ascending_witness():
    rng = random.Random(53)
    failing = 0
    for sizes in ((7, 1, 3, 1, 2), (1,) * 45 + (3,), (4, 4, 4), (2, 6, 1)):
        rows = relabelled(brandt_blocks(*sizes), rng)
        z = absorbing_by_definition(rows)[0]
        for _ in range(8):
            bad = plant_in_a_block(rows, z, rng)
            t = np.array(bad, dtype=np.int32)
            witness = associativity_witness(t)
            assert witness == associativity_witness_ascending(t)
            assert (witness is None) == (associativity_witness_by_definition(bad) is None)
            failing += witness is not None
            message = assert_validation_agrees(bad)
            assert (witness is None) == (message is None or not message.startswith("associativity"))
    assert failing > 20


def test_tables_without_an_absorbing_element_are_taken_whole():
    rng = random.Random(59)
    kinds = set()
    for sizes in ((7, 1, 3, 1, 2), (1,) * 45 + (3,)):
        rows = brandt_blocks(*sizes)
        for _ in range(8):
            bad = plant_in_a_block(rows, 0, rng)
            bad[0][rng.randrange(1, len(bad))] = rng.randrange(1, len(bad))  # 0 absorbs no longer
            t = np.array(bad, dtype=np.int32)
            assert not absorbing_by_definition(bad)
            witness, drawn = drawn_generators(t)
            assert drawn[0][0] == "words"
            assert witness == associativity_witness_ascending(t)
            message = assert_validation_agrees(bad)
            kinds.add(message.split()[0])
    assert "associativity" in kinds


def test_the_verdict_draws_as_many_generators_as_before():
    # the counts at the change that ranked rows by their nonzero entries
    for G, count, abstract_count in (
        (units_groupoid(6), 7, 7),
        (units_groupoid(11), 12, 12),
        (pair_groupoid(5), 6, 4),
    ):
        bs = bisection_semigroup(G, enumerate_bisections(G))
        tables = ((bs.semigroup.table, count), (abstract_table(bs)[0].table, abstract_count))
        for t, expected in tables:
            witness, drawn = drawn_generators(t)
            assert witness is None
            assert [(kind, len(gens)) for kind, gens in drawn] == [("words", expected)]


def test_the_commutation_check_reads_every_tile():
    rng = np.random.default_rng(67)
    for m in (1, 127, 128, 129, 300):
        upper = np.triu(rng.integers(0, m, size=(m, m), dtype=np.int32))
        sub = upper + np.triu(upper, 1).T
        assert semigroups._symmetric(sub)
        for _ in range(10):
            bad = sub.copy()
            i, j = rng.integers(0, m, size=2)
            bad[i, j] += 1
            assert semigroups._symmetric(bad) == np.array_equal(bad, bad.T) == (i == j)
