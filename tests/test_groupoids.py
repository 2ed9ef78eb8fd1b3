import random

import pytest

from ample import (
    abstract_table,
    bisection_name,
    bisection_semigroup,
    check_conjugation_lemma,
    enumerate_bisections,
    group_bundle_z2,
    group_groupoid,
    is_bisection,
    lambda_action,
    pair_groupoid,
    range_mask,
    singleton_semigroup,
    slice_inverse,
    slice_product,
    source_mask,
    units_groupoid,
    validate_groupoid,
    validate_inverse_semigroup,
)
from ample.bitsets import iter_bits
from ample.errors import (
    BadComposabilityDomain,
    BadInverse,
    BadUnits,
    BoundExceeded,
    NotClosed,
    OutsideDomain,
)

from oracles import (
    bisections_by_definition,
    product_table_by_definition,
    tables_isomorphic,
)


def test_validate_pair_groupoid():
    G = pair_groupoid(2)
    assert G.arrows == ("u0", "u1", "a01", "a10")
    assert G.units == (0, 1)
    a01, a10 = G.index["a01"], G.index["a10"]
    assert G.d[a01] == G.index["u0"] and G.r[a01] == G.index["u1"]
    assert G.compose[(a10, a01)] == G.index["u0"]
    assert G.inverse[a01] == a10


def test_pair_groupoid_names_stay_distinct_past_ten_units():
    assert pair_groupoid(3).arrows == (
        "u0", "u1", "u2", "a01", "a02", "a10", "a12", "a20", "a21"
    )
    G = pair_groupoid(11)
    assert len(G.arrows) == 121 and len(G.units) == 11
    G = pair_groupoid(12)
    assert len(G.arrows) == 144 and len(G.units) == 12
    a1_11, a11_1 = G.index["a1_11"], G.index["a11_1"]
    assert G.d[a1_11] == G.index["u1"] and G.r[a1_11] == G.index["u11"]
    assert G.inverse[a1_11] == a11_1


def test_validate_units_only():
    G = units_groupoid(3)
    assert len(G.compose) == 3


def test_bad_composability_domain():
    # declare a01 * a01 although d(a01) != r(a01)
    with pytest.raises(BadComposabilityDomain):
        validate_groupoid(
            ["u0", "u1", "a01", "a10"],
            [0, 1],
            [0, 1, 0, 1],
            [0, 1, 1, 0],
            {
                (0, 0): 0,
                (1, 1): 1,
                (2, 0): 2,
                (1, 2): 2,
                (3, 1): 3,
                (0, 3): 3,
                (3, 2): 0,
                (2, 3): 1,
                (2, 2): 0,  # not composable
            },
            [0, 1, 3, 2],
        )


def test_bad_units_and_inverse():
    # the one-unit groupoid itself is fine
    assert len(validate_groupoid(["u"], [0], [0], [0], {(0, 0): 0}, [0])) == 1
    # an arrow whose source is not itself cannot be a unit
    with pytest.raises(BadUnits):
        validate_groupoid(
            ["u", "v"], [0, 1], [0, 0], [0, 1], {(0, 0): 0, (0, 1): 1}, [0, 1]
        )
    with pytest.raises(BadInverse):
        validate_groupoid(
            ["u", "v"],
            [0, 1],
            [0, 1],
            [0, 1],
            {(0, 0): 0, (1, 1): 1},
            [1, 0],  # swaps the two isolated units
        )


def test_slice_products_of_singletons():
    G = pair_groupoid(2)
    a01, a10 = G.index["a01"], G.index["a10"]
    assert slice_product(G, 1 << a01, 1 << a10) == 1 << G.index["u1"]
    assert slice_product(G, 1 << a01, 1 << a01) == 0
    u0, u1 = G.index["u0"], G.index["u1"]
    # unit subsets multiply as intersections
    assert slice_product(G, (1 << u0) | (1 << u1), 1 << u0) == 1 << u0


def test_slice_regularity_exhaustive():
    G = pair_groupoid(2)
    for s in enumerate_bisections(G):
        sstar = slice_inverse(G, s)
        assert slice_product(G, slice_product(G, s, sstar), s) == s


def test_unit_subsets_intersect():
    G = units_groupoid(3)
    for u in range(8):
        for v in range(8):
            assert slice_product(G, u, v) == u & v


def test_enumerate_bisections_pair2_oracle():
    G = pair_groupoid(2)
    got = enumerate_bisections(G)
    assert list(got) == bisections_by_definition(G)
    assert len(got) == 7
    names = {bisection_name(G, m) for m in got}
    assert names == {"0", "u0", "u1", "u0+u1", "a01", "a10", "a01+a10"}


def test_enumerate_bisections_units_only():
    G = units_groupoid(3)
    assert len(enumerate_bisections(G)) == 8  # all subsets of units


def test_enumerate_bisections_z2():
    G = group_groupoid(2)
    got = enumerate_bisections(G)
    assert len(got) == 3  # 0, {e}, {c1}: the pair fails injectivity
    assert list(got) == bisections_by_definition(G)


def test_enumerate_bisections_bound():
    with pytest.raises(BoundExceeded):
        enumerate_bisections(pair_groupoid(4), max_candidates=10)


def test_singleton_semigroup_closure_and_basis():
    G = pair_groupoid(2)
    sing = singleton_semigroup(G)
    assert len(sing) == 5
    have = set(sing)
    for s in sing:
        for t in sing:
            assert slice_product(G, s, t) in have
        assert slice_inverse(G, s) in have
    # a basis: every arrow's singleton is a member
    assert all(1 << a in have for a in range(len(G.arrows)))


def test_bisection_semigroup_not_closed():
    G = pair_groupoid(2)
    with pytest.raises(NotClosed):
        bisection_semigroup(G, [0, 1 << G.index["a01"]])  # inverse missing


def test_bisection_table_matches_slice_products(corpus_runs):
    for run in corpus_runs:
        bs = run.bisection_semigroup
        got = [[bs.bits[v] for v in row] for row in bs.semigroup.table]
        assert got == product_table_by_definition(run.groupoid, run.masks), run.label


def test_bisection_table_with_keys_over_several_unit_runs():
    # 64 arrows give radix-65 digits, so a section of 8 units is read in two runs
    G = pair_groupoid(8)
    masks = singleton_semigroup(G)
    bs = bisection_semigroup(G, masks)
    got = [[bs.bits[v] for v in row] for row in bs.semigroup.table]
    assert got == product_table_by_definition(G, masks)
    extra = (1 << G.index["a01"]) | (1 << G.index["a76"])
    with pytest.raises(NotClosed) as exc:
        bisection_semigroup(G, [*masks, extra])
    assert exc.value.witness == first_gap_by_definition(G, [*masks, extra])


def first_gap_by_definition(G, masks):
    """The NotClosed witness of the row-major product scan, then of inverses."""
    ordered = sorted(set(masks))
    have = set(ordered)
    for s, row in zip(ordered, product_table_by_definition(G, ordered)):
        for t, st in zip(ordered, row):
            if st not in have:
                return (bisection_name(G, s), bisection_name(G, t))
    for s in ordered:
        if slice_inverse(G, s) not in have:
            return (f"inverse of {bisection_name(G, s)} missing", None)
    return None


def test_not_closed_witness_is_first_in_row_major_order(corpus_groupoids):
    rng = random.Random(11)
    raised = 0
    for name, G in corpus_groupoids.items():
        full = enumerate_bisections(G)
        for base in (singleton_semigroup(G), full):
            if len(base) > 100:
                continue
            for _ in range(3):
                masks = set(base)
                masks.discard(rng.choice([m for m in base if m]))
                masks.add(rng.choice(full))
                masks.add(0)
                expected = first_gap_by_definition(G, masks)
                if expected is None:
                    bisection_semigroup(G, masks)
                    continue
                with pytest.raises(NotClosed) as exc:
                    bisection_semigroup(G, masks)
                assert exc.value.witness == expected, name
                raised += 1
    assert raised >= 40


def test_bisection_semigroup_validates():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    assert len(bs.semigroup) == 7
    assert bs.semigroup.elements[bs.semigroup.zero] == "0"
    # idempotent bisections are exactly the unit subsets
    for e in bs.semigroup.idempotents:
        assert bs.bits[e] & ~G.units_mask == 0
    for m in enumerate_bisections(G):
        if m & ~G.units_mask == 0:
            assert bs.semigroup.is_idempotent(bs.element_of[m])


def test_bisection_semilattice_order():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    from ample import idempotent_semilattice

    E = idempotent_semilattice(bs.semigroup)
    ux = E.position[bs.semigroup.index["u0"]]
    top = E.position[bs.semigroup.index["u0+u1"]]
    assert E.down_masks[top] >> ux & 1 and E.up_masks[ux] >> top & 1
    assert E.intersect_masks[top] >> ux & 1
    assert E.orth_masks[ux] >> E.position[bs.semigroup.index["u1"]] & 1


def test_abstract_table_erases_geometry():
    G = pair_groupoid(2)
    sing = singleton_semigroup(G)
    T, audit = abstract_table(bisection_semigroup(G, sing), seed=0)
    assert len(T) == 5
    assert all(name.startswith("x") for name in T.elements)
    assert len(T.idempotents) == 3  # empty set plus the two unit singletons
    assert sorted(audit.bisections) == list(sing)
    # the audit really is the hidden bijection: products match geometry
    for a in range(len(T)):
        for b in range(len(T)):
            assert (
                slice_product(G, audit.bisections[a], audit.bisections[b])
                == audit.bisections[T.table[a][b]]
            )


def test_abstract_table_full_collection():
    G = pair_groupoid(2)
    T, _ = abstract_table(bisection_semigroup(G, enumerate_bisections(G)), seed=1)
    assert len(T) == 7
    assert len(T.idempotents) == 4


def test_abstract_table_zero_semigroup():
    G = pair_groupoid(2)
    T, _ = abstract_table(bisection_semigroup(G, [0]), seed=0)
    assert len(T) == 1
    assert T.zero == 0


def test_abstract_tables_under_different_seeds_are_isomorphic():
    G = pair_groupoid(2)
    sing = singleton_semigroup(G)
    T0, _ = abstract_table(bisection_semigroup(G, sing), seed=0)
    T1, _ = abstract_table(bisection_semigroup(G, sing), seed=6)
    assert T0.elements == T1.elements
    assert tables_isomorphic(T0.table, T1.table)


def test_lambda_action():
    G = pair_groupoid(2)
    a01 = G.index["a01"]
    assert lambda_action(G, 1 << a01, G.index["u0"]) == G.index["u1"]
    u0 = G.index["u0"]
    assert lambda_action(G, 1 << u0, u0) == u0
    with pytest.raises(OutsideDomain):
        lambda_action(G, 1 << a01, G.index["u1"])


def test_lambda_inverse_roundtrip():
    G = pair_groupoid(2)
    for s in enumerate_bisections(G):
        for u in iter_bits(source_mask(G, s)):
            assert lambda_action(G, slice_inverse(G, s), lambda_action(G, s, u)) == u


def test_lambda_is_an_action():
    G = pair_groupoid(2)
    for s in enumerate_bisections(G):
        for t in enumerate_bisections(G):
            st = slice_product(G, s, t)
            for u in iter_bits(source_mask(G, st)):
                via = lambda_action(G, s, lambda_action(G, t, u))
                assert via == lambda_action(G, st, u)
    # and d(ST) stays inside d(T), r(ST) inside r(S)
    for s in enumerate_bisections(G):
        for t in enumerate_bisections(G):
            st = slice_product(G, s, t)
            assert source_mask(G, st) & ~source_mask(G, t) == 0
            assert range_mask(G, st) & ~range_mask(G, s) == 0


def test_conjugation_lemma_trivial_cases():
    G = pair_groupoid(2)
    all_units = G.units_mask
    for s in enumerate_bisections(G):
        assert check_conjugation_lemma(G, s, all_units)
        assert check_conjugation_lemma(G, s, 0)


def test_conjugation_lemma_exhaustive_pair2():
    G = pair_groupoid(2)
    bis = enumerate_bisections(G)
    unit_subsets = [m for m in bis if m & ~G.units_mask == 0]
    for s in bis:
        for u in unit_subsets:
            assert check_conjugation_lemma(G, s, u)


def test_group_bundle_bisections():
    G = group_bundle_z2()
    got = enumerate_bisections(G)
    assert len(got) == 9  # 3 choices per unit component
    assert all(is_bisection(G, m) for m in got)


def test_bisection_semigroup_vs_plain_validate():
    # the induced table really is an inverse semigroup table
    G = group_groupoid(3)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    again = validate_inverse_semigroup(bs.semigroup.elements, bs.semigroup.table)
    assert again == bs.semigroup
