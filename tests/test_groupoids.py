import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ample import (
    AlgebraElement,
    FiniteGroupoid,
    abstract_table,
    bisection_name,
    bisection_semigroup,
    build_germ_model,
    corpus,
    disjoint_union,
    enumerate_bisections,
    group_bundle_z2,
    group_groupoid,
    is_bisection,
    pair_groupoid,
    parse_groupoid,
    singleton_semigroup,
    slice_product,
    units_groupoid,
    validate_groupoid,
    validate_inverse_semigroup,
    write_groupoid,
)
from ample import groupoids
from ample.bitsets import iter_bits, mask_of
from ample.errors import AmpleError, BoundExceeded, CheckFailed, ValidationError

from lemmas import (
    check_conjugation_lemma,
    element_of,
    lambda_action,
    slice_inverse,
    source_mask,
    unit_cover,
)
from oracles import (
    bisections_by_definition,
    compose_array,
    is_idempotent,
    product_table_by_definition,
    range_mask,
    tables_isomorphic,
    validate_groupoid_by_definition,
)

DATA = Path(__file__).parent / "data"


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


def test_corpus_constructors_keep_their_arrow_order():
    # units first, then each part's other arrows, A before B
    G = disjoint_union(pair_groupoid(2), group_groupoid(2))
    assert G.arrows == ("A.u0", "A.u1", "B.e", "A.a01", "A.a10", "B.c1")
    assert (G.units, G.d, G.r) == ((0, 1, 2), (0, 1, 2, 0, 1, 2), (0, 1, 2, 1, 0, 2))
    assert G.inverse == (0, 1, 2, 4, 3, 5)
    assert pair_groupoid(0).arrows == pair_groupoid(0).units == ()
    assert pair_groupoid(0).d == pair_groupoid(0).r == pair_groupoid(0).inverse == ()
    G = pair_groupoid(1)
    assert (G.arrows, G.units, G.d, G.r, G.inverse) == (("u0",), (0,), (0,), (0,), (0,))


def test_validate_units_only():
    G = units_groupoid(3)
    assert G.compose.shape == (3, 3)
    assert np.count_nonzero(G.compose >= 0) == 3  # one declared pair per unit


def test_bad_composability_domain():
    # declare a01 * a01 although d(a01) != r(a01)
    with pytest.raises(ValidationError, match=r"product a01\*a01 declared but d\(a01\)"):
        validate_groupoid(
            ["u0", "u1", "a01", "a10"],
            [0, 1],
            [0, 1, 0, 1],
            [0, 1, 1, 0],
            compose_array(4, {
                (0, 0): 0,
                (1, 1): 1,
                (2, 0): 2,
                (1, 2): 2,
                (3, 1): 3,
                (0, 3): 3,
                (3, 2): 0,
                (2, 3): 1,
                (2, 2): 0,  # not composable
            }),
            [0, 1, 3, 2],
        )


def test_bad_units_and_inverse():
    # the one-unit groupoid itself is fine
    assert len(validate_groupoid(["u"], [0], [0], [0], compose_array(1, {(0, 0): 0}), [0])) == 1
    # an arrow whose source is not itself cannot be a unit
    with pytest.raises(ValidationError, match="unit v must have d = r = itself"):
        validate_groupoid(
            ["u", "v"], [0, 1], [0, 0], [0, 1], compose_array(2, {(0, 0): 0, (0, 1): 1}), [0, 1]
        )
    with pytest.raises(ValidationError, match="inverse bookkeeping fails at arrow u"):
        validate_groupoid(
            ["u", "v"],
            [0, 1],
            [0, 1],
            [0, 1],
            compose_array(2, {(0, 0): 0, (1, 1): 1}),
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


def test_enumerate_bisections_matches_the_definition(corpus_groupoids):
    groupoids = [
        *corpus_groupoids.values(),
        disjoint_union(pair_groupoid(3), group_groupoid(3)),
        disjoint_union(pair_groupoid(2), pair_groupoid(3)),
    ]
    for G in groupoids:
        assert list(enumerate_bisections(G)) == bisections_by_definition(G)


def test_element_names_are_the_joined_arrow_names():
    G = pair_groupoid(3)
    full = enumerate_bisections(G)
    rng = random.Random(37)
    families = [full, singleton_semigroup(G)]
    while len(families) < 6:  # product- and inverse-closed, not subset-closed
        masks = closed_family(G, {0, *rng.sample(full, 3)})
        if any(m & (m - 1) not in masks for m in masks):
            families.append(masks)
    for masks in families:
        bs = bisection_semigroup(G, masks)
        expected = ["+".join(G.arrows[a] for a in iter_bits(m)) or "0" for m in bs.bits]
        assert list(bs.semigroup.elements) == expected


def test_enumerate_bisections_bound(monkeypatch):
    G = pair_groupoid(4)  # four source fibers of four arrows: 5^4 = 625 candidates
    assert len(enumerate_bisections(G)) == 209
    monkeypatch.setattr(groupoids, "MAX_BISECTION_CANDIDATES", 624)
    with pytest.raises(BoundExceeded, match="would scan > 624 candidates"):
        enumerate_bisections(G)
    monkeypatch.setattr(groupoids, "MAX_BISECTION_CANDIDATES", 625)
    assert len(enumerate_bisections(G)) == 209


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
    with pytest.raises(ValidationError, match="inverse of a01 missing") as exc:
        bisection_semigroup(G, [0, 1 << G.index["a01"]])
    assert exc.value.witness == ("inverse of a01 missing", None)


def test_bisection_table_matches_slice_products(corpus_runs):
    for run in corpus_runs:
        bs = run.bisection_semigroup
        got = [[bs.bits[v] for v in row] for row in bs.semigroup.table]
        assert got == product_table_by_definition(run.groupoid, run.masks), run.label


def recorded_indexes(monkeypatch):
    """The digit-code indexes that bisection_semigroup builds, in order."""
    made = []

    class Recording(groupoids._SectionIndex):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(groupoids, "_SectionIndex", Recording)
    return made


def test_bisection_table_with_keys_over_several_unit_runs(monkeypatch):
    # pair8's and pair20's source fibers of 8 and 20 arrows give radix-9 and
    # radix-21 digits, and units40's give radix-2 digits; no family's codes
    # fit one run below 2^16, so each product is found over several runs; the
    # index keeps each run's units and slot count, (live + 1) * span, which
    # bounds every code, so the float64 sums of a run's matrix product are exact
    made = recorded_indexes(monkeypatch)
    for G, runs in (
        (pair_groupoid(8), 3),
        (units_groupoid(40), 4),
        (pair_groupoid(20), 15),
        (units_groupoid(300), 35),
    ):
        masks = singleton_semigroup(G)
        bs = bisection_semigroup(G, masks)
        assert len(made[-1].runs) == runs
        assert all(slots <= 1 << 16 for _, slots in made[-1].runs)
        got = [[bs.bits[v] for v in row] for row in bs.semigroup.table]
        assert got == product_table_by_definition(G, masks)
    G = pair_groupoid(8)
    masks = singleton_semigroup(G)
    extra = (1 << G.index["a01"]) | (1 << G.index["a76"])
    with pytest.raises(ValidationError, match=r"inverse of a01\+a76 missing") as exc:
        bisection_semigroup(G, [*masks, extra])
    assert exc.value.witness == first_gap_by_definition(G, [*masks, extra])


def first_gap_by_definition(G, masks):
    """The witness of the row-major product scan, then of inverses."""
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


def test_digit_index_gaps_that_die_in_the_first_and_in_the_last_run(monkeypatch):
    made = recorded_indexes(monkeypatch)
    G = units_groupoid(40)

    def units(*ks):
        return mask_of(G.units[k] for k in ks)

    # the product u1+u2 is missing, and no member starts like it
    first = [*singleton_semigroup(G), units(0, 1, 2), units(1, 2, 3)]
    # the product u38+u39 is missing, and it agrees with the member u38 on
    # every unit but the last
    last = [*singleton_semigroup(G), units(37, 38, 39), units(0, 38, 39)]
    for masks in (first, last):
        with pytest.raises(ValidationError, match="not closed at product") as exc:
            bisection_semigroup(G, masks)
        assert exc.value.witness == first_gap_by_definition(G, masks)
    (head, *_), (*_, tail) = (
        [units(*range(run.start, run.stop)) for run, *_ in index.runs] for index in made
    )
    assert min(len(index.runs) for index in made) >= 3
    assert units(1, 2) & head not in {m & head for m in first}
    assert units(38, 39) & ~tail in {m & ~tail for m in last}


def test_bisection_tables_with_fibers_of_two_sizes_in_one_run(monkeypatch):
    # pair3 + z4's source fibers of 3 and 4 arrows, and bundle2xZ2 + units3's
    # of 2 and 1, share one run, so the run's one-hot matrix has a block of
    # rows per unit, each as tall as that unit's fiber
    made = recorded_indexes(monkeypatch)
    for G in (
        disjoint_union(pair_groupoid(3), group_groupoid(4)),
        disjoint_union(group_bundle_z2(), units_groupoid(3)),
    ):
        assert len({len(fiber) for fiber in G.d_fibers.values()}) == 2
        masks = enumerate_bisections(G)
        bs = bisection_semigroup(G, masks)
        [(_, slots)] = made[-1].runs
        assert slots <= 1 << 16
        got = [[bs.bits[v] for v in row] for row in bs.semigroup.table]
        assert got == product_table_by_definition(G, masks)
        assert [bs.bits[v] for v in bs.semigroup.star] == [slice_inverse(G, m) for m in masks]


def test_bisection_table_of_the_groupoid_without_units():
    G = validate_groupoid([], [], [], [], np.zeros((0, 0), dtype=np.int32), [])
    bs = bisection_semigroup(G, [0])
    assert bs.semigroup.table.tolist() == [[0]] == product_table_by_definition(G, [0])
    assert bs.semigroup.elements == ("0",) and bs.semigroup.zero == 0
    with pytest.raises(ValidationError, match="empty bisection must belong"):
        bisection_semigroup(G, [])


def test_masks_that_are_no_sets_of_arrows_are_value_errors():
    # a mask past the arrows indexed past G.arrows, and a float failed on &
    G = pair_groupoid(2)
    for masks, message in [
        ([0, 16], "mask 16 is not a set of the 4 arrows"),
        ([0, 1, -1], "mask -1 is not a set of the 4 arrows"),
        ([0, 1.5], "mask 1.5 is not an integer"),
    ]:
        with pytest.raises(ValueError) as exc:
            bisection_semigroup(G, masks)
        assert str(exc.value) == message


def closed_family(G, masks):
    """The masks closed under products and inverses, one pair at a time."""
    masks = set(masks)
    while True:
        more = {slice_product(G, s, t) for s in masks for t in masks}
        more |= {slice_inverse(G, s) for s in masks}
        if more <= masks:
            return masks
        masks |= more


def test_random_subfamilies_of_pair3_bisections():
    G = pair_groupoid(3)
    full = enumerate_bisections(G)
    rng = random.Random(16)
    closed = raised = 0
    for _ in range(60):
        masks = {0, *rng.sample(full, rng.randint(1, 8))}
        if rng.random() < 0.5:
            masks = closed_family(G, masks)
        expected = first_gap_by_definition(G, masks)
        if expected is None:
            bs = bisection_semigroup(G, masks)
            got = [[bs.bits[v] for v in row] for row in bs.semigroup.table]
            assert got == product_table_by_definition(G, masks)
            closed += 1
            continue
        with pytest.raises(ValidationError, match="not closed at product|missing$") as exc:
            bisection_semigroup(G, masks)
        assert exc.value.witness == expected
        raised += 1
    assert closed >= 20 and raised >= 20


def test_the_first_member_that_is_not_a_bisection_is_named():
    G = pair_groupoid(2)
    u0, u1, a01, a10 = (1 << G.index[x] for x in ("u0", "u1", "a01", "a10"))
    # u0+a01 and u1+a10 repeat a source, u1+a01 and u0+a10 a range
    for masks, first in (
        ([u1 | a01, u0 | a01, u0 | a10], "u0+a01"),
        ([u0 | a10, u1 | a10, u1 | a01], "u1+a01"),
        ([u1 | a10, u0 | a10], "u0+a10"),
    ):
        message = f"{first} is not a bisection"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as exc:
            bisection_semigroup(G, [0, *masks])
        assert exc.value.witness == (message, None)


def test_bisections_whose_names_clash_are_named():
    # '+' and '0' may appear in arrow names, so joined names can coincide
    sections = "arrows { } compose { } inverse { }"
    for units, collection, first in (
        ("0", singleton_semigroup, "[] and ['0'] share the name 0"),
        ("u v u+v", enumerate_bisections, "['u', 'v'] and ['u+v'] share the name u+v"),
        # {u, v, w} and {u+v, w} clash too, and so do {v, w} and {v+w}, at larger masks
        ("u v u+v w v+w", enumerate_bisections, "['u', 'v'] and ['u+v'] share the name u+v"),
    ):
        G = parse_groupoid(f"groupoid {{ units {{ {units} }} {sections} }}")
        message = f"bisections {first}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as exc:
            bisection_semigroup(G, collection(G))
        assert exc.value.witness == (message, None)
    G = parse_groupoid(f"groupoid {{ units {{ u v u+v }} {sections} }}")
    assert len(bisection_semigroup(G, singleton_semigroup(G)).semigroup) == 4


def test_bisection_names_join_the_arrow_names_in_ascending_order():
    # '+' and '0' inside arrow names, and masks past 64 arrows
    units = ["0", "u+v", "w", "x+0", "0+0"] + [f"v{i}" for i in range(70)]
    sections = "arrows { } compose { } inverse { }"
    G = parse_groupoid(f"groupoid {{ units {{ {' '.join(units)} }} {sections} }}")
    rng = random.Random(61)
    full = (1 << len(G.arrows)) - 1
    masks = [0, 1, 2, 3, 16, 31, full, 1 << 74]
    masks += [rng.getrandbits(len(G.arrows)) for _ in range(300)]
    masks += [rng.getrandbits(5) for _ in range(30)]
    for mask in masks:
        expected = "+".join(G.arrows[a] for a in iter_bits(mask)) if mask else "0"
        assert bisection_name(G, mask) == expected
    assert G.arrows[:5] == tuple(units[:5])
    assert bisection_name(G, 0b10001) == "0+0+0" and bisection_name(G, 0b1001) == "0+x+0"


def _unchecked_pair2(product_of_u1_u1):
    """pair2 with u1*u1 redefined, built without validate_groupoid."""
    G = pair_groupoid(2)
    compose = G.compose.copy()
    compose[G.index["u1"], G.index["u1"]] = G.index[product_of_u1_u1]
    return FiniteGroupoid(G.arrows, G.units, G.d, G.r, compose, G.inverse)


def test_a_product_that_is_not_a_bisection_is_still_reported():
    # a10 keeps the source u1 but has range u0, so (u0+u1)(u0+u1) = u0+a10
    # meets u0 twice
    G = _unchecked_pair2("a10")
    with pytest.raises(CheckFailed, match="product of bisections must be a bisection"):
        bisection_semigroup(G, enumerate_bisections(G))


def test_broken_source_bookkeeping_raises_instead_of_aliasing_a_digit():
    # a01 has source u0, and its digit in u0's fiber is the digit of a10 in
    # u1's, so read at u1 the product u1*u1 would pass for the member a10
    G = _unchecked_pair2("a01")
    for masks in (singleton_semigroup(G), enumerate_bisections(G)):
        with pytest.raises(CheckFailed, match="source of its right factor"):
            bisection_semigroup(G, masks)


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
                with pytest.raises(ValidationError, match="not closed at product|missing$") as exc:
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
            assert is_idempotent(bs.semigroup, element_of(bs)[m])


def test_bisection_semilattice_order():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    from ample import idempotent_semilattice

    E = idempotent_semilattice(bs.semigroup)
    ux = int(E.positions[bs.semigroup.index["u0"]])
    top = int(E.positions[bs.semigroup.index["u0+u1"]])
    assert E.down_masks[top] >> ux & 1 and E.up_masks[ux] >> top & 1
    assert E.intersect_masks[top] >> ux & 1
    assert E.orth_masks[ux] >> int(E.positions[bs.semigroup.index["u1"]]) & 1


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
    with pytest.raises(ValidationError, match="unit u1 is not in the source set of a01"):
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


def _validator_outcome(validate, args):
    """The validated groupoid, or the error's type and message."""
    try:
        return validate(*args)
    except (AmpleError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _mutations(G, rng):
    """Validator arguments for G with one seeded fault each (or none)."""
    n = len(G)
    base = (G.arrows, G.units, G.d, G.r)
    declared = list(zip(*np.nonzero(G.compose >= 0)))
    absent = list(zip(*np.nonzero(G.compose < 0)))
    hom = {}
    for a in range(n):
        hom.setdefault((G.d[a], G.r[a]), []).append(a)
    yield base + (G.compose, G.inverse)

    def with_entry(key, value):
        compose = G.compose.copy()
        compose[key] = value
        return base + (compose, G.inverse)

    for _ in range(4 if n > 1 else 0):
        a, b = rng.choice(declared)
        c = int(G.compose[a, b])
        yield with_entry((a, b), rng.choice([x for x in range(n) if x != c]))  # changed product
        same = [x for x in hom[(G.d[c], G.r[c])] if x != c]
        if same:  # bookkeeping kept, so the unit laws or associativity must catch it
            yield with_entry((a, b), rng.choice(same))
        yield with_entry((a, b), -1)  # dropped pair
        if absent:
            yield with_entry(rng.choice(absent), rng.randrange(n))  # extra pair
        x, y = rng.sample(range(n), 2)
        inverse = list(G.inverse)
        inverse[x], inverse[y] = inverse[y], inverse[x]
        yield base + (G.compose, inverse)  # swapped inverse
        a = rng.randrange(n)
        key = rng.choice([(a, G.d[a]), (G.r[a], a)])
        others = [x for x in hom[(G.d[a], G.r[a])] if x != a] or [x for x in range(n) if x != a]
        yield with_entry(key, rng.choice(others))  # broken unit law


def pair_times_cyclic(n, k):
    """Arrows (i -> j, g) for units i, j < n and g in Z/k: every hom-set has k arrows."""
    arrows = [(i, j, g) for g in range(k) for i in range(n) for j in range(n)]
    index = {x: a for a, x in enumerate(arrows)}
    compose = compose_array(len(arrows), {
        (index[(j, m, h)], index[(i, j, g)]): index[(i, m, (g + h) % k)]
        for i, j, g in arrows for m in range(n) for h in range(k)
    })
    return validate_groupoid(
        [f"a{i}{j}g{g}" for i, j, g in arrows],
        [index[(i, i, 0)] for i in range(n)],
        [index[(i, i, 0)] for i, _, _ in arrows],
        [index[(j, j, 0)] for _, j, _ in arrows],
        compose,
        [index[(j, i, -g % k)] for i, j, g in arrows],
    )


# The phrase of each validator message and the groupoid law it names.
BROKEN_LAWS = (
    ("declared but", "an extra pair"),
    ("no declared product", "a missing pair"),
    ("breaks source/range", "bookkeeping"),
    ("must have d = r", "units"),
    ("non-unit source", "units"),
    ("unit laws fail", "units"),
    ("associativity fails", "associativity"),
    ("inverse bookkeeping", "inverse bookkeeping"),
    ("compose to", "inverse products"),
)


def test_validator_matches_definition_under_mutation(corpus_groupoids):
    rng = random.Random(17)
    groupoids = [
        *corpus_groupoids.values(),
        group_groupoid(6),
        pair_groupoid(12),
        pair_times_cyclic(3, 2),
        pair_times_cyclic(2, 3),
        parse_groupoid((DATA / "pair2.gpd").read_text()),
    ]
    seen = Counter()
    for G in groupoids:
        for args in _mutations(G, rng):
            fast = _validator_outcome(validate_groupoid, args)
            slow = _validator_outcome(validate_groupoid_by_definition, args)
            assert fast == slow, (G.arrows[:4], fast)
            kind = "valid"
            if isinstance(fast, tuple):
                law = next((law for phrase, law in BROKEN_LAWS if phrase in fast[1]), "")
                kind = f"{fast[0]}: {law}"
            seen[kind] += 1
    assert seen["valid"] >= len(groupoids), seen
    for law in dict(BROKEN_LAWS).values():
        assert seen[f"ValidationError: {law}"] >= 1, (law, seen)


def test_bookkeeping_witness_is_the_first_in_row_major_order():
    # Both products break the bookkeeping.  The document lists a10*a01
    # first, but a01*a10 comes first in row-major order and is reported.
    text = (DATA / "pair2.gpd").read_text()
    text = text.replace(
        "    a01 a10 = u1\n    a10 a01 = u0\n", "    a10 a01 = a10\n    a01 a10 = a01\n"
    )
    assert "a10 a01 = a10\n    a01 a10 = a01" in text
    with pytest.raises(ValidationError, match=r"product a01\*a10 = a01 breaks"):
        parse_groupoid(text)


def test_every_constructor_yields_a_read_only_int32_compose():
    G = pair_groupoid(2)
    T, _ = abstract_table(bisection_semigroup(G, enumerate_bisections(G)), seed=3)
    as_lists = G.compose.tolist()
    built = [
        parse_groupoid((DATA / "pair2.gpd").read_text()),
        parse_groupoid(write_groupoid(group_bundle_z2())),
        validate_groupoid(G.arrows, G.units, G.d, G.r, as_lists, G.inverse),
        validate_groupoid(G.arrows, G.units, G.d, G.r, np.array(as_lists), G.inverse),  # int64
        pair_groupoid(12),
        group_groupoid(5),
        units_groupoid(3),
        group_bundle_z2(),
        disjoint_union(group_groupoid(3), pair_groupoid(3)),
        *corpus().values(),
        build_germ_model(T).groupoid,
    ]
    for H in built:
        n = len(H)
        assert H.compose.dtype == np.int32 and H.compose.shape == (n, n)
        with pytest.raises(ValueError):
            H.compose[0, 0] = 0
        with pytest.raises(TypeError):
            hash(H)
        # a product on exactly the composable pairs, -1 elsewhere
        composable = np.array([[H.d[a] == H.r[b] for b in range(n)] for a in range(n)])
        assert np.array_equal(H.compose >= 0, composable)
        assert H.compose.min() >= -1
    assert validate_groupoid(G.arrows, G.units, G.d, G.r, as_lists, G.inverse) == G


def test_validate_groupoid_rejects_a_malformed_composition_array():
    G = pair_groupoid(2)
    args = (G.arrows, G.units, G.d, G.r)
    with pytest.raises(ValueError, match="composition must be 4x4"):
        validate_groupoid(*args, G.compose[:3], G.inverse)
    for bad in (-2, 4):
        compose = G.compose.copy()
        compose[1, 3] = bad
        with pytest.raises(ValueError, match=f"composition value {bad} out of range"):
            validate_groupoid(*args, compose, G.inverse)


def test_validate_groupoid_rejects_non_integer_indices():
    with pytest.raises(ValueError, match=r"arrow index 0\.9 is not an integer"):
        validate_groupoid(["u"], [0.9], [0.2], [0], np.array([[0.4]]), [0])
    with pytest.raises(ValueError, match=r"arrow index 0\.2 is not an integer"):
        validate_groupoid(["u"], [0], [0.2], [0], np.array([[0]]), [0])
    with pytest.raises(ValueError, match=r"composition value 0\.4 is not an integer"):
        validate_groupoid(["u"], [0], [0], [0], np.array([[0.4]]), [0])
    with pytest.raises(ValueError, match="composition value '0' is not an integer"):
        validate_groupoid(["u"], [0], [0], [0], [["0"]], [0])
    G = validate_groupoid(["u"], np.array([0]), [np.int64(0)], [0], [[0]], [0])
    assert G.units == (0,) and type(G.d[0]) is int


def test_validate_groupoid_rejects_malformed_arrow_lists():
    G = pair_groupoid(2)
    names, units, d, r, compose, inverse = (
        G.arrows, G.units, G.d, G.r, G.compose, G.inverse
    )
    cases = [
        ((["u0", "u1", "a01", "u0"], units, d, r, inverse), "duplicate arrow names"),
        ((names, units, d[:3], r, inverse), "d, r and inverse must cover every arrow"),
        ((names, units, d, r + (0,), inverse), "d, r and inverse must cover every arrow"),
        ((names, units, d, r, inverse[:3]), "d, r and inverse must cover every arrow"),
        ((names, units, d, r, (0, 1, 3, 4)), "arrow index 4 out of range"),
        ((names, (0, -1), d, r, inverse), "arrow index -1 out of range"),
        ((names, (0, 1, 0), d, r, inverse), "duplicate units"),
    ]
    for (arrows, us, ds, rs, inv), message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            validate_groupoid(arrows, us, ds, rs, compose, inv)
    # u1 is no unit, so it is a source and range outside the units
    with pytest.raises(ValidationError, match="^arrow u1 has non-unit source or range$"):
        validate_groupoid(names, [0], d, r, compose, inverse)
    # a's source u is a unit but its range is a itself
    with pytest.raises(ValidationError, match="^arrow a has non-unit source or range$"):
        validate_groupoid(["u", "a"], [0], [0, 0], [0, 1], compose_array(2, {(0, 0): 0}), [0, 1])


def test_groupoid_equality_compares_the_composition():
    G = group_groupoid(3)
    H = parse_groupoid(write_groupoid(G))
    assert H == G and H.compose is not G.compose
    swapped = G.compose.copy()
    swapped[1, 1], swapped[1, 2] = swapped[1, 2], swapped[1, 1]
    assert FiniteGroupoid(G.arrows, G.units, G.d, G.r, swapped, G.inverse) != G
    for K in (*corpus().values(), pair_groupoid(12), build_germ_model(
        bisection_semigroup(G, enumerate_bisections(G)).semigroup
    ).groupoid):
        assert parse_groupoid(write_groupoid(K)) == K


def _pair_product(G, a, b):
    """The arrow d(b) -> r(a) of a pair groupoid when d(a) = r(b), else None."""
    if G.d[a] != G.r[b]:
        return None
    (c,) = [x for x in range(len(G)) if G.d[x] == G.d[b] and G.r[x] == G.r[a]]
    return c


def test_products_past_bit_31_are_python_ints():
    G = pair_groupoid(12)  # 144 arrows
    rng = random.Random(12)
    bisections = []
    for _ in range(30):
        mask, used_d, used_r = 0, set(), set()
        for a in rng.sample(range(40, len(G)), 8):
            if G.d[a] not in used_d and G.r[a] not in used_r:
                mask |= 1 << a
                used_d.add(G.d[a])
                used_r.add(G.r[a])
        bisections.append(mask)
    assert min(s.bit_length() for s in bisections) > 40
    for s in bisections[:10]:
        for t in bisections:
            expected = 0
            want = {}
            f = AlgebraElement(G, {a: Fraction(a, 7) for a in iter_bits(s)})
            g = AlgebraElement(G, {b: Fraction(3, b) for b in iter_bits(t)})
            for a, fa in f.coeffs.items():
                for b, gb in g.coeffs.items():
                    c = _pair_product(G, a, b)
                    if c is not None:
                        expected |= 1 << c
                        want[c] = want.get(c, 0) + fa * gb
            got = slice_product(G, s, t)
            assert type(got) is int and got == expected
            coeffs = (f * g).coeffs
            assert all(type(c) is int for c in coeffs)
            assert coeffs == {c: v for c, v in want.items() if v}
    for s in bisections:
        for u in (rng.getrandbits(12) for _ in range(10)):  # unit subsets
            assert check_conjugation_lemma(G, s, u)
    S = bisection_semigroup(G, singleton_semigroup(G)).semigroup
    cover = unit_cover(S)
    assert all(type(e) is int for e in cover)
    assert sorted(cover) == sorted(S.index[G.arrows[u]] for u in G.units)
