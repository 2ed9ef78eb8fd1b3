"""Randomized invariant checks over the semilattice zoo."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ample import (
    bisection_semigroup,
    enumerate_bisections,
    idempotent_semilattice,
    pair_groupoid,
    units_groupoid,
    validate_inverse_semigroup,
)
from ample.errors import ValidationError
from ample.semigroups import associativity_witness
from ample.bitsets import iter_bits
from ample.spectrum import enumerate_filters

from oracles import (
    associativity_witness_ascending,
    associativity_witness_by_definition,
    is_cover,
    is_idempotent,
    product_of,
    restricted_ideal,
)
from semilattice_zoo import all_semilattices_upto
from test_semigroups import (
    _restricted_ideal_mask,
    assert_top_down_generates,
    assert_validation_agrees,
    brandt_blocks,
    chain_with_nilpotent,
    cyclic_blocks,
    left_zero_band_with_zero,
    right_zero_band,
    squares,
)

_ZOO = [S for items in all_semilattices_upto(5).values() for S in items]


@st.composite
def semilattice_and_subsets(draw):
    S = draw(st.sampled_from(_ZOO))
    E = idempotent_semilattice(S)
    carrier = list(E.carrier)
    X = draw(st.lists(st.sampled_from(carrier), min_size=1, max_size=3))
    Y = draw(st.lists(st.sampled_from(carrier), max_size=3))
    return S, E, X, Y


@settings(max_examples=200, deadline=None)
@given(semilattice_and_subsets())
def test_restricted_ideal_reduces_to_the_meet(data):
    S, E, X, Y = data
    meet = product_of(S, X)
    family = restricted_ideal(E, X, Y)
    assert family == restricted_ideal(E, (meet,), Y)
    # the position masks give the same E^{X,Y}
    mask = _restricted_ideal_mask(E, E.positions[X].tolist(), E.positions[Y].tolist())
    assert family == tuple(E.carrier[p] for p in iter_bits(mask))


@settings(max_examples=200, deadline=None)
@given(semilattice_and_subsets(), st.data())
def test_cover_monotonicity(data, extra):
    S, E, X, Y = data
    family = restricted_ideal(E, X, Y)
    if not family:
        return
    Z = extra.draw(st.lists(st.sampled_from(list(family)), max_size=4))
    if not is_cover(E, Z, family):
        return
    bigger = set(Z) | set(
        extra.draw(st.lists(st.sampled_from(list(family)), max_size=3))
    )
    assert is_cover(E, tuple(bigger), family)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_ZOO))
def test_filters_are_principal_on_their_minimum(S):
    E = idempotent_semilattice(S)
    for bits in enumerate_filters(E):
        assert bits == E.up_masks[E.minimum_of[bits]]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_ZOO))
def test_star_products_are_idempotent(S):
    for s in range(len(S)):
        assert is_idempotent(S, S.table[S.star[s]][s])
        assert is_idempotent(S, S.table[s][S.star[s]])


@st.composite
def magmas(draw):
    """A multiplication table on 1-7 elements with arbitrary entries."""
    n = draw(st.integers(1, 7))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(magmas())
def test_top_down_generators_generate_random_magmas(rows):
    assert_top_down_generates(rows)
    t = np.array(rows, dtype=np.int32)
    witness = associativity_witness(t)
    assert witness == associativity_witness_ascending(t)
    assert (witness is None) == (associativity_witness_by_definition(rows) is None)


# inverse semigroups of 16 to 65 elements, and tables that fail each check
_TABLES = [
    brandt_blocks(7, 1, 3, 1, 2),
    squares(30),
    cyclic_blocks(20, 25),
    chain_with_nilpotent(20),
    left_zero_band_with_zero(10),
    right_zero_band(5),
    *(bisection_semigroup(G, enumerate_bisections(G)).semigroup.table.tolist()
      for G in (units_groupoid(4), pair_groupoid(3))),
]


@st.composite
def relabelled_tables(draw):
    """One of _TABLES under a permutation of its elements, one entry changed or not."""
    rows = draw(st.sampled_from(_TABLES))
    n = len(rows)
    new = draw(st.permutations(range(n)))
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[new[x]][new[y]] = new[rows[x][y]]
    if draw(st.booleans()):
        cell = st.integers(0, n - 1)
        out[draw(cell)][draw(cell)] = draw(cell)
    return out


def validation_outcome(table):
    names = [f"x{i}" for i in range(len(table))]
    try:
        S = validate_inverse_semigroup(names, table)
    except ValidationError as exc:
        return ("error", str(exc), exc.witness)
    return ("ok", S.table.dtype, S.table.tolist(), S.zero, S.star, S.idempotents)


@settings(max_examples=100, deadline=None)
@given(st.one_of(magmas(), relabelled_tables()))
def test_a_table_validates_as_its_narrow_cast(rows):
    wide = np.array(rows, dtype=np.int64)
    narrow = wide.astype(np.min_scalar_type(len(rows)))
    got = validation_outcome(wide)
    assert got == validation_outcome(narrow)
    assert (got[0] == "error") == (assert_validation_agrees(rows) is not None)
