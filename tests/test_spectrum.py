import numpy as np
import pytest

from ample import (
    bisection_semigroup,
    enumerate_bisections,
    enumerate_filters,
    idempotent_semilattice,
    pair_groupoid,
    singleton_semigroup,
    tight_spectrum,
    ultrafilters,
)
from ample.bitsets import iter_bits
from ample.errors import CheckFailed
from ample.semigroups import FiniteInverseSemigroup
from ample.spectrum import find_tightness_violation

from oracles import (
    EXHAUSTIVE_BOUND,
    filters_by_definition,
    is_character,
    is_cover,
    meet_pos_by_table,
    restricted_ideal,
    tightness_violation_by_definition,
    tightness_violation_by_member_scan,
    ultrafilters_by_pairwise_scan,
)
from semilattice_zoo import all_semilattices_upto
from test_semigroups import chain_semilattice, powerset_semilattice


def _mask_of(E, names):
    S = E.semigroup
    bits = 0
    for name in names:
        bits |= 1 << int(E.positions[S.index[name]])
    return bits


def test_filters_of_chain_by_bruteforce():
    E = idempotent_semilattice(chain_semilattice(2))
    got = enumerate_filters(E)
    assert got == tuple(sorted(filters_by_definition(E)))
    assert len(got) == 2
    assert set(got) == {_mask_of(E, ["e2"]), _mask_of(E, ["e1", "e2"])}


def test_single_idempotent_filter():
    E = idempotent_semilattice(chain_semilattice(1))
    assert enumerate_filters(E) == (_mask_of(E, ["e1"]),)


def test_filters_of_powerset_by_bruteforce():
    S, subsets = powerset_semilattice((1, 2))
    E = idempotent_semilattice(S)
    got = enumerate_filters(E)
    assert got == tuple(sorted(filters_by_definition(E)))
    assert len(got) == 3


def test_exhaustive_mode_agrees():
    for S in (chain_semilattice(3), powerset_semilattice((1, 2))[0]):
        E = idempotent_semilattice(S)
        assert enumerate_filters(E) == tuple(sorted(filters_by_definition(E)))


def test_every_filter_is_principal_on_its_minimum():
    for S in (chain_semilattice(3), powerset_semilattice((1, 2, 3))[0]):
        E = idempotent_semilattice(S)
        for bits in enumerate_filters(E):
            p = E.minimum_of[bits]
            assert bits == E.up_masks[p]
            assert all(meet_pos_by_table(E, p, q) == p for q in iter_bits(bits))


def test_filter_character_correspondence():
    semigroups = [powerset_semilattice((1, 2))[0]]
    semigroups += [S for items in all_semilattices_upto(5).values() for S in items]
    for S in semigroups:
        E = idempotent_semilattice(S)
        for bits in range(1 << len(E)):
            assert (bits in E.minimum_of) == is_character(E, bits)


def test_ultrafilters_chain_and_powerset():
    E = idempotent_semilattice(chain_semilattice(2))
    assert ultrafilters(E) == (_mask_of(E, ["e1", "e2"]),)
    S, _ = powerset_semilattice((1, 2))
    E2 = idempotent_semilattice(S)
    ultra = ultrafilters(E2)
    assert len(ultra) == 2
    assert set(ultra) == {_mask_of(E2, ["s1", "s12"]), _mask_of(E2, ["s2", "s12"])}


def test_one_idempotent_ultra():
    E = idempotent_semilattice(chain_semilattice(1))
    assert ultrafilters(E) == enumerate_filters(E)


def test_tightness_on_chain():
    E = idempotent_semilattice(chain_semilattice(2))
    S = E.semigroup
    assert find_tightness_violation(E, _mask_of(E, ["e1", "e2"])) is None
    # {e2} fails: {e1} covers everything under e2 yet the character kills e1
    bad = _mask_of(E, ["e2"])
    x, y_mask, z0 = find_tightness_violation(E, bad)
    assert y_mask == 0
    assert z0 & _mask_of(E, ["e1"])
    # the X={e2}, Y={} instance is a violation by definition: {e1} covers
    # E^{X,Y} while the character gives max 0 against rhs 1
    e1, e2 = S.index["e1"], S.index["e2"]
    family = restricted_ideal(E, (e2,), ())
    assert is_cover(E, (e1,), family)
    assert bad >> int(E.positions[e2]) & 1 and not bad >> int(E.positions[e1]) & 1


def test_ultrafilters_are_tight():
    semilattices = [
        chain_semilattice(3),
        powerset_semilattice((1, 2))[0],
        powerset_semilattice((1, 2, 3))[0],
    ]
    G = pair_groupoid(2)
    semilattices.append(
        bisection_semigroup(G, enumerate_bisections(G)).semigroup
    )
    for S in semilattices:
        E = idempotent_semilattice(S)
        for bits in ultrafilters(E):
            assert find_tightness_violation(E, bits) is None


def test_audit_mode_agrees_with_reduced_scan(corpus_runs):
    semilattices = [
        idempotent_semilattice(S)
        for items in all_semilattices_upto(6).values()
        for S in items
    ]
    for run_info in corpus_runs:
        E = idempotent_semilattice(run_info.bisection_semigroup.semigroup)
        if len(E) <= EXHAUSTIVE_BOUND:
            semilattices.append(E)
    for E in semilattices:
        for bits in enumerate_filters(E):
            witness = find_tightness_violation(E, bits)
            literal = tightness_violation_by_definition(E, bits)
            assert (literal is None) == (witness is None)
            if witness is not None:
                # the witness is a member x whose killed part covers down(x)
                x, y_mask, z0 = witness
                assert bits >> x & 1 and y_mask == 0
                assert z0 == E.down_masks[x] & ~bits
                below_x = restricted_ideal(E, (E.carrier[x],), ())
                assert is_cover(E, [E.carrier[p] for p in iter_bits(z0)], below_x)


def _zoo_and_corpus_semilattices(corpus_runs):
    semilattices = [
        idempotent_semilattice(S) for items in all_semilattices_upto(6).values() for S in items
    ]
    semilattices += [
        idempotent_semilattice(run_info.bisection_semigroup.semigroup) for run_info in corpus_runs
    ]
    return semilattices


def test_atom_rule_matches_member_scan(corpus_runs):
    checked = 0
    for E in _zoo_and_corpus_semilattices(corpus_runs):
        for bits in enumerate_filters(E):
            assert find_tightness_violation(E, bits) == tightness_violation_by_member_scan(E, bits)
            checked += 1
    assert checked > 345  # the 345 filters of the zoo, and the corpus's


def test_tight_points_match_pairwise_ultrafilter_scan(corpus_runs):
    for E in _zoo_and_corpus_semilattices(corpus_runs):
        filters = enumerate_filters(E)
        assert tight_spectrum(E).points == ultrafilters_by_pairwise_scan(filters)
        assert ultrafilters(E) == ultrafilters_by_pairwise_scan(filters)


def test_tightness_of_a_non_filter_is_check_failed():
    E = idempotent_semilattice(powerset_semilattice((1, 2))[0])
    for bits in range(1 << len(E)):
        if bits not in E.minimum_of:
            with pytest.raises(CheckFailed, match="tightness is defined for characters only"):
                find_tightness_violation(E, bits)


def test_equal_principal_filters_are_check_failed():
    E = idempotent_semilattice(chain_semilattice(2))
    up = list(E.up_masks)
    up[int(E.positions[E.semigroup.index["e2"]])] = up[int(E.positions[E.semigroup.index["e1"]])]
    E.__dict__["up_masks"] = tuple(up)  # stands in for a wrong meet table
    with pytest.raises(CheckFailed, match="distinct principal filters"):
        E.minimum_of


def test_tight_spectrum_of_powerset():
    S, subsets = powerset_semilattice((1, 2))
    E = idempotent_semilattice(S)
    spec = tight_spectrum(E)
    assert len(spec.points) == 2
    idx = {s: i for i, s in enumerate(subsets)}
    d1 = spec.basic_sets[idx[frozenset([1])]]
    d2 = spec.basic_sets[idx[frozenset([2])]]
    d12 = spec.basic_sets[idx[frozenset([1, 2])]]
    assert d1.bit_count() == 1 and d2.bit_count() == 1 and d1 != d2
    assert d12 == d1 | d2
    assert spec.basic_sets[S.zero] == 0


def test_tight_spectrum_single_point():
    E = idempotent_semilattice(chain_semilattice(1))
    spec = tight_spectrum(E)
    assert len(spec.points) == 1
    assert spec.basic_sets[E.carrier[1]] == 1  # the mask of point 0


def test_tight_spectrum_of_bisection_semilattices():
    G = pair_groupoid(2)
    for collection in (singleton_semigroup(G), enumerate_bisections(G)):
        bs = bisection_semigroup(G, collection)
        spec = tight_spectrum(idempotent_semilattice(bs.semigroup))
        assert len(spec.points) == 2  # one per unit of the groupoid


def test_every_nonzero_idempotent_has_a_point():
    for S in (chain_semilattice(3), powerset_semilattice((1, 2, 3))[0]):
        E = idempotent_semilattice(S)
        spec = tight_spectrum(E)
        for e in E.carrier:
            if e != S.zero:
                assert spec.basic_sets[e]


def test_tight_spectrum_of_wide_powersets():
    # 128 and 256 idempotents: past what an antichain scan can reach
    for n in (7, 8):
        S, _ = powerset_semilattice(tuple(range(1, n + 1)))
        E = idempotent_semilattice(S)
        assert len(E) == 1 << n
        spec = tight_spectrum(E)
        assert len(spec.points) == n
        assert len(spec.filters) == (1 << n) - 1
    # 4,096 idempotents, built directly to skip the cubic validation
    n = 12
    subsets = np.arange(1 << n, dtype=np.int32)
    table = subsets[:, None] & subsets
    S = FiniteInverseSemigroup(tuple(f"s{i}" for i in range(1 << n)), table, 0, tuple(range(1 << n)))
    spec = tight_spectrum(idempotent_semilattice(S))
    assert len(spec.points) == n
    assert len(spec.filters) == (1 << n) - 1


def test_points_are_canonically_ordered():
    S, _ = powerset_semilattice((1, 2, 3))
    spec = tight_spectrum(idempotent_semilattice(S))
    assert list(spec.points) == sorted(spec.points)
