from ample import (
    bisection_semigroup,
    enumerate_bisections,
    enumerate_filters,
    idempotent_semilattice,
    is_filter,
    is_tight_character,
    pair_groupoid,
    singleton_semigroup,
    tight_spectrum,
    ultrafilters,
)
from ample.bitsets import iter_bits
from ample.spectrum import (
    filter_minimum,
    find_tightness_violation,
    principal_filter,
)

from oracles import (
    EXHAUSTIVE_BOUND,
    filters_by_definition,
    is_character,
    tightness_violation_by_definition,
)
from semilattice_zoo import all_semilattices_upto
from test_semigroups import chain_semilattice, powerset_semilattice


def _mask_of(E, names):
    S = E.semigroup
    bits = 0
    for name in names:
        bits |= 1 << E.position[S.index[name]]
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


def test_exhaustive_mode_agrees_and_is_bounded():
    for S in (chain_semilattice(3), powerset_semilattice((1, 2))[0]):
        E = idempotent_semilattice(S)
        assert enumerate_filters(E) == tuple(sorted(filters_by_definition(E)))


def test_every_filter_is_principal_on_its_minimum():
    for S in (chain_semilattice(3), powerset_semilattice((1, 2, 3))[0]):
        E = idempotent_semilattice(S)
        for bits in enumerate_filters(E):
            assert bits == principal_filter(E, filter_minimum(E, bits))


def test_filter_character_correspondence():
    semigroups = [powerset_semilattice((1, 2))[0]]
    semigroups += [S for items in all_semilattices_upto(5).values() for S in items]
    for S in semigroups:
        E = idempotent_semilattice(S)
        for bits in range(1 << len(E)):
            assert is_filter(E, bits) == is_character(E, bits)


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
    assert is_tight_character(E, _mask_of(E, ["e1", "e2"]))
    # {e2} fails: {e1} covers everything under e2 yet the character kills e1
    bad = _mask_of(E, ["e2"])
    assert not is_tight_character(E, bad)
    x, y_mask, z0 = find_tightness_violation(E, bad)
    assert y_mask == 0
    assert z0 & _mask_of(E, ["e1"])
    # the X={e2}, Y={} instance is a violation by definition: {e1} covers
    # E^{X,Y} while the character gives max 0 against rhs 1
    e1, e2 = S.index["e1"], S.index["e2"]
    family = E.restricted_ideal((e2,), ())
    assert E.is_cover((e1,), family)
    assert bad >> E.position[e2] & 1 and not bad >> E.position[e1] & 1


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
            assert is_tight_character(E, bits)


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
                below_x = E.restricted_ideal((E.carrier[x],), ())
                assert E.is_cover([E.carrier[p] for p in iter_bits(z0)], below_x)


def test_tight_spectrum_of_powerset():
    S, subsets = powerset_semilattice((1, 2))
    E = idempotent_semilattice(S)
    spec = tight_spectrum(E)
    assert len(spec.points) == 2
    idx = {s: i for i, s in enumerate(subsets)}
    d1 = spec.basic_sets[idx[frozenset([1])]]
    d2 = spec.basic_sets[idx[frozenset([2])]]
    d12 = spec.basic_sets[idx[frozenset([1, 2])]]
    assert len(d1) == 1 and len(d2) == 1 and d1 != d2
    assert set(d12) == set(d1) | set(d2)
    assert spec.basic_sets[S.zero] == ()


def test_tight_spectrum_single_point():
    E = idempotent_semilattice(chain_semilattice(1))
    spec = tight_spectrum(E)
    assert len(spec.points) == 1
    assert spec.basic_sets[E.carrier[1]] == (0,)


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


def test_points_are_canonically_ordered():
    S, _ = powerset_semilattice((1, 2, 3))
    spec = tight_spectrum(idempotent_semilattice(S))
    assert list(spec.points) == sorted(spec.points)
