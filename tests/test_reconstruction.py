import pytest

from ample import (
    abstract_table,
    bisection_semigroup,
    brute_force_iso,
    canonical_iso_of_run,
    check_isomorphism,
    enumerate_bisections,
    enumerate_point_bases,
    equivariance_check,
    group_groupoid,
    pair_groupoid,
    phi_point,
    point_basis_space,
    reconstruct,
    run_reconstruction,
    singleton_semigroup,
    stone_check,
    tight_spectrum,
    units_groupoid,
    validate_inverse_semigroup,
)
from ample.errors import NotFunctorial, ValidationError
from ample.reconstruction import GroupoidIsomorphism, basis_semilattice

from test_semigroups import _group_with_zero


def test_point_basis_space_validation():
    space = point_basis_space(["x", "y"], [(), (0,), (1,), (0, 1)])
    assert len(space.basis) == 4
    with pytest.raises(ValidationError):
        point_basis_space(["x", "y"], [(), (0,)])  # missing singleton {y}
    with pytest.raises(ValidationError):
        point_basis_space(["x", "y"], [(0,), (1,)])  # missing empty set
    # overlaps of size one land on singletons, which are always present
    ok = point_basis_space(["x", "y", "z"], [(), (0,), (1,), (2,), (0, 1), (0, 2)])
    assert len(ok.basis) == 6
    # an intersection-closure violation needs an overlap of two or more
    with pytest.raises(ValidationError):
        point_basis_space(
            ["w", "x", "y", "z"],
            [(), (0,), (1,), (2,), (3,), (0, 1, 2), (0, 1, 3)],
        )


def test_phi_point_powerset():
    space = point_basis_space(["1", "2"], [(), (0,), (1,), (0, 1)])
    E, sets = basis_semilattice(space)
    bits = phi_point(space, tight_spectrum(E), 0)
    members = {sets[p] for p in range(len(sets)) if bits >> p & 1}
    assert members == {frozenset([0]), frozenset([0, 1])}


def test_phi_point_single_point():
    space = point_basis_space(["x"], [(), (0,)])
    E, sets = basis_semilattice(space)
    bits = phi_point(space, tight_spectrum(E), 0)
    members = {sets[p] for p in range(len(sets)) if bits >> p & 1}
    assert members == {frozenset([0])}  # everything except the empty set


def test_phi_point_three_points():
    space = point_basis_space(
        ["1", "2", "3"], [(), (0,), (1,), (2,), (0, 1), (0, 1, 2)]
    )
    E, sets = basis_semilattice(space)
    bits = phi_point(space, tight_spectrum(E), 2)
    members = {sets[p] for p in range(len(sets)) if bits >> p & 1}
    assert members == {frozenset([2]), frozenset([0, 1, 2])}


def test_stone_check_powerset_two_points():
    space = point_basis_space(["1", "2"], [(), (0,), (1,), (0, 1)])
    report = stone_check(space)
    assert report.passed
    assert report.spectrum_size == 2
    report.require()  # no-op on pass


def test_stone_check_degenerate_empty_space():
    space = point_basis_space([], [()])
    report = stone_check(space)
    assert report.passed
    assert report.spectrum_size == 0


def test_stone_sweep_small():
    counts = {}
    for n in range(4):
        spaces = enumerate_point_bases(n)
        counts[n] = len(spaces)
        for space in spaces:
            assert stone_check(space).passed
    assert counts[0] == 1 and counts[1] == 1 and counts[2] == 2 and counts[3] == 16


def test_equivariance_idempotents_and_arrows():
    G = pair_groupoid(2)
    report = equivariance_check(bisection_semigroup(G, singleton_semigroup(G)))
    assert report.passed
    report2 = equivariance_check(bisection_semigroup(G, enumerate_bisections(G)))
    assert report2.passed
    assert report2.pairs_checked > report.pairs_checked


def test_reconstruct_pair2_both_collections():
    G = pair_groupoid(2)
    for masks in (singleton_semigroup(G), enumerate_bisections(G)):
        T, _ = abstract_table(bisection_semigroup(G, masks), seed=0)
        H = reconstruct(T)
        assert len(H.units) == 2
        assert len(H.arrows) == 4


def test_reconstruct_zero_semigroup():
    T = validate_inverse_semigroup(["0"], [[0]])
    H = reconstruct(T)
    assert len(H.arrows) == 0


def test_canonical_iso_pair2():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, singleton_semigroup(G))
    iso = canonical_iso_of_run(run_reconstruction(bs))
    assert iso.target is G
    check_isomorphism(iso)


def test_canonical_iso_group_z3_preserves_table():
    G = group_groupoid(3)
    run = run_reconstruction(bisection_semigroup(G, singleton_semigroup(G)), seed=2)
    iso = canonical_iso_of_run(run)
    H = run.model.groupoid
    f = iso.arrow_map
    for (a, b), c in H.compose.items():
        assert G.compose[(f[a], f[b])] == f[c]


def test_canonical_iso_units_only():
    G = units_groupoid(3)
    bs = bisection_semigroup(G, singleton_semigroup(G))
    iso = canonical_iso_of_run(run_reconstruction(bs))
    assert sorted(iso.arrow_map) == list(range(3))


def test_brute_force_iso_self():
    G = pair_groupoid(2)
    iso = brute_force_iso(G, G)
    assert iso is not None
    check_isomorphism(iso)


def test_brute_force_iso_distinguishes():
    assert brute_force_iso(pair_groupoid(2), units_groupoid(4)) is None
    assert brute_force_iso(group_groupoid(2), units_groupoid(2)) is None
    # same arrow counts and unit counts, different isotropy
    from ample import group_bundle_z2

    assert brute_force_iso(group_bundle_z2(), pair_groupoid(2)) is None


def test_brute_force_confirms_canonical():
    G = pair_groupoid(2)
    run = run_reconstruction(bisection_semigroup(G, singleton_semigroup(G)), seed=0)
    canonical_iso_of_run(run)
    assert brute_force_iso(run.model.groupoid, G) is not None


def test_check_isomorphism_rejects_wrong_map():
    # in Z/3 the swap of c1 and c2 is inversion, a genuine automorphism
    G3 = group_groupoid(3)
    check_isomorphism(GroupoidIsomorphism(G3, G3, (0, 2, 1)))
    # in Z/4 the same swap breaks composition: c1 c1 = c2 but c2 c2 = e
    G4 = group_groupoid(4)
    with pytest.raises(NotFunctorial):
        check_isomorphism(GroupoidIsomorphism(G4, G4, (0, 2, 1, 3)))


def test_reconstruction_seed_independence_pair2():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, singleton_semigroup(G))
    groupoids = [run_reconstruction(bs, seed=seed).model.groupoid for seed in range(4)]
    for H in groupoids[1:]:
        assert brute_force_iso(groupoids[0], H) is not None


def test_group_with_zero_reconstructs_group():
    S, _ = _group_with_zero(3)
    H = reconstruct(S)
    assert len(H.units) == 1 and len(H.arrows) == 3
    assert brute_force_iso(H, group_groupoid(3)) is not None


def test_canonical_iso_carries_germ_slices_to_bisections():
    # the composite isomorphism sends each germ slice back to its bisection
    from ample.bitsets import iter_bits

    G = pair_groupoid(2)
    for masks in (singleton_semigroup(G), enumerate_bisections(G)):
        run = run_reconstruction(bisection_semigroup(G, masks), seed=0)
        iso = canonical_iso_of_run(run)
        model = run.model
        for s in range(len(run.table)):
            image = 0
            for a in iter_bits(model.slice_of(s)):
                image |= 1 << iso.arrow_map[a]
            assert image == run.audit.bisections[s]
