import random
from fractions import Fraction
from itertools import combinations

import pytest

from ample import (
    AlgebraElement,
    bisection_semigroup,
    check_tight_representation,
    enumerate_bisections,
    pair_groupoid,
    rho,
    run_reconstruction,
    singleton_semigroup,
    slice_inverse,
    slice_product,
    sup,
    sup_all,
    unit_cover,
    units_groupoid,
    validate_inverse_semigroup,
)
from ample.bitsets import iter_bits, mask_of
from ample.convolution import _minimal_covers
from ample.errors import CheckFailed, EmptySpectrum, GroupoidMismatch

from test_semigroups import chain_semilattice, powerset_semilattice


def test_unit_subset_indicators_multiply_as_intersection():
    G = pair_groupoid(2)
    for u in range(4):
        for v in range(4):
            um = u & G.units_mask
            vm = v & G.units_mask
            assert rho(G, um) * rho(G, vm) == rho(G, um & vm)


def test_singleton_indicators():
    G = pair_groupoid(2)
    a01, a10, u1 = G.index["a01"], G.index["a10"], G.index["u1"]
    assert rho(G, 1 << a01) * rho(G, 1 << a10) == rho(G, 1 << u1)
    assert (rho(G, 1 << a01) * rho(G, 1 << a01)).is_zero()


def test_indicator_homomorphism_all_pairs():
    G = pair_groupoid(2)
    bis = enumerate_bisections(G)
    for s in bis:
        for t in bis:
            assert rho(G, s) * rho(G, t) == rho(G, slice_product(G, s, t))


def test_star_and_regularity():
    G = pair_groupoid(2)
    for s in enumerate_bisections(G):
        f = rho(G, s)
        assert f.star() == rho(G, slice_inverse(G, s))
        assert f * f.star() * f == f


def test_rho_zero_and_injective():
    G = pair_groupoid(2)
    assert rho(G, 0).is_zero()
    bis = enumerate_bisections(G)
    images = [rho(G, s) for s in bis]
    for i, f in enumerate(images):
        for j, g in enumerate(images):
            assert (f == g) == (i == j)


def test_groupoid_mismatch_rejected():
    f = rho(pair_groupoid(2), 1)
    g = rho(pair_groupoid(2), 1)  # distinct object
    with pytest.raises(GroupoidMismatch):
        f * g


def test_convolution_is_exact_and_integral_on_indicators():
    G = pair_groupoid(3)
    bis = enumerate_bisections(G)
    for s in bis[:10]:
        for t in bis[:10]:
            prod = rho(G, s) * rho(G, t)
            for v in prod.coeffs.values():
                assert isinstance(v, Fraction)
                assert v.denominator == 1


def test_sup_is_join_on_commuting_projections():
    G = pair_groupoid(2)
    unit_subsets = [m for m in enumerate_bisections(G) if m & ~G.units_mask == 0]
    projections = [rho(G, m) for m in unit_subsets]
    for p in projections:
        assert sup(p, p) == p
        for q in projections:
            assert sup(p, q) == sup(q, p)
            # join of unit-set indicators is the indicator of the union
            pm = p.support_mask()
            qm = q.support_mask()
            assert sup(p, q) == rho(G, pm | qm)
            for r_ in projections:
                assert sup(sup(p, q), r_) == sup(p, sup(q, r_))


def test_sup_all_from_zero():
    G = pair_groupoid(2)
    assert sup_all(G, []) == AlgebraElement.zero(G)
    u = AlgebraElement.unit(G)
    assert sup_all(G, [u, u]) == u


def test_rho_is_tight_pair2_singleton():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, singleton_semigroup(G))
    report = check_tight_representation(
        [rho(G, m) for m in bs.bits], bs.semigroup
    )
    assert report.passed
    report.require()


def test_rho_is_tight_pair2_full_audit():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    report = check_tight_representation(
        [rho(G, m) for m in bs.bits], bs.semigroup, audit_covers=True
    )
    assert report.passed
    plain = check_tight_representation([rho(G, m) for m in bs.bits], bs.semigroup)
    assert report.covers_checked > plain.covers_checked


def test_rho_composed_with_automorphism_is_tight():
    G = pair_groupoid(2)
    swap = {0: 1, 1: 0, 2: 3, 3: 2}  # exchanges the two units
    bs = bisection_semigroup(G, enumerate_bisections(G))

    def relabel(mask):
        out = 0
        for a in range(4):
            if mask >> a & 1:
                out |= 1 << swap[a]
        return out

    pi = [rho(G, relabel(m)) for m in bs.bits]
    assert check_tight_representation(pi, bs.semigroup).passed


def test_restricted_rho_is_not_tight():
    # restrict the indicator map to the invariant unit subset {u0} of units2
    G = units_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    keep = 1 << G.index["u0"]
    pi = [rho(G, m & keep) for m in bs.bits]
    report = check_tight_representation(pi, bs.semigroup)
    assert report.multiplicativity and report.star_compatible and report.zero_preserved
    assert not report.passed
    # the unit identity itself fails: the top covers E but pi(top) is 1_{u0}
    assert (None, (), ("u0+u1",)) in report.tightness_witnesses
    # and the complement instance: rhs (1 - pi(u0)) = 1_{u1}, lhs 0
    assert (None, ("u0",), ("u1",)) in report.tightness_witnesses
    with pytest.raises(CheckFailed):
        report.require()


def test_non_idempotent_image_rejected():
    G = units_groupoid(1)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    u = AlgebraElement.unit(G)
    two = u + u
    pi = {0: AlgebraElement.zero(G), 1: two}
    with pytest.raises(CheckFailed):
        check_tight_representation(pi, bs.semigroup)


def test_rho_prime_is_tight_on_germ_model():
    G = pair_groupoid(2)
    run = run_reconstruction(bisection_semigroup(G, enumerate_bisections(G)), seed=0)
    model = run.model
    H = model.groupoid
    pi = [rho(H, model.slice_of(s)) for s in range(len(run.table))]
    assert check_tight_representation(pi, run.table).passed


def test_unit_cover_with_top():
    S, subsets = powerset_semilattice((1, 2))
    cover = unit_cover(S)
    assert [S.elements[e] for e in cover] == ["s12"]


def test_unit_cover_without_top():
    # subsets of {1,2} with the top removed: need both atoms
    names = ["0", "a", "b"]
    rows = [[0, 0, 0], [0, 1, 0], [0, 0, 2]]
    S = validate_inverse_semigroup(names, rows)
    cover = unit_cover(S)
    assert sorted(S.elements[e] for e in cover) == ["a", "b"]


def test_unit_cover_bisection_semilattice():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    cover = unit_cover(bs.semigroup)
    assert [bs.semigroup.elements[e] for e in cover] == ["u0+u1"]


def test_unit_cover_empty_spectrum():
    Z = validate_inverse_semigroup(["0"], [[0]])
    with pytest.raises(EmptySpectrum):
        unit_cover(Z)


def test_unit_cover_is_minimal_cardinality():
    # chain: the top alone covers, even though lower elements also appear
    S = chain_semilattice(3)
    cover = unit_cover(S)
    assert len(cover) == 1


def test_minimal_covers_match_subset_scan():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 7)
        isect = [1 << p for p in range(n)]  # nonzero idempotents meet themselves
        for p, q in combinations(range(n), 2):
            if rng.random() < 0.4:
                isect[p] |= 1 << q
                isect[q] |= 1 << p
        fplus = rng.randrange(1 << n)
        members = list(iter_bits(fplus))
        covers = [
            mask_of(zs)
            for k in range(len(members) + 1)
            for zs in combinations(members, k)
            if all(isect[f] & mask_of(zs) for f in members)
        ]
        minimal = sorted(
            z for z in covers if not any(o != z and o & z == o for o in covers)
        )
        assert _minimal_covers(isect, fplus) == tuple(minimal), (isect, fplus)
