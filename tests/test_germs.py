import pytest

from ample import (
    bisection_semigroup,
    build_germ_model,
    enumerate_bisections,
    group_groupoid,
    idempotent_semilattice,
    pair_groupoid,
    reconstruct,
    same_germ,
    singleton_semigroup,
    theta_apply,
    tight_spectrum,
    units_groupoid,
    validate_groupoid,
)
from ample.errors import OutsideDomain
from ample.germs import _domain_idempotent, theta_point

from oracles import germ_count_by_pairwise_quotient
from test_semigroups import _group_with_zero, powerset_semilattice


def _pair2_setup(full=False):
    G = pair_groupoid(2)
    masks = enumerate_bisections(G) if full else singleton_semigroup(G)
    bs = bisection_semigroup(G, masks)
    E = idempotent_semilattice(bs.semigroup)
    spec = tight_spectrum(E)
    return G, bs, E, spec


def test_theta_fixes_points_at_idempotents():
    _, bs, E, spec = _pair2_setup(full=True)
    for e in E.carrier:
        if e == bs.semigroup.zero:
            continue
        for bits in spec.points:
            if bits >> E.position[e] & 1:
                assert theta_apply(E, e, bits) == bits


def test_theta_moves_point_along_arrow():
    G, bs, E, spec = _pair2_setup()
    s = bs.semigroup.index["a01"]  # the singleton {a01}: u0 -> u1
    # xi_{u0}: the character alive exactly at {u0}
    xi_x = 1 << E.position[bs.semigroup.index["u0"]]
    xi_y = 1 << E.position[bs.semigroup.index["u1"]]
    assert theta_apply(E, s, xi_x) == xi_y
    with pytest.raises(OutsideDomain):
        theta_apply(E, s, xi_y)


def test_theta_inverse_roundtrip():
    _, bs, E, spec = _pair2_setup(full=True)
    S = bs.semigroup
    for s in range(len(S)):
        dom = E.position[_domain_idempotent(S, s)]
        for bits in spec.points:
            if bits >> dom & 1:
                assert theta_apply(E, S.star[s], theta_apply(E, s, bits)) == bits


def test_theta_is_an_action():
    _, bs, E, spec = _pair2_setup(full=True)
    S = bs.semigroup
    for s in range(len(S)):
        for t in range(len(S)):
            st = S.table[s][t]
            for bits in spec.points:
                t_dom = bits >> E.position[_domain_idempotent(S, t)] & 1
                if not t_dom:
                    continue
                mid = theta_apply(E, t, bits)
                if not mid >> E.position[_domain_idempotent(S, s)] & 1:
                    continue
                # both theta_s theta_t and theta_st are defined here
                assert theta_apply(E, s, mid) == theta_apply(E, st, bits)


def test_same_germ_reflexive_with_domain_witness():
    _, bs, E, spec = _pair2_setup(full=True)
    S = bs.semigroup
    for s in range(len(S)):
        dom = E.position[_domain_idempotent(S, s)]
        for bits in spec.points:
            if bits >> dom & 1:
                assert same_germ(E, s, s, bits)


def test_same_germ_distinguishes_singletons():
    G = pair_groupoid(3)
    bs = bisection_semigroup(G, singleton_semigroup(G))
    S = bs.semigroup
    E = idempotent_semilattice(S)
    s1 = S.index["a01"]
    s2 = S.index["a02"]  # same source u0, different germ
    xi = 1 << E.position[S.index["u0"]]
    assert not same_germ(E, s1, s2, xi)
    assert not same_germ(E, S.index["u0"], s1, xi)


def test_same_germ_via_restriction():
    G, bs, E, _ = _pair2_setup(full=True)
    S = bs.semigroup
    big = S.index["a01+a10"]
    small = S.index["a01"]
    xi = 1 << E.position[S.index["u0"]]
    xi |= 1 << E.position[S.index["u0+u1"]]
    # small = big * {u0} and the character keeps {u0} alive
    assert S.table[big][S.index["u0"]] == small
    assert same_germ(E, small, big, xi)


def test_same_germ_outside_domain():
    _, bs, E, _ = _pair2_setup()
    S = bs.semigroup
    xi_y = 1 << E.position[S.index["u1"]]
    with pytest.raises(OutsideDomain):
        same_germ(E, S.index["a01"], S.index["a01"], xi_y)


def test_same_germ_is_equivalence_per_point():
    _, bs, E, spec = _pair2_setup(full=True)
    S = bs.semigroup
    for bits in spec.points:
        valid = [
            s
            for s in range(len(S))
            if bits >> E.position[_domain_idempotent(S, s)] & 1
        ]
        for a in valid:
            assert same_germ(E, a, a, bits)
            for b in valid:
                assert same_germ(E, a, b, bits) == same_germ(E, b, a, bits)
                for c in valid:
                    if same_germ(E, a, b, bits) and same_germ(E, b, c, bits):
                        assert same_germ(E, a, c, bits)


def test_germ_classes_match_pairwise_quotient():
    # the m-key grouping agrees with the definitional witness relation
    for full in (False, True):
        _, bs, _, _ = _pair2_setup(full=full)
        model = build_germ_model(bs.semigroup)
        assert len(model.groupoid.arrows) == germ_count_by_pairwise_quotient(
            bs.semigroup
        )
        E = model.semilattice
        for a in range(len(model.groupoid.arrows)):
            bits = model.spectrum.points[model.arrow_point[a]]
            members = model.arrow_members[a]
            for s in members:
                assert same_germ(E, s, model.arrow_rep[a], bits)


def test_germ_groupoid_of_semilattice_is_units_only():
    S, _ = powerset_semilattice((1, 2))
    H = reconstruct(S)
    assert len(H.arrows) == len(H.units) == 2


def test_germ_groupoid_of_pair2_singleton():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, singleton_semigroup(G))
    H = reconstruct(bs.semigroup)
    assert len(H.units) == 2
    assert len(H.arrows) == 4


def test_germ_groupoid_of_group_with_zero():
    for k in (2, 3):
        S, _ = _group_with_zero(k)
        H = reconstruct(S)
        assert len(H.units) == 1
        assert len(H.arrows) == k


def test_germ_groupoid_collapses_full_collection():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    H = reconstruct(bs.semigroup)
    assert len(H.units) == 2
    assert len(H.arrows) == 4


def test_germ_groupoid_passes_validation():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    H = reconstruct(bs.semigroup)
    again = validate_groupoid(H.arrows, H.units, H.d, H.r, H.compose, H.inverse)
    assert again == H


def test_composition_is_independent_of_representatives():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    model = build_germ_model(bs.semigroup)
    S = bs.semigroup
    H = model.groupoid
    for (a, b), c in H.compose.items():
        pb = model.arrow_point[b]
        for sa in model.arrow_members[a]:
            for sb in model.arrow_members[b]:
                assert model.germ(S.table[sa][sb], pb) == c


def test_theta_point_matches_groupoid_range():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    model = build_germ_model(bs.semigroup)
    H = model.groupoid
    for a in range(len(H.arrows)):
        s, pt = model.arrow_rep[a], model.arrow_point[a]
        assert H.r[a] == model.unit_arrow[theta_point(model.spectrum, s, pt)]
        assert H.d[a] == model.unit_arrow[pt]


def test_slice_of_zero_is_empty():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, singleton_semigroup(G))
    model = build_germ_model(bs.semigroup)
    assert model.slice_of(bs.semigroup.zero) == 0


def test_slice_of_idempotent_is_unit_set():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    model = build_germ_model(bs.semigroup)
    E = model.semilattice
    for e in E.carrier:
        mask = model.slice_of(e)
        points = model.spectrum.basic_sets[e]
        assert mask == sum(1 << model.unit_arrow[p] for p in points)


def test_slice_sizes_match_basic_sets():
    for G in (pair_groupoid(3), units_groupoid(2), group_groupoid(3)):
        bs = bisection_semigroup(G, singleton_semigroup(G))
        model = build_germ_model(bs.semigroup)
        S = bs.semigroup
        for s in range(len(S)):
            dom = _domain_idempotent(S, s)
            assert bin(model.slice_of(s)).count("1") == len(
                model.spectrum.basic_sets[dom]
            )


def test_slice_map_is_multiplicative_and_star_compatible():
    from ample import slice_inverse as groupoid_slice_inverse
    from ample import slice_product as groupoid_slice_product

    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    model = build_germ_model(bs.semigroup)
    S = bs.semigroup
    H = model.groupoid
    for s in range(len(S)):
        assert groupoid_slice_inverse(H, model.slice_of(s)) == model.slice_of(
            S.star[s]
        )
        for t in range(len(S)):
            assert (
                groupoid_slice_product(H, model.slice_of(s), model.slice_of(t))
                == model.slice_of(S.table[s][t])
            )


def test_empty_spectrum_gives_empty_groupoid():
    from ample import validate_inverse_semigroup

    Z = validate_inverse_semigroup(["0"], [[0]])
    H = reconstruct(Z)
    assert len(H.arrows) == 0
