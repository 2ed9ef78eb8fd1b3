from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ample import (
    abstract_table,
    bisection_semigroup,
    build_germ_model,
    disjoint_union,
    enumerate_bisections,
    group_groupoid,
    idempotent_semilattice,
    pair_groupoid,
    parse_groupoid,
    parse_semigroup,
    reconstruct,
    singleton_semigroup,
    slice_product,
    tight_spectrum,
    units_groupoid,
    validate_groupoid,
    validate_inverse_semigroup,
)
from ample.errors import ValidationError
from ample.germs import GermGroupoidModel

from lemmas import germ, slice_inverse, slice_of
from oracles import (
    domain_idempotent,
    germ_count_by_pairwise_quotient,
    germ_model_by_point_loop,
    same_germ,
    theta_apply,
    theta_point,
)
from test_semigroups import _group_with_zero, powerset_semilattice

DATA = Path(__file__).parent / "data"


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
            if bits >> int(E.positions[e]) & 1:
                assert theta_apply(E, e, bits) == bits


def test_theta_moves_point_along_arrow():
    G, bs, E, spec = _pair2_setup()
    s = bs.semigroup.index["a01"]  # the singleton {a01}: u0 -> u1
    # xi_{u0}: the character alive exactly at {u0}
    xi_x = 1 << int(E.positions[bs.semigroup.index["u0"]])
    xi_y = 1 << int(E.positions[bs.semigroup.index["u1"]])
    assert theta_apply(E, s, xi_x) == xi_y
    with pytest.raises(ValidationError, match="character vanishes at u0, the domain of a01"):
        theta_apply(E, s, xi_y)


def test_theta_inverse_roundtrip():
    _, bs, E, spec = _pair2_setup(full=True)
    S = bs.semigroup
    for s in range(len(S)):
        dom = int(E.positions[domain_idempotent(S, s)])
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
                t_dom = bits >> int(E.positions[domain_idempotent(S, t)]) & 1
                if not t_dom:
                    continue
                mid = theta_apply(E, t, bits)
                if not mid >> int(E.positions[domain_idempotent(S, s)]) & 1:
                    continue
                # both theta_s theta_t and theta_st are defined here
                assert theta_apply(E, s, mid) == theta_apply(E, st, bits)


def test_same_germ_reflexive_with_domain_witness():
    _, bs, E, spec = _pair2_setup(full=True)
    S = bs.semigroup
    for s in range(len(S)):
        dom = int(E.positions[domain_idempotent(S, s)])
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
    xi = 1 << int(E.positions[S.index["u0"]])
    assert not same_germ(E, s1, s2, xi)
    assert not same_germ(E, S.index["u0"], s1, xi)


def test_same_germ_via_restriction():
    G, bs, E, _ = _pair2_setup(full=True)
    S = bs.semigroup
    big = S.index["a01+a10"]
    small = S.index["a01"]
    xi = 1 << int(E.positions[S.index["u0"]])
    xi |= 1 << int(E.positions[S.index["u0+u1"]])
    # small = big * {u0} and the character keeps {u0} alive
    assert S.table[big][S.index["u0"]] == small
    assert same_germ(E, small, big, xi)


def test_same_germ_outside_domain():
    _, bs, E, _ = _pair2_setup()
    S = bs.semigroup
    xi_y = 1 << int(E.positions[S.index["u1"]])
    with pytest.raises(ValidationError, match="character vanishes at the domain of a01"):
        same_germ(E, S.index["a01"], S.index["a01"], xi_y)


def test_same_germ_is_equivalence_per_point():
    _, bs, E, spec = _pair2_setup(full=True)
    S = bs.semigroup
    for bits in spec.points:
        valid = [
            s
            for s in range(len(S))
            if bits >> int(E.positions[domain_idempotent(S, s)]) & 1
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
    left, right = np.nonzero(H.compose >= 0)
    assert len(left) > len(H.arrows)  # the composable pairs past the unit laws
    for a, b in zip(left.tolist(), right.tolist()):
        c = H.compose[a, b]
        pb = model.arrow_point[b]
        for sa in model.arrow_members[a]:
            for sb in model.arrow_members[b]:
                assert germ(model, S.table[sa][sb], pb) == c


def test_theta_point_matches_groupoid_range():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    model = build_germ_model(bs.semigroup)
    H = model.groupoid
    assert H.units == tuple(range(len(model.spectrum.points)))  # the unit at point p is arrow p
    for a in range(len(H.arrows)):
        s, pt = model.arrow_rep[a], model.arrow_point[a]
        assert H.r[a] == theta_point(model.spectrum, s, pt)
        assert H.d[a] == pt


def _tables_with_germs(corpus_runs, *families):
    """Abstract tables, at seeds 0 and 1, of the corpus documents and pair2.gpd
    in both collections and of the given families, then the tests/data tables
    that validate."""
    pair2 = parse_groupoid((DATA / "pair2.gpd").read_text(encoding="utf-8"))
    runs = [(run.groupoid, run.masks) for run in corpus_runs]
    runs += [(pair2, singleton_semigroup(pair2)), (pair2, enumerate_bisections(pair2))]
    assert len(runs) == 30  # 14 corpus documents and pair2.gpd, in both collections
    for G, masks in runs + list(families):
        bs = bisection_semigroup(G, masks)
        for seed in (0, 1):
            yield abstract_table(bs, seed=seed)[0]
    tables = 0
    for path in sorted(DATA.glob("*.sgp")):
        try:
            S = parse_semigroup(path.read_text(encoding="utf-8"))
        except ValidationError:
            continue  # a table that fails validation has no germs
        yield S
        tables += 1
    assert tables == 1  # chain.sgp


def _ample(G):
    return G, enumerate_bisections(G)


def test_gathered_targets_match_the_theta_oracle(corpus_runs):
    # build_germ_model finds every target in one gather; theta_point acts arrow by arrow
    families = [_ample(units_groupoid(6)), _ample(disjoint_union(pair_groupoid(3), group_groupoid(4)))]
    for S in _tables_with_germs(corpus_runs, *families):
        model = build_germ_model(S)
        expected = [theta_point(model.spectrum, *a) for a in zip(model.arrow_rep, model.arrow_point)]
        assert list(model.groupoid.r) == expected


def test_germ_classes_match_the_point_loop_oracle(corpus_runs):
    # one sort of dense class codes against the per-point groupby and its (point, key) dict
    units40 = units_groupoid(40)
    families = [
        _ample(units_groupoid(6)),
        _ample(disjoint_union(pair_groupoid(3), group_groupoid(4))),
        _ample(units_groupoid(10)),
        (units40, singleton_semigroup(units40)),  # a flat spectrum with 40 points
    ]
    zero = validate_inverse_semigroup(["0"], [[0]])  # its spectrum is empty
    checked = 0
    for S in [*_tables_with_germs(corpus_runs, *families), zero]:
        model, oracle = build_germ_model(S), germ_model_by_point_loop(S)
        for field in fields(GermGroupoidModel):
            assert getattr(model, field.name) == getattr(oracle, field.name), field.name
        H, K = model.groupoid, oracle.groupoid
        assert (H.arrows, H.r, H.inverse) == (K.arrows, K.r, K.inverse)
        assert np.array_equal(H.compose, K.compose)
        checked += 1
    assert checked == 2 * 34 + 2
    assert len(model.groupoid.arrows) == 0


def test_slice_of_zero_is_empty():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, singleton_semigroup(G))
    model = build_germ_model(bs.semigroup)
    assert slice_of(model, bs.semigroup.zero) == 0


def test_slice_of_idempotent_is_unit_set():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    model = build_germ_model(bs.semigroup)
    E = model.semilattice
    assert model.groupoid.units == tuple(range(len(model.spectrum.points)))
    for e in E.carrier:
        # the unit at point p is arrow p, so the unit set is D_e itself
        assert slice_of(model, e) == model.spectrum.basic_sets[e]


def test_slice_sizes_match_basic_sets():
    for G in (pair_groupoid(3), units_groupoid(2), group_groupoid(3)):
        bs = bisection_semigroup(G, singleton_semigroup(G))
        model = build_germ_model(bs.semigroup)
        S = bs.semigroup
        for s in range(len(S)):
            dom = domain_idempotent(S, s)
            assert slice_of(model, s).bit_count() == model.spectrum.basic_sets[dom].bit_count()


def test_slice_map_is_multiplicative_and_star_compatible():
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    model = build_germ_model(bs.semigroup)
    S = bs.semigroup
    H = model.groupoid
    for s in range(len(S)):
        assert slice_inverse(H, slice_of(model, s)) == slice_of(model, 
            S.star[s]
        )
        for t in range(len(S)):
            assert (
                slice_product(H, slice_of(model, s), slice_of(model, t))
                == slice_of(model, S.table[s][t])
            )


def test_empty_spectrum_gives_empty_groupoid():
    Z = validate_inverse_semigroup(["0"], [[0]])
    H = reconstruct(Z)
    assert len(H.arrows) == 0
