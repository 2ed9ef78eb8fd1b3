import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from ample import (
    AlgebraElement,
    bisection_semigroup,
    check_tight_representation,
    corpus,
    group_groupoid,
    enumerate_bisections,
    pair_groupoid,
    parse_groupoid,
    rho,
    run_reconstruction,
    singleton_semigroup,
    slice_product,
    units_groupoid,
    validate_inverse_semigroup,
)
from ample import convolution
from ample.bitsets import iter_bits, mask_of
from ample.convolution import AUDIT_COVER_SIZE, _minimal_covers
from ample.errors import BoundExceeded, CheckFailed, ValidationError
from ample.semigroups import FiniteInverseSemigroup, idempotent_semilattice
from ample.semigroups import ranked_generators
from ample.spectrum import tight_spectrum

import lemmas
from lemmas import slice_inverse, slice_of, sup, sup_all, unit_cover
from oracles import (
    _count_instances,
    _cover_sup_violations,
    add,
    atom_characters_by_definition,
    element_hash,
    element_repr,
    neg,
    closure_by_definition,
    covers_upto_by_definition,
    minimal_covers_by_definition,
    orthogonal_blocks_by_definition,
    representation_laws_by_definition,
    star,
    tight_representation_by_definition,
)
from semilattice_zoo import all_semilattices_upto
from test_semigroups import chain_semilattice, powerset_semilattice

DATA = Path(__file__).parent / "data"


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
    assert not rho(G, 1 << a01) * rho(G, 1 << a01)


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
        assert star(f) == rho(G, slice_inverse(G, s))
        assert f * star(f) * f == f


def test_rho_zero_and_injective():
    G = pair_groupoid(2)
    assert not rho(G, 0)
    bis = enumerate_bisections(G)
    images = [rho(G, s) for s in bis]
    for i, f in enumerate(images):
        for j, g in enumerate(images):
            assert (f == g) == (i == j)


def test_oracle_hash_and_repr_follow_the_coefficients():
    G = pair_groupoid(2)
    u0, a01 = G.index["u0"], G.index["a01"]
    f = AlgebraElement(G, [(a01, Fraction(1, 2)), (u0, 1), (a01, Fraction(1, 2))])
    assert f == rho(G, 1 << u0 | 1 << a01) and element_hash(f) == element_hash(rho(G, 5))
    assert element_repr(f) == "AlgebraElement(1*[u0] + 1*[a01])"
    assert element_repr(add(f, neg(f))) == "AlgebraElement(0)"


def test_bad_arrow_indices_are_rejected():
    # unchecked, -1 would wrap to the last arrow under star() and 4 would index past compose
    G = pair_groupoid(2)
    for bad in (-1, 4, 70):
        with pytest.raises(ValueError, match=f"^arrow index {bad} out of range$"):
            AlgebraElement(G, {bad: 1})
    with pytest.raises(ValueError, match=r"^arrow index 0\.5 is not an integer$"):
        AlgebraElement(G, [(0, 1), (0.5, 1), (9, 1)])
    assert AlgebraElement(G, {np.int64(3): 2}) == AlgebraElement(G, {3: 2})


def test_negative_masks_are_rejected():
    # iter_bits never ended on a negative mask, so these calls hung
    G = pair_groupoid(2)
    for build in (rho, AlgebraElement.indicator):
        for bad in (-1, -6, 16):
            with pytest.raises(ValueError, match=f"^mask {bad} is not a set of the 4 arrows$"):
                build(G, bad)
        assert build(G, 15) == AlgebraElement(G, {a: 1 for a in range(4)})
    with pytest.raises(ValueError, match="^mask -1 is negative$"):
        list(iter_bits(-1))


def test_representations_without_an_image_of_every_element_are_value_errors():
    # a missing key, a short list and a non-element failed as KeyError, IndexError, AttributeError
    G = pair_groupoid(2)
    bs = bisection_semigroup(G, enumerate_bisections(G))
    pi = [rho(G, m) for m in bs.bits]
    last = bs.semigroup.elements[-1]
    for bad, message in [
        (dict(enumerate(pi[1:], 1)), "pi has no image of element 0"),
        (pi[:-1], f"pi has no image of element {last}"),
        (pi[:-1] + [1], f"pi({last}) is not an AlgebraElement"),
    ]:
        with pytest.raises(ValueError) as exc:
            check_tight_representation(bad, bs.semigroup)
        assert str(exc.value) == message
    assert check_tight_representation(dict(enumerate(pi)), bs.semigroup).passed


def test_groupoid_mismatch_rejected():
    f = rho(pair_groupoid(2), 1)
    g = rho(pair_groupoid(2), 1)  # distinct object
    with pytest.raises(ValidationError, match="operands live over different groupoids"):
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
    two = add(u, u)
    pi = {0: AlgebraElement.zero(G), 1: two}
    with pytest.raises(CheckFailed):
        check_tight_representation(pi, bs.semigroup)


def test_rho_prime_is_tight_on_germ_model():
    G = pair_groupoid(2)
    run = run_reconstruction(bisection_semigroup(G, enumerate_bisections(G)), seed=0)
    model = run.model
    H = model.groupoid
    pi = [rho(H, slice_of(model, s)) for s in range(len(run.table))]
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
    with pytest.raises(ValidationError, match="no tight characters, nothing to cover"):
        unit_cover(Z)


def test_unit_cover_search_is_bounded(monkeypatch):
    # subsets of {1,2} without the top: {a}, {b}, then {a, b} covers
    S = validate_inverse_semigroup(["0", "a", "b"], [[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    monkeypatch.setattr(lemmas, "MAX_COVER_COMBINATIONS", 3)
    assert sorted(S.elements[e] for e in unit_cover(S)) == ["a", "b"]
    monkeypatch.setattr(lemmas, "MAX_COVER_COMBINATIONS", 2)
    with pytest.raises(BoundExceeded):
        unit_cover(S)


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
        assert _minimal_covers(isect, fplus) == minimal_covers_by_definition(isect, fplus), (
            isect,
            fplus,
        )


def test_covers_match_subset_scan_on_every_family_of_the_zoo():
    for S in (S for items in all_semilattices_upto(5).values() for S in items):
        E = idempotent_semilattice(S)
        isect = E.intersect_masks
        for fplus in range(1 << len(E)):
            if fplus >> E.zero_pos & 1:
                continue
            assert _minimal_covers(isect, fplus) == minimal_covers_by_definition(isect, fplus)
            audit = convolution._all_covers_upto(isect, fplus, AUDIT_COVER_SIZE)
            assert audit == covers_upto_by_definition(isect, fplus, AUDIT_COVER_SIZE)


# -- the fast check against the literal scan --------------------------------------


def _outcome(check, pi, S, audit_covers=False):
    """The report, or the CheckFailed message when the check raises."""
    try:
        return check(pi, S, audit_covers=audit_covers)
    except CheckFailed as exc:
        return ("CheckFailed", str(exc))


def _assert_matches_oracle(pi, S, label):
    for audit in (False, True):
        fast = _outcome(check_tight_representation, pi, S, audit)
        slow = _outcome(tight_representation_by_definition, pi, S, audit)
        assert fast == slow, (label, audit)


def _ample(G):
    return bisection_semigroup(G, enumerate_bisections(G))


def test_tight_representation_matches_scan_on_corpus(corpus_runs):
    runs = [(r.label, r.groupoid, r.bisection_semigroup) for r in corpus_runs]
    G = parse_groupoid((DATA / "pair2.gpd").read_text(encoding="utf-8"))
    runs += [("fixture/ample", G, _ample(G))]
    runs += [("fixture/singleton", G, bisection_semigroup(G, singleton_semigroup(G)))]
    empty = parse_groupoid("groupoid { units { } arrows { } compose { } inverse { } }")
    runs += [("no units", empty, bisection_semigroup(empty, [0]))]
    for label, G, bs in runs:
        _assert_matches_oracle([rho(G, m) for m in bs.bits], bs.semigroup, label)


def _is_automorphism(G, perm):
    moved = np.full_like(G.compose, -1)
    for a, b in zip(*np.nonzero(G.compose >= 0)):
        moved[perm[a], perm[b]] = perm[G.compose[a, b]]
    return all(perm[G.inverse[a]] == G.inverse[perm[a]] for a in range(len(perm))) and (
        np.array_equal(moved, G.compose)
    )


def test_non_tight_maps_match_scan():
    rng = random.Random(6)
    failing = raised = 0
    for G in (units_groupoid(2), units_groupoid(3), units_groupoid(4), pair_groupoid(2), pair_groupoid(3)):
        bs = _ample(G)
        for _ in range(3):
            keep = mask_of(u for u in G.units if rng.random() < 0.5)
            pi = [rho(G, m & keep) for m in bs.bits]
            _assert_matches_oracle(pi, bs.semigroup, (G.arrows, keep))
            failing += not check_tight_representation(pi, bs.semigroup).passed
    # every relabeling of a units-only groupoid is an automorphism
    for G in (pair_groupoid(2), pair_groupoid(3), corpus()["pair2+units1"]):
        bs = _ample(G)
        perm = list(range(len(G.arrows)))
        for _ in range(3):
            while _is_automorphism(G, perm):
                rng.shuffle(perm)
            pi = [rho(G, mask_of(perm[a] for a in iter_bits(m))) for m in bs.bits]
            _assert_matches_oracle(pi, bs.semigroup, (G.arrows, perm))
            outcome = _outcome(check_tight_representation, pi, bs.semigroup)
            raised += isinstance(outcome, tuple)
            failing += not isinstance(outcome, tuple) and not outcome.passed
            rng.shuffle(perm)
    assert failing and raised


def test_representation_laws_match_convolution_on_perturbations():
    rng = random.Random(7)
    for G in (pair_groupoid(2), pair_groupoid(3), units_groupoid(3), group_groupoid(3)):
        bs = _ample(G)
        S = bs.semigroup
        plain = [rho(G, m) for m in bs.bits]
        others = [s for s in range(len(S)) if s not in S.idempotents]
        targets = others or list(range(len(S)))
        for _ in range(4):
            s, t = rng.sample(targets, 2) if len(targets) > 1 else (targets[0], S.zero)
            arrow = rng.randrange(len(G.arrows))
            for value in (Fraction(2), Fraction(1, 3), Fraction(1 << 40)):
                pi = list(plain)
                pi[s] = AlgebraElement(G, {**pi[s].coeffs, arrow: value})
                pm = convolution._coefficient_matrix(pi, G)
                assert pm.scale == value.denominator
                assert (pm.rows.dtype == object) == (value == 1 << 40)
                _assert_laws_match(pi, S, (G.arrows, s, arrow, value))
            pi = list(plain)
            pi[s], pi[t] = pi[t], pi[s]
            _assert_laws_match(pi, S, (G.arrows, s, t))


def _assert_laws_match(pi, S, label):
    fast = _outcome(check_tight_representation, pi, S)
    try:
        slow = representation_laws_by_definition(pi, S)
    except CheckFailed as exc:
        assert fast == ("CheckFailed", str(exc)), label
        return
    assert not isinstance(fast, tuple), label
    got = (fast.multiplicativity, fast.star_compatible, fast.zero_preserved)
    assert got == slow[:3], label
    if not all(slow[:3]):
        assert fast.failure_witness == slow[3], label


def test_generator_route_keeps_the_oracle_verdicts():
    # multiplicativity is decided on the rows of pair2+pair2 ample's 5
    # generators, and a failure is named by the row-major scan
    G = corpus()["pair2+pair2"]
    bs = _ample(G)
    S = bs.semigroup
    gens = set(ranked_generators(S.table))
    assert len(gens) == 5
    plain = [rho(G, m) for m in bs.bits]
    rng = random.Random(3)
    lefts = set()
    for _ in range(8):
        s, t = rng.sample([x for x in range(len(S)) if x != S.zero], 2)
        pi = list(plain)
        pi[s], pi[t] = pi[t], pi[s]
        _assert_laws_match(pi, S, (s, t))
        report = _outcome(check_tight_representation, pi, S)
        if not isinstance(report, tuple):
            lefts.add(S.index[report.failure_witness[3:].split()[0]])
    # some witnesses have a left factor whose row the verdict never checked
    assert lefts - gens
    # doubling pi off what the other generators generate breaks, among the
    # generator rows, only the row of the one left out
    broken = 0
    for g in gens:
        inside = closure_by_definition(S.table.tolist(), gens - {g})
        if g not in inside:
            pi = [f if s in inside else add(f, f) for s, f in enumerate(plain)]
            _assert_laws_match(pi, S, g)
            broken += 1
    assert broken == 4
    # images of idempotents that are not idempotent, or do not commute
    H = pair_groupoid(2)
    e0 = rho(H, 1 << H.index["u0"])
    skew = rho(H, 1 << H.index["u0"] | 1 << H.index["a01"])
    s, t = sorted(set(S.idempotents) - gens - {S.zero})[-2:]
    for image, message in ((skew, "and .* do not commute"), (add(e0, e0), "is not idempotent")):
        pi = [AlgebraElement.zero(H)] * len(S)
        pi[s], pi[t] = e0, image
        with pytest.raises(CheckFailed, match=message):
            representation_laws_by_definition(pi, S)
        _assert_laws_match(pi, S, message)


def test_idempotent_and_commutation_messages():
    S = _ample(units_groupoid(2)).semigroup
    G = pair_groupoid(2)
    u0, a01 = G.index["u0"], G.index["a01"]
    zero = AlgebraElement.zero(G)
    e0 = rho(G, 1 << u0)
    skew = rho(G, 1 << u0 | 1 << a01)  # idempotent, and does not commute with e0
    assert skew * skew == skew and skew * e0 != e0 * skew
    pi = {S.index["0"]: zero, S.index["u0"]: e0, S.index["u1"]: skew}
    pi[S.index["u0+u1"]] = AlgebraElement.unit(G)
    for check in (check_tight_representation, representation_laws_by_definition):
        with pytest.raises(CheckFailed, match=r"^pi\(u0\) and pi\(u1\) do not commute$"):
            check(pi, S)
    pi[S.index["u1"]] = add(e0, e0)
    for check in (check_tight_representation, representation_laws_by_definition):
        with pytest.raises(CheckFailed, match=r"^pi\(u1\) is not idempotent$"):
            check(pi, S)


def test_listing_violations_is_bounded(monkeypatch):
    G = units_groupoid(2)
    bs = _ample(G)
    pi = [rho(G, m & 1 << G.index["u0"]) for m in bs.bits]
    report = check_tight_representation(pi, bs.semigroup)
    assert report.instances_checked == 25 and report.tightness_witnesses
    monkeypatch.setattr(convolution, "MAX_REP_INSTANCES", 25)
    assert check_tight_representation(pi, bs.semigroup) == report
    monkeypatch.setattr(convolution, "MAX_REP_INSTANCES", 24)
    with pytest.raises(BoundExceeded):
        check_tight_representation(pi, bs.semigroup)
    # a passing verdict lists nothing, so the bound does not apply
    assert check_tight_representation([rho(G, m) for m in bs.bits], bs.semigroup).passed


def test_counting_states_is_bounded(monkeypatch):
    # the count memoizes 6 states on units2 ample, and guards passing verdicts too
    G = units_groupoid(2)
    bs = _ample(G)
    pi = [rho(G, m) for m in bs.bits]
    report = check_tight_representation(pi, bs.semigroup)
    assert report.passed and report.instances_checked == 25
    monkeypatch.setattr(convolution, "MAX_REP_STATES", 6)
    assert check_tight_representation(pi, bs.semigroup) == report
    monkeypatch.setattr(convolution, "MAX_REP_STATES", 5)
    with pytest.raises(BoundExceeded):
        check_tight_representation(pi, bs.semigroup)


def test_count_past_the_stack_limit_is_bound_exceeded():
    # 1100 orthogonal atoms under a top: one block, whose antichains and covers
    # of 1100 members recurse past Python's stack limit, so the count reports
    # BoundExceeded; without the top they are 1100 one-atom blocks
    n = 1102
    table = np.zeros((n, n), dtype=np.int32)
    table[np.arange(n), np.arange(n)] = np.arange(n)
    table[-1], table[:, -1] = np.arange(n), np.arange(n)
    # built directly, as relabelling code does, to skip the cubic validation
    S = FiniteInverseSemigroup(tuple(f"e{i}" for i in range(n)), table, 0, tuple(range(n)))
    E = idempotent_semilattice(S)
    with pytest.raises(BoundExceeded):
        convolution._cover_sup_count(E, lambda fplus: _minimal_covers(E.intersect_masks, fplus))
    flat = FiniteInverseSemigroup(S.elements[:-1], table[:-1, :-1], 0, tuple(range(n - 1)))
    E = idempotent_semilattice(flat)
    count = convolution._cover_sup_count(E, lambda fplus: _minimal_covers(E.intersect_masks, fplus))
    assert count == (n * 2 ** (n - 2), n * 2 ** (n - 2))


# -- one walker for the count and the listing -----------------------------------


def _covers_of(E, audit):
    """covers_of as check_tight_representation builds it."""
    cache = {}

    def covers_of(fplus):
        if fplus not in cache:
            covers = _minimal_covers(E.intersect_masks, fplus)
            if audit:
                extra = convolution._all_covers_upto(E.intersect_masks, fplus, AUDIT_COVER_SIZE)
                covers = tuple(sorted(set(covers) | set(extra)))
            cache[fplus] = covers
        return cache[fplus]

    return covers_of


def _walk(E, atom_masks, covers_of):
    """Instances, covers and violations of the listing walk over all of E."""
    return convolution._cover_sup_walk(E, atom_masks, covers_of)


def _assert_walk_matches_two_walks(E, atom_masks, label):
    """The walker against the separate count and listing it replaced.

    Returns the violations with minimal covers, then with audited covers.
    """
    listed = []
    for audit in (False, True):
        covers_of = _covers_of(E, audit)
        instances, covers, violations = _walk(E, atom_masks, covers_of)
        assert (instances, covers) == _count_instances(E, covers_of), (label, audit)
        assert violations == _cover_sup_violations(E, atom_masks, covers_of), (label, audit)
        assert _walk(E, (), covers_of) == (instances, covers, []), label
        listed.append(violations)
    return listed


def _atoms(pi, S):
    E = idempotent_semilattice(S)
    G = pi[S.zero].groupoid
    return E, convolution._atom_characters(convolution._coefficient_matrix(pi, G), E, G.units)


# -- the atoms on integer rows against the Fraction refinement --------------------


def _atoms_by_definition(pi, S):
    E = idempotent_semilattice(S)
    return E, atom_characters_by_definition(pi, E, AlgebraElement.unit(pi[S.zero].groupoid))


def _atom_outcome(atoms, pi, S):
    """The atom masks, or the CheckFailed message when the refinement raises."""
    try:
        return atoms(pi, S)[1]
    except CheckFailed as exc:
        return ("CheckFailed", str(exc))


def _projections_of_units1():
    """units1 ample in pair2's algebra, pi(u0) an idempotent with coefficients other than 1.

    The scaled rows of the second are Python ints; the third has scale 2^40.
    """
    G = pair_groupoid(2)
    S = _ample(units_groupoid(1)).semigroup
    u0, u1, a01, a10 = (G.index[name] for name in ("u0", "u1", "a01", "a10"))
    images = [
        dict.fromkeys((u0, u1, a01, a10), Fraction(1, 2)),
        {u0: 1, a10: 1 << 40},
        {u0: 1, a10: Fraction(1, 1 << 40)},
    ]
    out = []
    for coeffs in images:
        pi = [AlgebraElement.zero(G)] * len(S)
        pi[S.index["u0"]] = AlgebraElement(G, coeffs)
        out.append((pi, S))
    return out


def _conjugated_units(n):
    """units(n) ample in pair(n)'s algebra, each unit set conjugated by 1 + 2^-20 a01."""
    G, H = pair_groupoid(n), units_groupoid(n)
    bs = _ample(H)
    units = dict.fromkeys(G.units, 1)
    t = AlgebraElement(G, {**units, G.index["a01"]: Fraction(1, 1 << 20)})
    t_inverse = AlgebraElement(G, {**units, G.index["a01"]: Fraction(-1, 1 << 20)})
    pi = [t * rho(G, mask_of(G.index[H.arrows[u]] for u in iter_bits(m))) * t_inverse for m in bs.bits]
    return pi, bs.semigroup


def test_atoms_on_integer_rows_match_the_fraction_refinement(corpus_runs):
    rng = random.Random(30)
    cases = []
    for r in corpus_runs:
        G, bs = r.groupoid, r.bisection_semigroup
        keep = mask_of(u for u in G.units if rng.random() < 0.5)
        cases += [([rho(G, m & mask) for m in bs.bits], bs.semigroup) for mask in (-1, keep)]
    empty = parse_groupoid("groupoid { units { } arrows { } compose { } inverse { } }")
    cases.append(([rho(empty, 0)], bisection_semigroup(empty, [0]).semigroup))
    projections = _projections_of_units1()
    for pi, S in cases + projections + [_conjugated_units(4)]:
        assert _atom_outcome(_atoms, pi, S) == _atom_outcome(_atoms_by_definition, pi, S)
    assert [_atoms(pi, S)[1] for pi, S in projections] == [[2, 0]] * 3
    assert [check_tight_representation(pi, S).star_compatible for pi, S in projections] == [
        True,
        False,
        False,
    ]
    dtypes = [convolution._coefficient_matrix(pi, pi[0].groupoid).rows.dtype for pi, _ in projections]
    assert dtypes == [np.int64, object, object]


def test_atoms_pass_int64_past_three_splits_at_scale_2_to_the_20():
    # the conjugated unit sets split three times, and their rows grow by
    # 2^20 a split: the refinement starts on int64 rows and ends on Python ints
    pi, S = _conjugated_units(4)
    report = check_tight_representation(pi, S)
    assert report.multiplicativity and report.zero_preserved and not report.star_compatible
    assert convolution._coefficient_matrix(pi, pi[0].groupoid).rows.dtype == np.int64
    E, masks = _atoms(pi, S)
    assert len(masks) == 4 and masks == atom_characters_by_definition(pi, E, AlgebraElement.unit(pi[0].groupoid))


def test_the_atom_certification_names_the_first_image_off_its_atoms():
    # the refinement reads pi from support and weights; the certification
    # compares the atoms with the rows, and names the first position they miss
    G = units_groupoid(2)
    bs = _ample(G)
    S = bs.semigroup
    pi = [rho(G, m) for m in bs.bits]
    E = idempotent_semilattice(S)
    pm = convolution._coefficient_matrix(pi, G)
    assert convolution._atom_characters(pm, E, G.units) == _atoms_by_definition(pi, S)[1]
    pm.rows[S.index["u1"], G.index["u0"]] = 1
    pm.rows[S.index["u0+u1"], G.index["u0"]] = 2
    with pytest.raises(CheckFailed, match=r"^pi\(u1\) is not the sum of the atoms below it$"):
        convolution._atom_characters(pm, E, G.units)


def test_walk_matches_two_walks_on_the_zoo():
    # tight points pass; dropping one, or adding every filter, fails
    failing = 0
    for S in (S for items in all_semilattices_upto(5).values() for S in items):
        E = idempotent_semilattice(S)
        spec = tight_spectrum(E)
        points = list(spec.points)
        filters = [m for m in E.minimum_of if m not in spec.point_index]
        for atom_masks in (points, points[1:], points + filters, points[::-1]):
            failing += bool(_assert_walk_matches_two_walks(E, atom_masks, S.table.tolist())[0])
    assert failing


def test_walk_matches_two_walks_on_the_corpus(corpus_runs):
    failing = 0
    for r in corpus_runs:
        G, bs = r.groupoid, r.bisection_semigroup
        drop = G.units_mask & ~(1 << G.units[0]) if G.units else 0
        for keep in (-1, drop):
            E, atom_masks = _atoms([rho(G, m & keep) for m in bs.bits], bs.semigroup)
            failing += bool(_assert_walk_matches_two_walks(E, atom_masks, (r.label, keep))[0])
    assert failing


def test_walk_lists_units5_without_u0_in_order():
    G = units_groupoid(5)
    bs = _ample(G)
    pi = [rho(G, m & ~(1 << G.index["u0"])) for m in bs.bits]
    E, atom_masks = _atoms(pi, bs.semigroup)
    plain, audited = _assert_walk_matches_two_walks(E, atom_masks, "units5 - u0")
    assert (len(plain), len(audited)) == (8511, 45116)
    report = check_tight_representation(pi, bs.semigroup)
    assert len(report.tightness_witnesses) == 8511 and not report.passed


@pytest.mark.parametrize("name, states", [("pair2", 6), ("units4", 53), ("units5", 385)])
def test_walk_memoizes_pinned_states_on_passing_runs(monkeypatch, name, states):
    # a passing verdict walks each block once, from the one root with no X,
    # and each leaf holds h(O) of its O; these have one block
    G = pair_groupoid(2) if name == "pair2" else units_groupoid(int(name[5:]))
    bs = _ample(G)
    E = idempotent_semilattice(bs.semigroup)
    assert orthogonal_blocks_by_definition(E) == [E.nonzero_mask]
    covers_of = _covers_of(E, False)
    monkeypatch.setattr(convolution, "MAX_REP_STATES", states)
    assert convolution._cover_sup_count(E, covers_of) == _count_instances(E, covers_of)
    monkeypatch.setattr(convolution, "MAX_REP_STATES", states - 1)
    with pytest.raises(BoundExceeded):
        convolution._cover_sup_count(E, covers_of)


# -- the count, one orthogonal block at a time ----------------------------------


def _assert_block_count_matches(E, label):
    covers_of = _covers_of(E, False)
    count = convolution._cover_sup_count(E, covers_of)
    assert count == _walk(E, (), covers_of)[:2] == _count_instances(E, covers_of), label
    return len(orthogonal_blocks_by_definition(E))


def test_block_count_matches_the_walk_on_the_zoo():
    zoo = [S for items in all_semilattices_upto(6).values() for S in items]
    blocks = [_assert_block_count_matches(idempotent_semilattice(S), S.table.tolist()) for S in zoo]
    assert (len(blocks), sum(b >= 2 for b in blocks), blocks.count(0)) == (77, 27, 1)


def test_block_count_matches_the_walk_on_the_corpus(corpus_runs):
    blocks = []
    for r in corpus_runs:
        E = idempotent_semilattice(r.bisection_semigroup.semigroup)
        blocks.append(_assert_block_count_matches(E, r.label))
    assert max(blocks) >= 2


@pytest.mark.parametrize("n", [12, 16, 20])
def test_pair_singleton_counts_have_a_closed_form(n):
    # n one-unit blocks of two antichains each, with two covers from each root
    G = pair_groupoid(n)
    bs = bisection_semigroup(G, singleton_semigroup(G))
    report = check_tight_representation([rho(G, m) for m in bs.bits], bs.semigroup)
    assert report.passed
    assert report.instances_checked == report.covers_checked == (n + 2) * 2**n
