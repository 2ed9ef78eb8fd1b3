import itertools
import random
import re
import time
from collections import Counter

import numpy as np
import pytest

from ample import (
    abstract_table,
    bisection_name,
    bisection_semigroup,
    brute_force_iso,
    canonical_iso_of_run,
    check_isomorphism,
    corpus,
    disjoint_union,
    enumerate_bisections,
    enumerate_point_bases,
    group_groupoid,
    pair_groupoid,
    point_basis_space,
    reconstruct,
    run_reconstruction,
    singleton_semigroup,
    stone_check,
    tight_spectrum,
    units_groupoid,
    validate_groupoid,
    validate_inverse_semigroup,
)
from ample.bitsets import iter_bits, mask_of
from ample.errors import AmpleError, BoundExceeded, CheckFailed, ValidationError
from ample import reconstruction
from ample.groupoids import TableAudit
from ample.reconstruction import (
    GroupoidIsomorphism,
    PointBasisSpace,
    ReconstructionRun,
    _intersection_tables,
    stone_laws,
)

from lemmas import equivariance_check, slice_of
from oracles import (
    basis_semilattice,
    brute_force_iso_by_scan,
    canonical_map_by_member_loop,
    phi_point,
    point_bases_by_definition,
    stone_check_by_definition,
)
from test_groupoids import pair_times_cyclic
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
    # point indices are checked before any mask is built, so -1 never reaches 1 << -1
    for bad in (-1, 2, 70):
        with pytest.raises(ValidationError, match=f"unknown point {bad}"):
            point_basis_space(["x", "y"], [(), (0,), (1,), (0, 1), (0, bad)])


def test_point_basis_space_rejects_non_integer_points():
    # int() would truncate 0.9 and 1.2 to points 0 and 1
    with pytest.raises(ValueError, match=r"^point index 0\.9 is not an integer$"):
        point_basis_space(["a", "b"], [[], [0.9], [1], [0, 1.2]])
    with pytest.raises(ValueError, match=r"^point index 1\.2 is not an integer$"):
        point_basis_space(["a", "b"], [[], [0], [1], [0, 1.2]])


def test_point_bases_match_the_definition():
    counts = []
    for n in range(5):
        spaces = list(enumerate_point_bases(n))
        got = [tuple(frozenset(iter_bits(s)) for s in space.basis) for space in spaces]
        assert got == point_bases_by_definition(n)
        assert all(space.points == tuple(f"p{i}" for i in range(n)) for space in spaces)
        counts.append(len(spaces))
    assert counts == [1, 1, 2, 16, 1090]  # 1110 in all, as stone-check --max-points 4 prints


def test_five_points_have_1405050_closed_bases(monkeypatch):
    # every generated family is closed, the picks ascend, and the guard counts
    # generated families, not candidates
    sets = [mask_of(c) for k in range(2, 6) for c in itertools.combinations(range(5), k)]
    bit = {s: 1 << i for i, s in enumerate(sets)}
    count, last = 0, -1
    for space in enumerate_point_bases(5):
        if count % 1009 == 0:
            assert point_basis_space(space.points, map(iter_bits, space.basis)) == space
            pick = sum(bit[s] for s in space.basis[6:])
            assert pick > last
            last = pick
        count += 1
    assert count == 1405050
    monkeypatch.setattr(reconstruction, "MAX_BASIS_FAMILIES", 1090)
    assert len(list(enumerate_point_bases(4))) == 1090
    monkeypatch.setattr(reconstruction, "MAX_BASIS_FAMILIES", 1089)
    with pytest.raises(BoundExceeded, match="^basis enumeration on 4 points would generate"):
        enumerate_point_bases(4)


def test_six_points_pass_the_guard_at_once():
    start = time.perf_counter()
    message = "^basis enumeration on 6 points would generate more than 2097152 families$"
    with pytest.raises(BoundExceeded, match=message):
        enumerate_point_bases(6)
    with pytest.raises(BoundExceeded, match="on 40 points"):
        enumerate_point_bases(40)
    assert time.perf_counter() - start < 5


def test_phi_point_powerset():
    space = point_basis_space(["1", "2"], [(), (0,), (1,), (0, 1)])
    sets = space.basis
    bits = phi_point(space, tight_spectrum(basis_semilattice(space)), 0)
    members = {sets[p] for p in range(len(sets)) if bits >> p & 1}
    assert members == {mask_of([0]), mask_of([0, 1])}


def test_phi_point_single_point():
    space = point_basis_space(["x"], [(), (0,)])
    sets = space.basis
    bits = phi_point(space, tight_spectrum(basis_semilattice(space)), 0)
    members = {sets[p] for p in range(len(sets)) if bits >> p & 1}
    assert members == {mask_of([0])}  # everything except the empty set


def test_phi_point_three_points():
    space = point_basis_space(
        ["1", "2", "3"], [(), (0,), (1,), (2,), (0, 1), (0, 1, 2)]
    )
    sets = space.basis
    bits = phi_point(space, tight_spectrum(basis_semilattice(space)), 2)
    members = {sets[p] for p in range(len(sets)) if bits >> p & 1}
    assert members == {mask_of([2]), mask_of([0, 1, 2])}


def test_stone_check_powerset_two_points():
    space = point_basis_space(["1", "2"], [(), (0,), (1,), (0, 1)])
    (report,) = stone_check([space])
    assert report.passed
    assert report.spectrum_size == 2
    report.require()  # no-op on pass


def test_stone_check_degenerate_empty_space():
    space = point_basis_space([], [()])
    (report,) = stone_check([space])
    assert report.passed
    assert report.spectrum_size == 0


def test_stone_sweep_small():
    counts = {}
    for n in range(4):
        spaces = list(enumerate_point_bases(n))
        counts[n] = len(spaces)
        assert all(report.passed for report in stone_check(spaces))
    assert counts[0] == 1 and counts[1] == 1 and counts[2] == 2 and counts[3] == 16


def _outcome(check, space):
    """The report, or the type and message of what the check raised."""
    try:
        return check(space)
    except AmpleError as exc:
        return type(exc), str(exc)


def _closed_families_with_empty_set(n):
    """Every intersection-closed family on n points that holds the empty set."""
    larger = range(1, 1 << n)
    out = []
    for pick in range(1 << len(larger)):
        family = (0, *(s for i, s in enumerate(larger) if pick >> i & 1))
        if all(a & b in family for a in family for b in family):
            out.append(PointBasisSpace(tuple(f"p{i}" for i in range(n)), family))
    return out


def test_stone_check_matches_the_per_basis_oracle():
    enumerated = []
    for n in range(5):
        spaces = list(enumerate_point_bases(n))
        assert stone_check(spaces) == [stone_check_by_definition(s) for s in spaces]
        enumerated += spaces
    assert len(enumerated) == 1110
    # singletons not required: some raise, some are not injective
    families = [space for n in range(4) for space in _closed_families_with_empty_set(n)]
    outcomes = []
    for space in families:
        want = _outcome(stone_check_by_definition, space)
        assert _outcome(lambda s: stone_check([s])[0], space) == want, space
        outcomes.append(want)
    raised = [o for o in outcomes if isinstance(o, tuple)]
    reports = [o for o in outcomes if not isinstance(o, tuple)]
    assert len(families) == 101 and {t for t, _ in raised} == {CheckFailed}
    assert len(raised) == 73
    assert sum(r.passed for r in reports) == 20
    assert sum(not r.injective for r in reports) == 8
    # one call over mixed point counts and sizes, in shuffled order
    mixed = enumerated + [s for s, o in zip(families, outcomes) if not isinstance(o, tuple)]
    random.Random(7).shuffle(mixed)
    assert stone_check(mixed) == [stone_check_by_definition(s) for s in mixed]


def test_directly_built_bases_are_validated():
    not_closed = PointBasisSpace(("a", "b", "c"), (0, 1, 2, 3, 5, 6))
    message = r"^basis not closed under intersection at \[0, 2\] and \[1, 2\]$"
    with pytest.raises(ValidationError, match=message):
        basis_semilattice(not_closed)
    with pytest.raises(ValidationError, match=message):
        stone_check([not_closed])
    for stray in (2, -1, 1 << 70):
        space = PointBasisSpace(("a",), (0, 1, stray))
        with pytest.raises(ValidationError, match=f"^basis member {stray} is not a set of 1 points$"):
            stone_check([space])
    # a mask that is not an integer is refused, not truncated
    with pytest.raises(ValueError, match=r"^basis member 1\.0 is not an integer$"):
        stone_check([PointBasisSpace(("a", "b"), (0, 1.0, 2, 3))])
    # a basis too large to check at once is refused before any check
    discrete = PointBasisSpace(tuple(map(str, range(128))), (0, *(1 << i for i in range(128))))
    with pytest.raises(BoundExceeded, match="129 sets on 128 points"):
        stone_check([not_closed, discrete])
    # the first bad basis in input order decides, whatever its stack
    good = point_basis_space(["x"], [(), (0,)])
    with pytest.raises(ValidationError, match="not a set of 1 points"):
        stone_check([good, PointBasisSpace(("a",), (0, 1, 2)), not_closed])
    with pytest.raises(ValidationError, match="not closed"):
        stone_check([good, not_closed, PointBasisSpace(("a",), (0, 1, 2))])
    # an empty basis has no element to be the zero
    empty = PointBasisSpace(("a",), ())
    for check in (basis_semilattice, lambda space: stone_check([space])):
        with pytest.raises(ValidationError, match="^empty element set has no absorbing element$"):
            check(empty)


def test_a_set_listed_twice_is_refused():
    twice = PointBasisSpace(("a",), (0, 1, 1))
    not_closed_twice = PointBasisSpace(("a", "b", "c"), (0, 1, 2, 3, 5, 6, 6))
    for check in (stone_check_by_definition, lambda space: stone_check([space])):
        with pytest.raises(ValueError, match="^duplicate element names$"):
            check(twice)
        with pytest.raises(ValidationError, match="^basis not closed under intersection at"):
            check(not_closed_twice)


def test_wide_bases_match_the_per_basis_oracle():
    # past 62 points the masks are Python ints and the intersections take the
    # comparison cube; 64 or more members pack a row into one or two words
    discrete = [
        PointBasisSpace(tuple(f"p{i}" for i in range(n)), (0, *(1 << i for i in range(n))))
        for n in (63, 64)
    ]
    powerset = PointBasisSpace(tuple(f"p{i}" for i in range(6)), tuple(range(64)))
    spaces = [*discrete, powerset]
    assert [len(space.basis) for space in spaces] == [64, 65, 64]
    reports = stone_check(spaces)
    assert reports == [stone_check_by_definition(space) for space in spaces]
    assert all(report.passed for report in reports)
    assert [report.spectrum_size for report in reports] == [63, 64, 6]
    # a set listed twice, on the cube and on the lookup
    for space in (discrete[0], powerset):
        twice = PointBasisSpace(space.points, (*space.basis, space.basis[-1]))
        for check in (stone_check_by_definition, lambda space: stone_check([space])):
            with pytest.raises(ValueError, match="^duplicate element names$"):
                check(twice)


def test_closed_families_without_the_empty_set_are_refused():
    # the least member is nonempty and is the zero, and a point in it
    # has a character that holds the zero
    families = []
    for n in range(1, 4):
        larger = range(1, 1 << n)
        for pick in range(1, 1 << len(larger)):
            family = tuple(s for i, s in enumerate(larger) if pick >> i & 1)
            if all(a & b in family for a in family for b in family):
                families.append(PointBasisSpace(tuple(f"p{i}" for i in range(n)), family))
    assert len(families) == 37
    want = (CheckFailed, "a point character must be an ultrafilter")
    for space in families:
        assert _outcome(stone_check_by_definition, space) == want, space
        assert _outcome(lambda s: stone_check([s])[0], space) == want, space


def _powerset_stack(copies, membership):
    """Copies of the intersection table of the powerset on two points, with
    ``membership[p][x]`` saying whether point x lies in member p."""
    t, closed = _intersection_tables(np.array([[0, 1, 2, 3]] * copies), 2)
    assert closed.all()
    return t, np.array([membership] * copies, dtype=bool).reshape(copies, 4, -1)


# position 0 is the empty set, 1 is {0}, 2 is {1} and 3 is {0, 1}
CORRUPTIONS = {
    "associative": {(3, 3): 0},  # (3 3) 1 = 0 but 3 (3 1) = 1
    "one inverse": {(1, 1): 0},  # nothing u has 1 u 1 = 1
    "absorbing zero": {(0, 3): 3},
    "idempotent": {(2, 2): 0},
    "symmetric": {(1, 2): 1},
    "distinct filters": {(1, 2): 1, (2, 1): 2},  # up(1) = up(2) = {1, 2, 3}
    "tight are ultra": {(3, 2): 0, (3, 3): 0},  # below 3: 0 and 1 only, yet 3 is no atom
}


def test_stone_laws_reject_each_corrupted_table():
    t, member = _powerset_stack(len(CORRUPTIONS) + 2, [[0, 0], [1, 0], [0, 1], [1, 1]])
    for k, changes in enumerate(CORRUPTIONS.values(), start=1):
        for (p, q), value in changes.items():
            t[k, p, q] = value
    member[-1, 0, 0] = True  # point 0 in the empty set: its character is no up-set
    laws, (size, injective, surjective, first) = stone_laws(t, member)
    assert all(law[0] for law in laws.values())
    assert (size[0], injective[0], surjective[0], first[0]) == (2, True, True, -1)
    for k, name in enumerate([*CORRUPTIONS, "characters tight"], start=1):
        assert not laws[name][k], name
    # duplicates and a missing intersection both fail closure, on either route
    for n in (3, 30):
        _, closed = _intersection_tables(np.array([[0, 1, 1, 2], [0, 1, 2, 3], [0, 3, 5, 6]]), n)
        assert closed.tolist() == [False, True, False]


def test_intersection_tables_agree_on_both_routes():
    # a (B, 2^n) lookup up to 2^n <= m^3, the comparison cube past it; on
    # every enumerated basis, and on each with the empty set dropped or a set repeated
    for n in range(2, 5):
        spaces = list(enumerate_point_bases(n))
        for m in {len(space.basis) for space in spaces}:
            masks = np.array([space.basis for space in spaces if len(space.basis) == m])
            tampered = [masks, masks[:, 1:], np.concatenate([masks, masks[:, -1:]], axis=1)]
            for stack in tampered:
                lookup, closed = _intersection_tables(stack, n)
                cube, cube_closed = _intersection_tables(stack, 64)
                assert lookup.dtype == cube.dtype == np.int8
                assert (closed == cube_closed).all()
                assert closed.tolist() == [stack is masks] * len(stack)
                assert (lookup[closed] == cube[closed]).all()


def test_stone_laws_verdicts_on_tampered_points():
    # one point, in {0} and {0, 1}: injective, but the atom {1} is never hit,
    # and the image of {1} is empty where its basic set holds that atom
    laws, verdicts = stone_laws(*_powerset_stack(1, [[0], [1], [0], [1]]))
    assert all(law.all() for law in laws.values())
    assert [v.tolist() for v in verdicts] == [[2], [True], [False], [2]]
    # two points with the same character
    laws, verdicts = stone_laws(*_powerset_stack(1, [[0, 0], [1, 1], [0, 0], [1, 1]]))
    assert all(law.all() for law in laws.values())
    assert [v.tolist() for v in verdicts] == [[2], [False], [False], [2]]


@pytest.mark.parametrize("law", [*CORRUPTIONS, "characters tight"])
def test_a_broken_law_raises_for_the_first_bad_basis(monkeypatch, law):
    target = PointBasisSpace(("p0", "p1", "p2"), (0, 1, 2, 4, 3, 5))
    target_member = (np.array(target.basis)[:, None] >> np.arange(3)) & 1 == 1
    stone_laws_as_built = reconstruction.stone_laws

    def breaks_laws_on_target(t, member):
        # this law and every later one break, so the error names the first broken law
        laws, verdicts = stone_laws_as_built(t, member)
        if member.shape[1:] == target_member.shape:
            hit = (member == target_member).all(axis=(1, 2))
            for name in [*laws][[*laws].index(law) :]:
                laws[name] = laws[name] & ~hit
        return laws, verdicts

    monkeypatch.setattr(reconstruction, "stone_laws", breaks_laws_on_target)
    spaces = [space for n in range(5) for space in enumerate_point_bases(n)]
    random.Random(5).shuffle(spaces)
    if law == "characters tight":
        message = "a point character must be an ultrafilter"
    else:
        message = f"stone law '{law}' fails on basis {target.basis}"
    with pytest.raises(CheckFailed, match=f"^{re.escape(message)}$"):
        stone_check(spaces)
    # a bad basis before the target decides, in its own stack or another; one after does not
    at = next(k for k, space in enumerate(spaces) if space.basis == target.basis)
    for bad, error, first in (
        (PointBasisSpace(("a", "b", "c"), (0, 1, 2, 3, 5, 6)), ValidationError, "^basis not closed"),
        (PointBasisSpace(("a",), (0, 1, 2)), ValidationError, "^basis member 2 is not a set"),
        (PointBasisSpace(("a",), (0, 1, 1)), ValueError, "^duplicate element names$"),
    ):
        with pytest.raises(error, match=first):
            stone_check([*spaces[:at], bad, *spaces[at:]])
        with pytest.raises(CheckFailed, match=f"^{re.escape(message)}$"):
            stone_check([*spaces[: at + 1], bad, *spaces[at + 1 :]])


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
    left, right = np.nonzero(H.compose >= 0)
    assert len(left) == np.count_nonzero(G.compose >= 0) == 9
    for a, b in zip(left.tolist(), right.tolist()):
        assert G.compose[f[a], f[b]] == f[H.compose[a, b]]


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
    # in Z/4 the same swap breaks composition (c1 c1 = c2 but c2 c2 = e) and,
    # checked first, inversion (c1 inverts to c3 but c2 to itself)
    G4 = group_groupoid(4)
    with pytest.raises(CheckFailed, match="inversion not intertwined at c1"):
        check_isomorphism(GroupoidIsomorphism(G4, G4, (0, 2, 1, 3)))
    # in Z/5, c1 <-> c2 with c4 <-> c3 commutes with inversion but not with
    # composition: c2 c2 = c4, while c1 c1 = c2 goes to c1
    G5 = group_groupoid(5)
    with pytest.raises(CheckFailed, match=r"composition not intertwined at c1 \* c1"):
        check_isomorphism(GroupoidIsomorphism(G5, G5, (0, 2, 1, 4, 3)))
    # entries are range-checked before any indexing: 5 would raise
    # IndexError and -1 would wrap around to the last arrow
    G = group_groupoid(2)
    for bad in (5, -1):
        with pytest.raises(CheckFailed, match=f"^c1 maps to {bad}, not a target arrow index$"):
            check_isomorphism(GroupoidIsomorphism(G, G, (0, bad)))
    with pytest.raises(CheckFailed, match="^e maps to -1"):
        check_isomorphism(GroupoidIsomorphism(G, G, (-1, 1)))  # a unit, before its mask


def test_check_isomorphism_names_the_first_broken_structure():
    Z2, Z3, P2 = group_groupoid(2), group_groupoid(3), pair_groupoid(2)
    # not onto: two arrows on one, or two arrows into three
    for source, target, f, covered in ((Z2, Z2, (0, 0), 1), (Z2, Z3, (0, 1), 2)):
        message = f"^map covers {covered} of {len(target.arrows)} target arrows$"
        with pytest.raises(CheckFailed, match=message):
            check_isomorphism(GroupoidIsomorphism(source, target, f))
    # a bijection that sends the unit e to c1
    with pytest.raises(CheckFailed, match="^units are not carried onto units$"):
        check_isomorphism(GroupoidIsomorphism(Z2, Z2, (1, 0)))
    # units fixed, a01 <-> a10: the source of a01 is u0, of its image u1
    with pytest.raises(CheckFailed, match="^source/range not intertwined at a01$"):
        check_isomorphism(GroupoidIsomorphism(P2, P2, (0, 1, 3, 2)))


def relabeled(G, perm):
    """G with arrow a renamed to index perm[a]."""
    at = np.array([*perm, -1])
    compose = np.empty_like(G.compose)
    compose[np.ix_(at[:-1], at[:-1])] = at[G.compose]
    order = np.argsort(perm)  # order[new] = old
    return validate_groupoid(
        [G.arrows[a] for a in order],
        sorted(perm[u] for u in G.units),
        [perm[G.d[a]] for a in order],
        [perm[G.r[a]] for a in order],
        compose,
        [perm[G.inverse[a]] for a in order],
    )


def test_brute_force_iso_finds_relabelings():
    rng = random.Random(4)
    groupoids = [group_groupoid(5), group_groupoid(6), corpus()["pair2+z2"]]
    groupoids += [pair_times_cyclic(3, 2), pair_times_cyclic(2, 3)]
    for G in groupoids:
        for _ in range(4):
            perm = list(range(len(G)))
            rng.shuffle(perm)
            H = relabeled(G, perm)
            iso = brute_force_iso(G, H)  # checked before it is returned
            assert iso is not None and iso.target is H


def permutation_group(*gens):
    """The one-unit groupoid of the permutations the gens generate."""
    elements = [tuple(range(len(gens[0])))]
    for p in elements:  # grows as it goes
        for q in (tuple(p[k] for k in g) for g in gens):
            if q not in elements:
                elements.append(q)
    place = {p: i for i, p in enumerate(elements)}
    n = len(elements)
    table = [[place[tuple(p[k] for k in q)] for q in elements] for p in elements]
    return validate_groupoid([f"g{i}" for i in range(n)], [0], [0] * n, [0] * n,
                             np.array(table), [row.index(0) for row in table])


def search_inputs():
    """Pairs (G, H) to search between: isomorphic ones, and pairs whose unit
    signatures agree although no isomorphism exists."""
    rng = random.Random(31)

    def shuffled(G):
        perm = list(range(len(G)))
        rng.shuffle(perm)
        return relabeled(G, perm)

    for G in corpus().values():
        bs = bisection_semigroup(G, enumerate_bisections(G))
        for seed in (0, 1):  # germ groupoids of two relabelled tables
            H = run_reconstruction(bs, seed).model.groupoid
            yield from ((G, H), (H, G))
        yield from ((G, shuffled(G)), (shuffled(G), shuffled(G)))
    for G in (pair_times_cyclic(3, 2), pair_times_cyclic(2, 3), pair_times_cyclic(2, 4),
              units_groupoid(300)):
        yield from ((G, G), (G, shuffled(G)))
    # groups of order 4, 6 and 8 that agree on their one unit's signature
    z4, klein = group_groupoid(4), permutation_group((1, 0, 2, 3), (0, 1, 3, 2))
    z6, s3 = group_groupoid(6), permutation_group((1, 0, 2), (1, 2, 0))
    z8, d4 = group_groupoid(8), permutation_group((1, 2, 3, 0), (3, 2, 1, 0))
    z2z4 = permutation_group((1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2))
    yield from ((z4, klein), (klein, z4), (z6, s3), (s3, shuffled(s3)))
    yield from ((d4, z2z4), (z8, z2z4), (d4, shuffled(d4)))
    yield disjoint_union(z4, klein), disjoint_union(klein, klein)
    yield disjoint_union(d4, z2z4), disjoint_union(z2z4, shuffled(d4))


def search_outcome(search, G, H):
    """The arrow map, None, or the BoundExceeded message."""
    try:
        iso = search(G, H)
    except BoundExceeded as exc:
        return str(exc)
    return None if iso is None else iso.arrow_map


def test_bucketed_search_agrees_with_the_row_scan():
    found = Counter()
    for G, H in search_inputs():
        got = search_outcome(brute_force_iso, G, H)
        assert got == search_outcome(brute_force_iso_by_scan, G, H)
        found[got is not None] += 1
    assert found[True] >= 60 and found[False] == 6, found


def test_bucketed_search_visits_the_nodes_of_the_row_scan(monkeypatch):
    # the least budget the scan passes is its node count; the buckets must
    # exceed the budget one below it, and pass it with the same map
    most = reconstruction.MAX_ISO_NODES
    for G, H in search_inputs():
        if len(G) > 64:
            continue
        low, high = 0, most
        while low < high:
            monkeypatch.setattr(reconstruction, "MAX_ISO_NODES", (low + high) // 2)
            if isinstance(search_outcome(brute_force_iso_by_scan, G, H), str):
                low = (low + high) // 2 + 1
            else:
                high = (low + high) // 2
        for budget, exceeded in ((low - 1, True), (low, False)):
            monkeypatch.setattr(reconstruction, "MAX_ISO_NODES", budget)
            got = search_outcome(brute_force_iso, G, H)
            assert got == search_outcome(brute_force_iso_by_scan, G, H), budget
            assert isinstance(got, str) == exceeded


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
            for a in iter_bits(slice_of(model, s)):
                image |= 1 << iso.arrow_map[a]
            assert image == run.audit.bisections[s]


def test_brute_force_iso_past_the_recursion_limit():
    # one search level per arrow: 1200 levels, past Python's default limit of 1000
    G = units_groupoid(1200)
    iso = brute_force_iso(G, units_groupoid(1200))
    assert iso is not None and iso.arrow_map == tuple(range(1200))


def outcome(canonical_map, run):
    """The arrow map, or the CheckFailed message."""
    try:
        return canonical_map(run).arrow_map
    except CheckFailed as exc:
        return str(exc)


def named_run(G, masks):
    """A seed-0 run and the place in its audit of each bisection, by concrete name."""
    run = run_reconstruction(bisection_semigroup(G, masks), seed=0)
    return run, {bisection_name(G, m): i for i, m in enumerate(run.audit.bisections)}


def tampered(named, **masks):
    """The run with the audit's bisections of the named elements replaced."""
    run, place = named
    bisections = list(run.audit.bisections)
    for name, mask in masks.items():
        bisections[place[name]] = mask
    audit = TableAudit(run.groupoid, tuple(bisections))
    return ReconstructionRun(run.groupoid, run.table, audit, run.model)


def test_canonical_map_reaches_each_failure_of_the_member_loop():
    G = pair_groupoid(2)
    u0, u1, a01, a10 = (1 << G.index[x] for x in ("u0", "u1", "a01", "a10"))
    assert (G.d[G.index["a01"]], G.d[G.index["a10"]]) == (G.index["u0"], G.index["u1"])
    full, singletons = named_run(G, enumerate_bisections(G)), named_run(G, singleton_semigroup(G))
    cases = [
        # an idempotent that is not a unit set
        (tampered(full, **{"u0+u1": a01}), "^idempotent bisections are unit sets$"),
        # u0 turned into u0+u1: the point of u0 keeps both units
        (tampered(full, u0=u0 | u1), "^base character of arrow .* does not pin a point$"),
        # a01 (source u0) turned into a10 (source u1): nothing at u0
        (tampered(full, a01=a10), "^.* has no unique arrow with source u0$"),
        # a member with two arrows at the source u0
        (tampered(full, a01=a01 | u0), "^.* has no unique arrow with source u0$"),
        # a01+a10 turned into u0+a10: at u0 it gives u0, where a01 gives a01
        (tampered(full, **{"a01+a10": u0 | a10}), "^class members of .* map to different arrows$"),
        # a01 turned into u0: both classes at u0 map to u0
        (tampered(singletons, a01=u0), "^germ arrows cover 3 of 4 arrows$"),
    ]
    for run, message in cases:
        got = outcome(canonical_iso_of_run, run)
        assert isinstance(got, str) and re.match(message, got), (message, got)
        assert got == outcome(canonical_map_by_member_loop, run)


def test_canonical_map_agrees_with_the_member_loop_on_random_tampering():
    rng = random.Random(29)
    failures = set()
    for G in (pair_groupoid(2), pair_groupoid(3), corpus()["pair2+z2"]):
        for masks in (singleton_semigroup, enumerate_bisections):
            run, place = named = named_run(G, masks(G))
            assert outcome(canonical_iso_of_run, run) == outcome(canonical_map_by_member_loop, run)
            for _ in range(40):
                names = rng.sample(sorted(place), rng.randint(1, 2))
                broken = tampered(named, **{x: rng.randrange(1 << len(G.arrows)) for x in names})
                got = outcome(canonical_iso_of_run, broken)
                assert got == outcome(canonical_map_by_member_loop, broken)
                if isinstance(got, str):
                    failures.add(re.sub(r"\S*[0-9]\S*", "#", got))
    assert len(failures) >= 5  # every branch of the member loop
