"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything here is exact; there are no tolerances to tune.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

from ample import (
    AlgebraElement,
    brute_force_iso,
    canonical_iso_of_run,
    check_tight_representation,
    enumerate_bisections,
    enumerate_filters,
    enumerate_point_bases,
    find_tightness_violation,
    idempotent_semilattice,
    pair_groupoid,
    rho,
    run_reconstruction,
    singleton_semigroup,
    stone_check,
    tight_spectrum,
    ultrafilters,
)
from ample.bitsets import iter_bits
from conftest import criterion
from lemmas import check_conjugation_lemma, equivariance_check, slice_of, sup_all, unit_cover
from oracles import (
    bisections_by_definition,
    filters_by_definition,
    germ_count_by_pairwise_quotient,
    idempotents_of_table,
    star,
)
from semilattice_zoo import EXPECTED_COUNTS, all_semilattices_upto


def test_round_trip_reconstruction(corpus_runs):
    with criterion("round-trip reconstruction"):
        for run_info in corpus_runs:
            run = run_info.run
            iso = canonical_iso_of_run(run)
            assert iso.target is run_info.groupoid, run_info.label
            confirm = brute_force_iso(run.model.groupoid, run_info.groupoid)
            assert confirm is not None, run_info.label


def test_tight_equals_ultra(corpus_runs):
    with criterion("tight characters = ultrafilters"):
        semilattices = []
        for run_info in corpus_runs:
            semilattices.append(
                (run_info.label, idempotent_semilattice(run_info.bisection_semigroup.semigroup))
            )
        zoo = all_semilattices_upto(6)
        for size, items in zoo.items():
            assert len(items) == EXPECTED_COUNTS[size]
            for i, S in enumerate(items):
                semilattices.append((f"zoo{size}.{i}", idempotent_semilattice(S)))
        for label, E in semilattices:
            tight = {
                b for b in enumerate_filters(E) if find_tightness_violation(E, b) is None
            }
            assert tight == set(ultrafilters(E)), label


def test_stone_correspondence():
    with criterion("stone correspondence on |X| <= 4"):
        total = 0
        for n in range(5):
            for report in stone_check(enumerate_point_bases(n)):
                assert report.passed, (n, report.witness)
                total += 1
        assert total > 20  # the |X|=4 family dominates


def test_conjugation_lemma(corpus_groupoids):
    with criterion("conjugation lemma"):
        for name, G in corpus_groupoids.items():
            bis = enumerate_bisections(G)
            unit_subsets = [m for m in bis if m & ~G.units_mask == 0]
            for s in bis:
                for u in unit_subsets:
                    assert check_conjugation_lemma(G, s, u), name


def test_equivariance(corpus_runs):
    with criterion("equivariance of the two actions"):
        for run_info in corpus_runs:
            report = equivariance_check(run_info.bisection_semigroup)
            assert report.passed, (run_info.label, report.failures)


def test_representation_identities(corpus_runs):
    with criterion("representation identities"):
        for run_info in corpus_runs:
            G = run_info.groupoid
            bs = run_info.bisection_semigroup
            S = bs.semigroup
            pi = [rho(G, m) for m in bs.bits]
            # indicator homomorphism and star, stated directly
            for a in range(len(S)):
                assert pi[S.star[a]] == star(pi[a]), run_info.label
                for b in range(len(S)):
                    assert pi[S.table[a][b]] == pi[a] * pi[b], run_info.label
            # exactness: indicator convolution never leaves the integers
            for a in range(0, len(S), max(1, len(S) // 7)):
                for b in range(0, len(S), max(1, len(S) // 7)):
                    for v in (pi[a] * pi[b]).coeffs.values():
                        assert v.denominator == 1, run_info.label
            # rho is tight in the groupoid's own algebra
            report = check_tight_representation(pi, S)
            assert report.passed, (run_info.label, report.tightness_witnesses)
            # rho' (germ indicators) is tight over the reconstructed groupoid
            run = run_info.run
            model = run.model
            H = model.groupoid
            pi_prime = [rho(H, slice_of(model, s)) for s in range(len(run.table))]
            report2 = check_tight_representation(pi_prime, run.table)
            assert report2.passed, (run_info.label, report2.tightness_witnesses)
            # the unit cover joins to the unit of the germ algebra
            cover = unit_cover(model)
            joined = sup_all(H, (rho(H, slice_of(model, e)) for e in cover))
            assert joined == AlgebraElement.unit(H), run_info.label
            # arrow-level content of the composite isomorphism: each germ
            # slice is carried back onto the bisection it came from
            iso = canonical_iso_of_run(run)
            for s in range(len(run.table)):
                image = 0
                for a in iter_bits(slice_of(model, s)):
                    image |= 1 << iso.arrow_map[a]
                assert image == run.audit.bisections[s], run_info.label


def test_derived_counts():
    with criterion("pinned counts for the 2-point pair groupoid"):
        G = pair_groupoid(2)
        # oracle: scan all subsets for double injectivity
        oracle_bisections = bisections_by_definition(G)
        assert len(oracle_bisections) == 7
        assert list(enumerate_bisections(G)) == oracle_bisections

        # oracle: idempotency scan of the induced product table
        from ample import bisection_semigroup

        bs = bisection_semigroup(G, oracle_bisections)
        assert len(idempotents_of_table(bs.semigroup.table)) == 4
        # (equivalently: the idempotents are exactly the unit subsets)
        assert {bs.bits[e] for e in bs.semigroup.idempotents} == {
            m for m in oracle_bisections if m & ~G.units_mask == 0
        }

        # oracle: exhaustive filter scan, then maximality
        E = idempotent_semilattice(bs.semigroup)
        oracle_filters = filters_by_definition(E)
        maximal = [
            f
            for f in oracle_filters
            if not any(g != f and g & f == f for g in oracle_filters)
        ]
        assert len(maximal) == 2
        assert len(tight_spectrum(E).points) == 2

        # oracle: germ count through the definitional pairwise quotient
        assert germ_count_by_pairwise_quotient(bs.semigroup) == 4
        sing = bisection_semigroup(G, singleton_semigroup(G))
        assert germ_count_by_pairwise_quotient(sing.semigroup) == 4


def test_representation_independence(corpus_runs):
    with criterion("representation independence over 10 seeds"):
        for run_info in corpus_runs:
            groupoids = [run_info.run.model.groupoid]
            for seed in range(1, 10):
                rebuilt = run_reconstruction(run_info.bisection_semigroup, seed=seed)
                groupoids.append(rebuilt.model.groupoid)
            for i in range(len(groupoids)):
                for j in range(i + 1, len(groupoids)):
                    assert (
                        brute_force_iso(groupoids[i], groupoids[j]) is not None
                    ), (run_info.label, i, j)
