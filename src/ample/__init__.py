"""Rebuild a finite discrete groupoid from the bare table of its bisections.

The pipeline: validate an inverse semigroup table, form its idempotent
semilattice, enumerate filters and tight characters, act on the spectrum,
take germs, and compare the resulting groupoid with the original geometry.
Exact arithmetic throughout; every theorem-shaped claim is a checked
assertion, not an assumption.
"""

from .convolution import (
    AlgebraElement,
    TightRepresentationReport,
    check_tight_representation,
    rho,
    sup,
    sup_all,
    unit_cover,
)
from .corpus import (
    corpus,
    disjoint_union,
    group_bundle_z2,
    group_groupoid,
    pair_groupoid,
    units_groupoid,
)
from .errors import (
    AmpleError,
    BadComposabilityDomain,
    BadInverse,
    BadUnits,
    BoundExceeded,
    CheckFailed,
    EmptySpectrum,
    GroupoidMismatch,
    NoUniqueInverse,
    NoZero,
    NotAssociative,
    NotBijective,
    NotClosed,
    NotFunctorial,
    NotIdempotent,
    NotWellDefined,
    OutsideDomain,
    ParseError,
    TightUltraMismatch,
    ValidationError,
)
from .formats import (
    parse_document,
    parse_groupoid,
    parse_semigroup,
    write_groupoid,
    write_semigroup,
)
from .germs import (
    GermGroupoidModel,
    build_germ_model,
    same_germ,
    theta_apply,
)
from .groupoids import (
    BisectionSemigroup,
    FiniteGroupoid,
    TableAudit,
    abstract_table,
    bisection_name,
    bisection_semigroup,
    check_conjugation_lemma,
    enumerate_bisections,
    is_basis,
    is_bisection,
    lambda_action,
    range_mask,
    singleton_semigroup,
    slice_inverse,
    slice_product,
    source_mask,
    validate_groupoid,
)
from .reconstruction import (
    EquivarianceReport,
    GroupoidIsomorphism,
    PointBasisSpace,
    ReconstructionRun,
    StoneReport,
    basis_semilattice,
    brute_force_iso,
    canonical_iso_of_run,
    check_isomorphism,
    enumerate_point_bases,
    equivariance_check,
    phi_point,
    point_basis_space,
    reconstruct,
    run_reconstruction,
    stone_check,
)
from .semigroups import (
    FiniteInverseSemigroup,
    Semilattice,
    adjoin_zero,
    idempotent_semilattice,
    validate_inverse_semigroup,
)
from .spectrum import (
    TightSpectrum,
    enumerate_filters,
    filter_minimum,
    find_tightness_violation,
    is_filter,
    is_tight_character,
    principal_filter,
    tight_spectrum,
    ultrafilters,
)

__all__ = [name for name in dir() if not name.startswith("_")]
