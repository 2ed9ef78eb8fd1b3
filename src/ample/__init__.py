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
    BoundExceeded,
    CheckFailed,
    ParseError,
    ValidationError,
)
from .formats import (
    parse_document,
    parse_groupoid,
    parse_semigroup,
    semigroup_lines,
    write_groupoid,
    write_semigroup,
)
from .germs import GermGroupoidModel, build_germ_model
from .groupoids import (
    BisectionSemigroup,
    FiniteGroupoid,
    TableAudit,
    abstract_table,
    bisection_name,
    bisection_semigroup,
    enumerate_bisections,
    is_bisection,
    singleton_semigroup,
    slice_product,
    validate_groupoid,
)
from .reconstruction import (
    GroupoidIsomorphism,
    PointBasisSpace,
    ReconstructionRun,
    StoneReport,
    brute_force_iso,
    canonical_iso_of_run,
    check_isomorphism,
    enumerate_point_bases,
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
    find_tightness_violation,
    tight_spectrum,
    ultrafilters,
)

__all__ = [name for name in dir() if not name.startswith("_")]
