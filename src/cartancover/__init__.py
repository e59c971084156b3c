"""Exact computations relating rank-d bundles on a graph-modeled base to
degree-d covers: Cartan algebra subbundles of End(E), spectral covers and
their line bundles, factorization of covers through block systems, and
parabolic pushforwards along ramified covers of curves.

Everything is exact (rationals or GF(p)); there is no floating point in
the package.
"""

__version__ = "0.1.0"

from .bundles import (
    BaseGraph,
    BundleRep,
    FlatSectionSpace,
    SubalgebraBundle,
    flat_sections,
    validate_bundle,
    validate_cartan_bundle,
)
from .cartan import (
    CartanStatus,
    CartanVerdict,
    EigenlineSet,
    MatrixSubspace,
    classify_subspace,
    conjugate_subspace,
    simultaneous_eigenlines,
)
from .covers import (
    CoverRep,
    CoverReport,
    LineBundleOnCover,
    build_spectral_cover,
    canonical_algebra_map,
    cover_report,
    cover_roundtrip,
    direct_image_line_bundle,
    roundtrip_verify,
    trivial_line_bundle,
)
from .factorization import (
    BlockSystem,
    block_systems,
    intermediate_cover,
    monodromy_generators,
    summand_embedding_check,
)
from .fields import GF, QQ, Fp, PrimeField, Rationals
from .linalg import Matrix, Subspace, eigenspaces, kernel, min_poly, rref
from .parabolic import (
    ParabolicBundleData,
    RamifiedCoverData,
    check_pardeg_conservation,
    degree_direct_image,
    local_flags,
    merge_fiber_filtration,
    parabolic_degree,
    pushforward_parabolic,
    riemann_hurwitz_genus,
)
from .poly import Poly, roots_in_field
