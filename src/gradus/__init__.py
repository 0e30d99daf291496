"""gradus: exact graded-ring computations for cubic threefold / K3 pairs.

Everything runs over exact coefficient fields (arbitrary-precision rationals
or a prime field), with canonical reduced-echelon bases throughout so that
subspace equality is literal equality and every report is reproducible from
(field, seed, inputs).
"""

from .apolarity import (
    CubicC,
    SocleFunctional,
    annihilator_quadric,
    colon_graded,
    extract_c,
    macaulay_pairing_matrix,
    perp_graded,
    socle_functional,
)
from .defects import (
    DefectReport,
    PointSet,
    brute_singular_search,
    check_lemma_defect,
    defect,
    evaluation_matrix,
    is_node,
    parse_points,
    singular_points,
    special_q,
)
from .errors import (
    BudgetExhaustedError,
    CharacteristicError,
    DegeneratePairError,
    GradusError,
    InternalInvariantError,
    NotSmoothError,
    ParseError,
    PreconditionError,
    RangeError,
    ZeroPolynomialError,
)
from .jacobian import (
    EmptinessResult,
    MilnorProfile,
    SmoothnessCertificate,
    ci_smooth,
    ideal_graded,
    is_smooth_hypersurface,
    jacobian_graded,
    milnor_dim,
    milnor_profile,
    projective_empty,
    smooth_reference_dims,
)
from .lefschetz import LefschetzProfile, SlpSearchResult, mult_map, slp_check, slp_search
from .linalg import (
    DEFAULT_PRIME,
    FieldConfig,
    GradedSubspace,
    Matrix,
    SeedStream,
    child_seed,
    kernel,
    mat_mul,
    rank,
    random_scalar,
    rref,
    span,
    subspace_intersect,
    subspace_sum,
)
from .pipeline import (
    PairCertificate,
    Theorem14Report,
    UMembership,
    construct_pair,
    deformation_experiment,
    membership_u,
    reproduce_example,
    theorem14_check,
    verify_corollary,
)
from .poly import (
    Polynomial,
    fermat_form,
    format_poly,
    graded_dim,
    monomial_index,
    monomials,
    parse_poly,
    polar_pair,
    random_poly,
)

__version__ = "0.1.0"
