"""Exact ranks of free graded Lie algebras and guaranteed lower bounds on
torsion in homotopy groups, with independent brute-force oracles."""

from .bounds import (
    BezoutCoverage,
    BoundReport,
    KTheoryParams,
    bezout_cover,
    condition_star,
    f_q,
    ktheory_lower,
    min_j,
    rank_window,
    sigma_upper,
    weak_lower,
)
from .charpoly import (
    GeneratorSet,
    MonicIntPoly,
    RootProfile,
    char_poly,
    newton_sums,
    profile_for_exponent,
    root_profile,
)
from .combinat import BezoutSolution, bezout_min_y, binom_div_p, divisors, mobius
from .dgl_fp import (
    BasisElement,
    FpMatrix,
    FreeDgl,
    LieElement,
    WeightedAlphabet,
    subspace_dims,
)
from .errors import (
    CoverageViolation,
    DegreeLimitExceeded,
    DimensionMismatch,
    InternalError,
    InvalidArgument,
    NumericFailure,
    OracleInconsistency,
    ParameterMismatch,
    RootStructureViolation,
    TorsionBoundsError,
)
from .lie_rank import babenko_ranks, pbw_ranks, tensor_dims
from .spaces import SpaceSpec, catalog, report, space_by_name

__version__ = "0.1.0"
