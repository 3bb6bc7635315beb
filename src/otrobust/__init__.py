"""Outlier-robust optimal transport with chi-square marginal relaxation."""

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyInput,
    InstanceTooLarge,
    LengthMismatch,
    MassNotNormalized,
    NegativeMass,
    NonUniformInput,
    NormalizationViolated,
    OtError,
    SolverStall,
    TooFewPoints,
)
from .analysis import (
    ElbowResult,
    MetricReport,
    OutlierInstance,
    RhoCurve,
    construct_theorem2_instance,
    detect_elbow,
    find_asymmetric_pair,
    find_triangle_violation,
    metric_properties_report,
    rho_for_known_gamma,
    sweep_rho,
    theorem2_bound,
    verify_theorem2,
)
from .datagen import FarCluster, UniformBox, gaussian_ring, inject_outliers
from .exact import DenseDualEvaluator, duality_gap, solve_exact
from .measures import (
    CostMatrix,
    DiscreteMeasure,
    OtSolution,
    WeightVector,
    cost_matrix,
    make_measure,
    reweight,
    weight_radius,
)
from .robust import (
    RobustParams,
    RobustSolution,
    brute_force_robust,
    solve_robust,
    solve_robust_one_sided,
)
from .sinkhorn import solve_sinkhorn
from .unbalanced import (
    UnbalancedSolution,
    r_star,
    r_star_numeric_check,
    solve_unbalanced_chi2,
)
from .weights import (
    WeightSubproblem,
    brute_force_weights,
    project_simplex_ball,
    solve_weight_socp,
)

__version__ = "0.1.0"
