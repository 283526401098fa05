"""Power-weighted nearest-neighbor sums and their limit theory, testable.

The package computes exact j-th nearest-neighbor distances, the power
sums S_{n,alpha} built from them, the closed-form constants and entropy
transforms they converge to, a density catalog with known integrals of
f^rho, critical moments and annulus masses, condition checks deciding
which convergence guarantee applies, minimum-spanning-tree edge
functionals, and a reproducible Monte Carlo experiment harness with a CLI.
"""

from .conditions import (
    ConditionReport,
    check_bounded_support,
    check_divergence,
    check_moment_condition,
    check_negative_alpha,
    check_power_tail,
    condition_report,
    moment_threshold,
)
from .densities import (
    AnnulusBallCounterexample,
    Ball,
    Box,
    DensityModel,
    GaussianStandard,
    PowerLawTail,
    UniformConvexUnion,
    model_from_config,
    sample_n,
)
from .errors import (
    ConditionRefused,
    ConfigError,
    DegenerateStatistic,
    InvalidGammaArgument,
    InvalidRho,
    QuadratureBudgetExceeded,
)
from .experiments import (
    DivergenceSchedule,
    EstimatorConfig,
    ExperimentResult,
    MannKendallResult,
    PHI_REGISTRY,
    mann_kendall_increasing,
    run_convergence,
    run_divergence,
    run_entropy,
    run_moment_probe,
)
from .limits import (
    EntropyValue,
    LimitConstantSpec,
    QuadratureBudget,
    entropy_from_integral,
    gamma_constant,
    limit_functional,
    poisson_expectation,
    poisson_nn_moment,
    poisson_nn_tail,
    sample_poisson_nn_distances,
    unit_ball_volume,
)
from .mst import EdgeList, build_mst, l_phi, l_power_nn
from .neighbors import (
    NeighborIndex,
    NeighborQuery,
    PowerWeight,
    build_index,
    knn_distances,
    nn_distance_bruteforce,
    nn_distance_indexed,
    statistic_phi,
    statistic_power,
)
from .points import PointSet

__version__ = "0.1.0"

__all__ = [
    "AnnulusBallCounterexample",
    "Ball",
    "Box",
    "ConditionRefused",
    "ConditionReport",
    "ConfigError",
    "DegenerateStatistic",
    "DensityModel",
    "DivergenceSchedule",
    "EdgeList",
    "EntropyValue",
    "EstimatorConfig",
    "ExperimentResult",
    "GaussianStandard",
    "InvalidGammaArgument",
    "InvalidRho",
    "LimitConstantSpec",
    "MannKendallResult",
    "NeighborIndex",
    "NeighborQuery",
    "PHI_REGISTRY",
    "PointSet",
    "PowerLawTail",
    "PowerWeight",
    "QuadratureBudget",
    "QuadratureBudgetExceeded",
    "UniformConvexUnion",
    "build_index",
    "build_mst",
    "check_bounded_support",
    "check_divergence",
    "check_moment_condition",
    "check_negative_alpha",
    "check_power_tail",
    "condition_report",
    "entropy_from_integral",
    "gamma_constant",
    "knn_distances",
    "l_phi",
    "l_power_nn",
    "limit_functional",
    "mann_kendall_increasing",
    "model_from_config",
    "moment_threshold",
    "nn_distance_bruteforce",
    "nn_distance_indexed",
    "poisson_expectation",
    "poisson_nn_moment",
    "poisson_nn_tail",
    "run_convergence",
    "run_divergence",
    "run_entropy",
    "run_moment_probe",
    "sample_n",
    "sample_poisson_nn_distances",
    "statistic_phi",
    "statistic_power",
    "unit_ball_volume",
]
