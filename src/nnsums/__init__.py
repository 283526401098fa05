"""Power-weighted nearest-neighbor sums and their limit theory, testable.

The package computes exact j-th nearest-neighbor distances, the power
sums S_{n,alpha} built from them, the closed-form constants
gamma(d, j, alpha) * I_rho and entropy transforms they converge to, a
density catalog with known integrals of f^rho, critical moments and
annulus masses, condition checks deciding which convergence guarantee
applies, Euclidean minimum spanning trees, and a reproducible Monte Carlo
experiment harness with a CLI.

``__all__`` is the public surface: what the CLI, the experiment drivers,
the benchmark and the acceptance suite use.
"""

from .conditions import (
    ConditionReport,
    check_divergence,
    check_moment_condition,
    check_power_tail,
    condition_report,
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
    PHI_REGISTRY,
    mann_kendall_increasing,
    run_convergence,
    run_divergence,
    run_entropy,
    run_moment_probe,
)
from .limits import (
    EntropyValue,
    entropy_from_integral,
    gamma_constant,
    limit_functional,
    poisson_expectation,
    poisson_nn_moment,
    sample_poisson_nn_distances,
    unit_ball_volume,
)
from .mst import EdgeList, build_mst, l_power_nn
from .neighbors import (
    NeighborIndex,
    NeighborQuery,
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
    "NeighborIndex",
    "NeighborQuery",
    "PHI_REGISTRY",
    "PointSet",
    "PowerLawTail",
    "QuadratureBudgetExceeded",
    "UniformConvexUnion",
    "build_index",
    "build_mst",
    "check_divergence",
    "check_moment_condition",
    "check_power_tail",
    "condition_report",
    "entropy_from_integral",
    "gamma_constant",
    "knn_distances",
    "l_power_nn",
    "limit_functional",
    "mann_kendall_increasing",
    "model_from_config",
    "nn_distance_bruteforce",
    "nn_distance_indexed",
    "poisson_expectation",
    "poisson_nn_moment",
    "run_convergence",
    "run_divergence",
    "run_entropy",
    "run_moment_probe",
    "sample_poisson_nn_distances",
    "statistic_phi",
    "statistic_power",
    "unit_ball_volume",
]
