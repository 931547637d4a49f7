"""Ensemble k-nearest-neighbor estimation of divergence functionals.

Estimates integral functionals of two densities (Renyi-alpha integrals, KL,
L2, Shannon entropy) from samples via leave-one-out k-NN plug-in estimators,
reduces bias with optimally weighted ensembles over multiple k values, and
provides bootstrap/CLT-based inference plus a benchmark harness.
"""

from .bench import ExperimentConfig, ResultRow, emit, fit_loglog_slope, run_experiment
from .ensemble import (
    BasisEntry,
    BasisSystem,
    EnsembleConfig,
    EstimateReport,
    WeightSolution,
    build_basis,
    ensemble_estimate,
    k_schedule,
    solve_weights,
    solve_weights_exact,
    solve_weights_relaxed,
)
from .errors import ConfigurationError, ParameterError, SolverError
from .functionals import (
    FunctionalSpec,
    PluginEstimate,
    knn_density,
    make_functional,
    plugin_estimate,
    plugin_profile,
    unit_ball_volume,
)
from .inference import (
    InferenceResult,
    bootstrap_replicates,
    confidence_interval,
    normal_quantile,
    two_sample_test,
)
from .neighbors import NeighborIndex, PointSet
from .synth import (
    TruncatedGaussianSpec,
    mc_truth,
    normal_cdf,
    sample_truncated_gaussian,
    true_renyi_integral,
    truncated_gaussian_pdf,
)

__version__ = "0.1.0"
