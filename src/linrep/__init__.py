"""Multi-task linear representation learning with gradient-based meta-learning.

The package studies ``y = <theta, x> + noise`` tasks whose optimal
parameters ``theta = B* w*`` share a low-dimensional representation
``B*``.  It provides:

- :mod:`linrep.env` — seeded task environments, task batches, datasets;
- :mod:`linrep.model` — parameters, losses, gradients, initialization;
- :mod:`linrep.algorithms` — outer-loop updates for four meta-learning
  variants plus an average-risk baseline, in population and finite-sample
  modes, and the trajectory driver;
- :mod:`linrep.metrics` — subspace distances, spectral diagnostics, and
  trajectory-condition checking;
- :mod:`linrep.harness` — JSON-configured experiments with deterministic
  CSV/JSON/SVG artifacts (CLI: ``linrep``).
"""
from .algorithms import (
    RunResult,
    StepOutcome,
    meta_gradients,
    run_trajectory,
    step_for,
)
from .env import (
    DataSet,
    DiversityStats,
    TaskBatch,
    TaskEnvironment,
    diversity_stats,
    sample_dataset,
    sample_environment,
    sample_task_batch,
)
from .harness import (
    ConfigError,
    ExperimentArtifacts,
    ExperimentConfig,
    GradCheckReport,
    HypCheckResult,
    SweepAxis,
    SweepCell,
    SweepResult,
    dump_config,
    emit_plot,
    gradcheck,
    hypcheck,
    load_config,
    resolve_hyper,
    run_experiment,
    sweep,
)
from .metrics import (
    HypothesisReport,
    TrajectoryRecord,
    check_hypotheses,
    delta_norm,
    fit_log_linear_rate,
    orth_complement,
    principal_angle_dist,
    qr_orthonormalize,
    spectral_norm,
)
from .model import (
    Algorithm,
    HyperParams,
    InitScheme,
    Mode,
    ModelParams,
    finite_task_loss,
    init_model,
    population_task_loss,
    rate_matched_alpha,
)
from .rng import standard_normal, substream

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # env
    "DataSet",
    "DiversityStats",
    "TaskBatch",
    "TaskEnvironment",
    "diversity_stats",
    "sample_dataset",
    "sample_environment",
    "sample_task_batch",
    # model
    "Algorithm",
    "HyperParams",
    "InitScheme",
    "Mode",
    "ModelParams",
    "finite_task_loss",
    "init_model",
    "population_task_loss",
    "rate_matched_alpha",
    # algorithms
    "RunResult",
    "StepOutcome",
    "meta_gradients",
    "run_trajectory",
    "step_for",
    # metrics
    "HypothesisReport",
    "TrajectoryRecord",
    "check_hypotheses",
    "delta_norm",
    "fit_log_linear_rate",
    "orth_complement",
    "principal_angle_dist",
    "qr_orthonormalize",
    "spectral_norm",
    # harness
    "ConfigError",
    "ExperimentArtifacts",
    "ExperimentConfig",
    "GradCheckReport",
    "HypCheckResult",
    "SweepAxis",
    "SweepCell",
    "SweepResult",
    "dump_config",
    "emit_plot",
    "gradcheck",
    "hypcheck",
    "load_config",
    "resolve_hyper",
    "run_experiment",
    "sweep",
    # rng
    "standard_normal",
    "substream",
]
