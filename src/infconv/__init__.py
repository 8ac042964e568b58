"""Numerical optimal risk sharing between two agents.

Pools a random position between two convex risk measures by training small
scalar networks on empirical samples, and validates the result against
closed-form values and a brute-force reference solver.
"""

__version__ = "0.1.0"

from .measures import (
    Combination,
    Distortion,
    EmpiricalMeasure,
    Entropic,
    ExpectedShortfall,
    RiskMeasure,
    Spectral,
    empirical,
    es_spectral_density,
    eval_distortion,
    eval_entropic,
    eval_es,
    eval_spectral,
    eval_var,
    eval_with_grad,
    evaluate,
    parse_risk_spec,
    render_risk_spec,
)
from .sampling import (
    Distribution,
    NegBeta,
    RngSeed,
    TruncNormal,
    Uniform,
    draw,
    make_generator,
    parse_distribution,
    pdf,
    quantile,
    render_distribution,
    stratified_sample,
    support,
    wasserstein_p,
)
from .net import (
    ACTIVATIONS,
    Mlp,
    forward,
    init_mlp,
    mlp_from_json,
    mlp_to_json,
    param_count,
    value_and_grad,
)
from .optim import (
    AdamState,
    OptimizerError,
    PlateauState,
    adam_step,
    init_adam,
    init_plateau,
    plateau_step,
)
from .analytic import (
    AllocationDescriptor,
    CornerAllocation,
    ProportionalAllocation,
    TailCutFamily,
    analytic_allocation,
    analytic_infconv,
    entropic_risk,
    expected_shortfall_risk,
    fit_tail_cut,
)
from .sharing import (
    EnsembleAllocation,
    EnsembleError,
    LossHistory,
    MemberResult,
    StabilityReport,
    TrainConfig,
    TrainingError,
    TrainResult,
    allocation_loss,
    batch_loss_and_cotangents,
    distortion_density_norm,
    l2_error,
    metric_d,
    metric_d_mu,
    pair_loss,
    spectral_stability_check,
    train_ensemble,
    train_member,
)
from .oracle import (
    BudgetError,
    GridAllocation,
    OracleResult,
    brute_force_infconv,
    build_knots,
    coordinate_descent_refine,
    oracle_objective,
    overlap_matrix,
)
from .cli import (
    ConfigError,
    ExperimentReport,
    ExperimentSpec,
    compare_reports,
    load_experiment,
    main,
    parse_experiment,
    render_experiment,
    run_experiment,
)

__all__ = [
    "__version__",
    # measures
    "Combination", "Distortion", "EmpiricalMeasure", "Entropic", "ExpectedShortfall",
    "RiskMeasure", "Spectral", "empirical", "es_spectral_density", "eval_distortion",
    "eval_entropic", "eval_es", "eval_spectral", "eval_var", "eval_with_grad",
    "evaluate", "parse_risk_spec", "render_risk_spec",
    # sampling
    "Distribution", "NegBeta", "RngSeed", "TruncNormal", "Uniform", "draw",
    "make_generator", "parse_distribution", "pdf", "quantile", "render_distribution",
    "stratified_sample", "support", "wasserstein_p",
    # net
    "ACTIVATIONS", "Mlp", "forward", "init_mlp", "mlp_from_json", "mlp_to_json",
    "param_count", "value_and_grad",
    # optim
    "AdamState", "OptimizerError", "PlateauState", "adam_step", "init_adam",
    "init_plateau", "plateau_step",
    # analytic
    "AllocationDescriptor", "CornerAllocation", "ProportionalAllocation",
    "TailCutFamily", "analytic_allocation", "analytic_infconv", "entropic_risk",
    "expected_shortfall_risk", "fit_tail_cut",
    # sharing
    "EnsembleAllocation", "EnsembleError", "LossHistory", "MemberResult",
    "StabilityReport", "TrainConfig", "TrainingError", "TrainResult",
    "allocation_loss", "batch_loss_and_cotangents", "distortion_density_norm",
    "l2_error", "metric_d", "metric_d_mu", "pair_loss", "spectral_stability_check",
    "train_ensemble", "train_member",
    # oracle
    "BudgetError", "GridAllocation", "OracleResult", "brute_force_infconv",
    "build_knots", "coordinate_descent_refine", "oracle_objective", "overlap_matrix",
    # cli
    "ConfigError", "ExperimentReport", "ExperimentSpec", "compare_reports",
    "load_experiment", "main", "parse_experiment", "render_experiment",
    "run_experiment",
]
