"""Likelihood-based HIV recency classification with partially observed labels."""

__version__ = "0.1.0"

from .model import (
    ModelSpec,
    SubjectArrays,
    Theta,
    initial_theta,
    logistic,
    pi_recent,
)
from .likelihood import (
    log_pseudo_likelihood,
    score,
    score_contributions,
)
from .estimation import (
    FitResult,
    StepwiseResult,
    VariantFit,
    backward_stepwise,
    compare_eta_variants,
    fit,
    fit_report,
    load_fit,
    sandwich_covariance,
)
from .densityratio import (
    TiltSolution,
    fit_extended,
    profile_log_likelihood,
    solve_mu,
    tilt,
)
from .prediction import (
    export_predictions,
    incidence,
    recency_rate,
    rita_classify,
    type2_risk,
)
from .glm import LogisticFit, fit_weighted_logistic
from .simulation import (
    GeneratedData,
    ParamStats,
    ReplicateSummary,
    ScenarioConfig,
    auc,
    default_config,
    generate,
    run_replicates,
)
from .dataio import ColumnMap, DataError, RawColumns, StandardizationReport, load, preprocess

__all__ = [
    "__version__",
    "ModelSpec", "SubjectArrays", "Theta", "initial_theta", "logistic", "pi_recent",
    "log_pseudo_likelihood", "score", "score_contributions",
    "FitResult", "StepwiseResult", "VariantFit", "backward_stepwise",
    "compare_eta_variants", "fit", "fit_report", "load_fit",
    "sandwich_covariance",
    "TiltSolution", "fit_extended", "profile_log_likelihood", "solve_mu", "tilt",
    "export_predictions", "incidence", "recency_rate",
    "rita_classify", "type2_risk",
    "LogisticFit", "fit_weighted_logistic",
    "GeneratedData", "ParamStats", "ReplicateSummary", "ScenarioConfig",
    "auc", "default_config", "generate", "run_replicates",
    "ColumnMap", "DataError", "RawColumns", "StandardizationReport", "load", "preprocess",
]
