"""Desk-scale testbed for Byzantine-robust federated learning."""

from .aggregators import (
    AggregatorSpec,
    aggregate,
    cwmed,
    cwtm,
    geometric_median,
    krum,
    mean,
    nnm,
    weiszfeld,
)
from .attacks import AttackStrategy, byzantine_upload
from .audit import (
    INFINITE_RATIO,
    AuditResult,
    WitnessInstance,
    cwtm_break_witness,
    empirical_kappa,
    error_ratio,
    lower_bound_witness,
)
from .bounds import (
    convergence_floor,
    gap_ceiling,
    grad_ceiling,
    kappa_composite_chain,
    kappa_guarantee,
    kappa_lower_bound,
)
from .engine import RunConfig, RunRecord, Schedule, run, stepsize_at
from .errors import ConfigError, ConstructionError, DimensionError, ParameterError
from .problems import (
    Problem,
    descend,
    heterogeneity_at,
    homogeneous_quadratic_problem,
    honest_objective,
    random_quadratic_problem,
    two_group_quadratic_problem,
)

__version__ = "0.1.0"

__all__ = [
    "AggregatorSpec",
    "AttackStrategy",
    "AuditResult",
    "ConfigError",
    "ConstructionError",
    "DimensionError",
    "INFINITE_RATIO",
    "ParameterError",
    "Problem",
    "RunConfig",
    "RunRecord",
    "Schedule",
    "WitnessInstance",
    "aggregate",
    "byzantine_upload",
    "convergence_floor",
    "cwmed",
    "cwtm",
    "cwtm_break_witness",
    "descend",
    "empirical_kappa",
    "error_ratio",
    "gap_ceiling",
    "geometric_median",
    "grad_ceiling",
    "heterogeneity_at",
    "homogeneous_quadratic_problem",
    "honest_objective",
    "kappa_composite_chain",
    "kappa_guarantee",
    "kappa_lower_bound",
    "krum",
    "lower_bound_witness",
    "mean",
    "nnm",
    "random_quadratic_problem",
    "run",
    "stepsize_at",
    "two_group_quadratic_problem",
    "weiszfeld",
]
