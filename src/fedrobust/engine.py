"""Round-based simulation of robust federated averaging.

Each round: every honest client runs H local gradient-descent steps from the
current global iterate, one attack call gives the Byzantine clients their
uploads, and the server applies the configured robust aggregator to the
client deltas (upload - w_t) to advance the global iterate.  The full
metric trajectory is recorded; sampling an output iterate is left to
post-processing.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

import numpy as np

from .aggregators import AggregatorSpec, aggregate
from .attacks import AttackStrategy, byzantine_upload
from .errors import ParameterError
from .problems import Problem, descend, honest_objective

SCHEDULE_KINDS = ("constant", "grad_cube", "pl_power", "step_wise")

# |w| beyond this multiple of the initial scale counts as divergence.
DIVERGENCE_SCALE = 1e300


@dataclass(frozen=True)
class Schedule:
    kind: str = "constant"
    gamma: float = 0.01   # constant stepsize, or gamma0 for step_wise
    beta: float = 0.5     # pl_power exponent

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ParameterError(f"kind must be one of {list(SCHEDULE_KINDS)}, got {self.kind!r}")
        if self.kind in ("constant", "step_wise") and self.gamma <= 0:
            raise ParameterError("gamma must be positive")
        if self.kind == "pl_power" and not 0 < self.beta < 1:
            raise ParameterError("beta must lie in (0, 1)")


def stepsize_at(schedule: Schedule, t: int, T: int, L: float, H: int, kappa: float = 0.0) -> float:
    """Stepsize for round ``t`` of a ``T``-round run.

    grad_cube: 1/(c'*L*H*T^(1/3)) with c' = max(4*sqrt(2), sqrt(384*kappa));
    pl_power:  1/(c'*L*H*T^(1-beta));
    step_wise: gamma0 on [0, T/2), gamma0/10 on [T/2, 3T/4), gamma0/100 after.
    """
    if schedule.kind == "constant":
        return schedule.gamma
    if schedule.kind == "grad_cube":
        c = max(4.0 * np.sqrt(2.0), np.sqrt(384.0 * kappa))
        return 1.0 / (c * L * H * T ** (1.0 / 3.0))
    if schedule.kind == "pl_power":
        c = max(4.0 * np.sqrt(2.0), np.sqrt(384.0 * kappa))
        return 1.0 / (c * L * H * T ** (1.0 - schedule.beta))
    if schedule.kind == "step_wise":
        if t < T / 2:
            return schedule.gamma
        if t < 3 * T / 4:
            return 0.1 * schedule.gamma
        return 0.01 * schedule.gamma
    raise ParameterError(f"unknown schedule kind {schedule.kind!r}")


@dataclass(frozen=True)
class RunConfig:
    problem: Problem
    aggregator: AggregatorSpec
    attack: AttackStrategy
    T: int
    H: int = 1
    schedule: Schedule = field(default_factory=Schedule)
    w0: np.ndarray = None
    seed: int = 0
    kappa: float = 0.0  # robustness coefficient used by the c' stepsize rule

    def __post_init__(self):
        if self.T < 0:
            raise ParameterError("T must be >= 0")
        if self.H < 1:
            raise ParameterError("H must be >= 1")
        w0 = np.zeros(self.problem.d) if self.w0 is None else np.atleast_1d(
            np.asarray(self.w0, dtype=np.float64)
        )
        if w0.shape != (self.problem.d,):
            raise ParameterError(f"w0 must have dimension {self.problem.d}")
        object.__setattr__(self, "w0", w0)
        if not 0 <= self.aggregator.f_hat < self.problem.n / 2:
            raise ParameterError("aggregator f_hat must satisfy 0 <= f_hat < n/2")
        if self.kappa < 0:
            raise ParameterError("kappa must be >= 0")
        if self.attack.kind == "fixed_vector" and np.atleast_1d(self.attack.vector).shape != (self.problem.d,):
            raise ParameterError(f"attack vector must have dimension {self.problem.d}")


@dataclass
class RunRecord:
    """Per-round metric trajectory plus run provenance.

    Row t holds the metrics evaluated at iterate w_t; ``agg_deviation[t]`` is
    the squared distance between the aggregated delta of round t and the mean
    honest delta.  A completed T-round run has T+1 metric rows (the last one
    for the final iterate) and T deviation entries.
    """

    iterates: np.ndarray        # (rows, d)
    grad_metric: np.ndarray     # (rows,) squared gradient norm of the honest objective
    loss_gap: np.ndarray        # (rows,) honest objective value minus l_star
    running_avg: np.ndarray     # (rows,) mean of grad_metric over rounds 0..t
    agg_deviation: np.ndarray   # (aggregations,)
    diverged: bool
    diverged_round: Optional[int]
    seed: int
    config_digest: str

    @property
    def rows(self) -> int:
        return self.grad_metric.shape[0]

    @property
    def final_iterate(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def final_grad_metric(self) -> float:
        return float(self.grad_metric[-1])

    @property
    def final_loss_gap(self) -> float:
        return float(self.loss_gap[-1])


def _describe(value):
    """JSON-compatible form of one RunConfig field value."""
    if isinstance(value, Problem):
        return dict(value.descriptor) if value.descriptor else {
            "kind": "custom",
            "n": value.n,
            "f": value.f,
            "honest_set": list(value.honest_set),
            "curvature": value.curvature.tolist(),
            "centers": value.centers.tolist(),
        }
    if is_dataclass(value):
        return {f.name: _describe(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_describe(v) for v in value]
    return value


def run_config_descriptor(config: RunConfig) -> dict:
    """JSON-compatible description of a run, one entry per RunConfig field;
    the digest is taken over its canonical serialization, so field order
    never matters."""
    return _describe(config)


def config_digest(config: RunConfig) -> str:
    payload = json.dumps(run_config_descriptor(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunState:
    w: np.ndarray
    t: int = 0
    iterates: list = field(default_factory=list)
    grad_metric: list = field(default_factory=list)
    loss_gap: list = field(default_factory=list)
    agg_deviation: list = field(default_factory=list)
    diverged: bool = False
    diverged_round: Optional[int] = None


def _record_metrics(state: RunState, config: RunConfig, w0_scale: float) -> bool:
    """Append the metric row for the current iterate; returns False (and
    marks divergence) on the first non-finite or runaway value."""
    w = state.w
    if not np.all(np.isfinite(w)) or np.abs(w).max() > DIVERGENCE_SCALE * (1.0 + w0_scale):
        state.diverged = True
        state.diverged_round = state.t
        return False
    value, grad = honest_objective(config.problem, w)
    gap = value - config.problem.l_star
    with np.errstate(over="ignore"):  # a runaway iterate overflows to inf, caught below
        gm = float(grad @ grad)
    if not (np.isfinite(gm) and np.isfinite(gap)):
        state.diverged = True
        state.diverged_round = state.t
        return False
    state.iterates.append(w.copy())
    state.grad_metric.append(gm)
    state.loss_gap.append(gap)
    return True


def run_round(state: RunState, config: RunConfig) -> RunState:
    """Execute one communication round from the current state."""
    problem = config.problem
    t = state.t
    gamma = stepsize_at(config.schedule, t, config.T, problem.L, config.H, config.kappa)
    honest_uploads = descend(problem, problem.honest_set, state.w, gamma, config.H)
    uploads = np.empty((problem.n, state.w.shape[0]))
    uploads[list(problem.honest_set)] = honest_uploads
    uploads[list(problem.byzantine_set)] = byzantine_upload(
        config.attack, problem, state.w, gamma, config.H, t, config.seed, honest_uploads
    )

    deltas = uploads - state.w
    aggregated = aggregate(config.aggregator, deltas)
    deviation = aggregated - honest_uploads.mean(axis=0) + state.w
    with np.errstate(over="ignore"):  # overflow to inf marks divergence in run()
        state.agg_deviation.append(float(deviation @ deviation))
    state.w = state.w + aggregated
    state.t = t + 1
    return state


def _preflight(config: RunConfig) -> None:
    L, H = config.problem.L, config.H
    gamma0 = stepsize_at(config.schedule, 0, max(config.T, 1), L, H, config.kappa)
    bound = 1.0 / 32.0
    if config.kappa > 0:
        bound = min(bound, 1.0 / (384.0 * config.kappa))
    if L * L * gamma0 * gamma0 * H * (H - 1) > bound or gamma0 > 1.0 / (2.0 * L * H):
        warnings.warn(
            "stepsize violates the convergence-guarantee precondition; "
            "the run may diverge",
            stacklevel=3,
        )


def run(config: RunConfig) -> RunRecord:
    """Execute the configured number of rounds (halting early on divergence)
    and return the full metric record."""
    _preflight(config)
    state = RunState(w=config.w0.copy())
    w0_scale = float(np.abs(config.w0).max())
    for _ in range(config.T):
        if not _record_metrics(state, config, w0_scale):
            break
        run_round(state, config)
        if not np.all(np.isfinite(state.agg_deviation[-1:])):
            state.agg_deviation.pop()
            state.diverged = True
            state.diverged_round = state.t
            break
    else:
        _record_metrics(state, config, w0_scale)

    grad_metric = np.asarray(state.grad_metric)
    cum = np.cumsum(grad_metric)
    running_avg = cum / np.arange(1, grad_metric.shape[0] + 1) if grad_metric.size else cum
    d = config.w0.shape[0]
    return RunRecord(
        iterates=np.asarray(state.iterates).reshape(-1, d),
        grad_metric=grad_metric,
        loss_gap=np.asarray(state.loss_gap),
        running_avg=running_avg,
        agg_deviation=np.asarray(state.agg_deviation),
        diverged=state.diverged,
        diverged_round=state.diverged_round,
        seed=config.seed,
        config_digest=config_digest(config),
    )
