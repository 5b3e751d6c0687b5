"""Round-based simulation of robust federated averaging.

Each round: every honest client runs H local gradient-descent steps from the
current global iterate, one attack call gives the Byzantine clients their
uploads, and the server applies the configured robust aggregator to the
client deltas (upload - w_t) to advance the global iterate.  The loop
records each iterate and deviation into arrays allocated once per run; the
metrics of all recorded iterates are evaluated after the loop, in one
batched ``honest_objective`` call per run.  Sampling an output iterate is
left to post-processing.

``run_batch`` advances R runs that share n, d, H and the aggregator spec in
lockstep; each keeps its own problem, schedule, T, w0, seed, attack and
noise stream, and leaves once it completes or diverges.  Round t is one
``run_round`` call: one local update of every client of every run, per
group of runs with one honest set and one attack kind one honest-mean
reduction and one ``byzantine_upload`` call, and one ``aggregate`` call.
Every run meets the float operations it meets alone, in the same order, so
a batch gives each run's record bit for bit; ``run`` is a batch of one.

A run stops at the first row t it cannot record (round t-1's deltas or
deviation not finite, or w_t or its metrics not finite) and is then diverged,
with ``diverged_round == rows``.  No bound on |w| is needed: a recorded w_0
lies within about 1.34e154 of every honest center, and a row far beyond
overflows its metrics.  Below ``_overflow_free_scale`` the metrics cannot
overflow, so only a row above it has them evaluated in the loop, and no
round runs past it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

import numpy as np

from .aggregators import AggregatorSpec
from .aggregators import _aggregate as aggregate  # run_round checks its deltas, RunConfig its f_hat
from .attacks import AttackStrategy, byzantine_upload, check_dimension, noise_stream
from .bounds import stepsize_constant
from .errors import ParameterError, check, count_error, kind_error, real_error
from .problems import Problem, honest_objective, local_update

SCHEDULE_KINDS = ("constant", "grad_cube", "pl_power", "step_wise")


@dataclass(frozen=True)
class Schedule:
    kind: str = "constant"
    gamma: float = 0.01   # constant stepsize, or gamma0 for step_wise
    beta: float = 0.5     # pl_power exponent

    def __post_init__(self):
        check(kind_error("kind", self.kind, SCHEDULE_KINDS)
              or real_error("gamma", self.gamma, positive=self.kind in ("constant", "step_wise"))
              or real_error("beta", self.beta))
        if self.kind == "pl_power" and not 0 < self.beta < 1:
            raise ParameterError("beta must lie in (0, 1)")


def stepsize_at(schedule: Schedule, t: int, T: int, L: float, H: int, kappa: float = 0.0) -> float:
    """Stepsize for round ``t`` of a ``T``-round run.

    grad_cube: 1/(c'*L*H*T^(1/3)) with c' = bounds.stepsize_constant(kappa);
    pl_power:  1/(c'*L*H*T^(1-beta));
    step_wise: gamma0 on [0, T/2), gamma0/10 on [T/2, 3T/4), gamma0/100 after.
    """
    if schedule.kind == "constant":
        return schedule.gamma
    if schedule.kind == "grad_cube":
        return 1.0 / (stepsize_constant(kappa) * L * H * T ** (1.0 / 3.0))
    if schedule.kind == "pl_power":
        return 1.0 / (stepsize_constant(kappa) * L * H * T ** (1.0 - schedule.beta))
    # step_wise, the one kind left: Schedule admits no other
    if t < T / 2:
        return schedule.gamma
    if t < 3 * T / 4:
        return 0.1 * schedule.gamma
    return 0.01 * schedule.gamma


def _field_errors(values: dict) -> list[str]:
    """One message per rule on RunConfig's T, H, seed and kappa that ``values``
    (field name -> value) breaks; absent fields are not checked.  T, H and seed
    are Python ints, and kappa a finite real number >= 0 whose stepsize
    constant is finite."""
    errors = [count_error(key, values[key], lo, numpy=False) for key, lo in (("T", 0), ("H", 1), ("seed", 0))
              if key in values]
    kappa = values.get("kappa", 0.0)  # an absent kappa breaks no rule
    errors.append(real_error("kappa", kappa, lo=0))
    if errors[-1] is None and not math.isfinite(stepsize_constant(kappa)):
        errors.append(f"kappa = {kappa!r} overflows the stepsize constant sqrt(384*kappa)")
    return [error for error in errors if error is not None]


@dataclass(frozen=True)
class RunConfig:
    problem: Problem
    aggregator: AggregatorSpec
    attack: AttackStrategy
    T: int = 100
    H: int = 1
    schedule: Schedule = field(default_factory=Schedule)
    w0: Optional[np.ndarray] = None  # None means the origin
    seed: int = 0
    kappa: float = 0.0  # robustness coefficient used by the c' stepsize rule

    def __post_init__(self):
        broken = _field_errors({key: getattr(self, key) for key in ("T", "H", "seed", "kappa")})
        if broken:
            raise ParameterError(broken[0])
        w0 = np.zeros(self.problem.d) if self.w0 is None else np.atleast_1d(
            np.asarray(self.w0, dtype=np.float64)
        )
        if w0.shape != (self.problem.d,):
            raise ParameterError(f"w0 must have dimension {self.problem.d}")
        object.__setattr__(self, "w0", w0)
        check(count_error("aggregator.f_hat", self.aggregator.f_hat, n=self.problem.n))
        check_dimension(self.attack, self.problem.d)


@dataclass
class RunRecord:
    """Per-round metric trajectory plus run provenance.

    Row t holds the metrics evaluated at iterate w_t; ``agg_deviation[t]`` is
    the squared distance between the aggregated delta of round t and the mean
    honest delta.  A completed T-round run has T+1 metric rows (the last one
    for the final iterate) and T deviation entries.  A diverged run has
    ``diverged_round == rows <= T`` and ``rows`` deviations, or ``rows - 1``
    when the deviation of round ``rows - 1`` was the one not finite.
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
    def final_grad_metric(self) -> float:
        return float(self.grad_metric[-1])

    @property
    def final_loss_gap(self) -> float:
        return float(self.loss_gap[-1])


def run_config_descriptor(value):
    """JSON-compatible description of a RunConfig (one entry per field) or
    of a field's value; config_digest sorts its keys."""
    if isinstance(value, Problem) and value.descriptor:
        descriptor = dict(value.descriptor)
        if value.honest_set != tuple(range(value.n - value.f)):  # a factory's descriptor omits the honest set
            descriptor["honest_set"] = list(value.honest_set)
        return descriptor
    if isinstance(value, Problem):
        return {
            "kind": "custom",
            "n": value.n,
            "f": value.f,
            "honest_set": list(value.honest_set),
            "curvature": value.curvature.tolist(),
            "centers": value.centers.tolist(),
        }
    if is_dataclass(value):
        return {f.name: run_config_descriptor(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [run_config_descriptor(v) for v in value]
    return value


def config_digest(config: RunConfig) -> str:
    payload = json.dumps(run_config_descriptor(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _deviations(aggregated: np.ndarray, means: np.ndarray, w: np.ndarray) -> list:
    deviation = aggregated - means + w
    return np.vecdot(deviation, deviation).tolist()


def _group_key(config: RunConfig) -> tuple:
    return config.problem.honest_set, config.attack.kind


def _clients(clouds: np.ndarray, index) -> np.ndarray:
    """Rows ``index`` of each cloud: a view for a slice, else a C-order gather, summed as one run's rows are."""
    return clouds[:, index] if isinstance(index, slice) else clouds.take(index, axis=1)


class _Batch:
    """The active runs of a batch in group order, with their configs, noise
    streams, centers (R, n, d), slopes (R, 1, d) and stepsizes (R, 1, 1):
    stacked once by ``of``, cut by ``keep`` as runs leave.  A group is a
    stretch of runs with one honest set and one attack kind; ``groups``
    holds its slice of runs, first problem, honest and Byzantine clients
    (slices if the honest set is the first n - f) and noise iterator."""

    def __init__(self, configs: list, streams: list, centers, slopes, steps):
        self.configs, self.streams, self.centers, self.slopes, self.steps = configs, streams, centers, slopes, steps
        self.attacks, self.seeds = [c.attack for c in configs], [c.seed for c in configs]
        self.varying = [(k, c) for k, c in enumerate(configs) if c.schedule.kind == "step_wise"]
        self.groups, start = [], 0
        for _, members in itertools.groupby(configs, _group_key):
            runs = slice(start, start + len(list(members)))
            problem = configs[start].problem
            m, start = len(problem.honest_set), runs.stop
            honest, byzantine = problem.honest_index, problem.byzantine_index
            if problem.honest_set == tuple(range(m)):
                honest, byzantine = slice(0, m), slice(m, problem.n)
            noise = None if streams[runs.start] is None else zip(*streams[runs])
            self.groups.append((runs, problem, honest, byzantine, noise))

    @classmethod
    def of(cls, configs: list) -> "_Batch":
        """The batch of ``configs``, in group order, at round 0 (which a run with T = 0 never runs)."""
        steps = [stepsize_at(c.schedule, 0, max(c.T, 1), c.problem.L, c.H, c.kappa) for c in configs]
        return cls(configs, [noise_stream(c.attack, c.problem, c.seed, c.T) for c in configs],
                   np.array([c.problem.centers for c in configs]),
                   np.array([c.problem.slope for c in configs])[:, None, :], np.array(steps)[:, None, None])

    def keep(self, stay: list) -> "_Batch":
        return _Batch([self.configs[k] for k in stay], [self.streams[k] for k in stay],
                      self.centers[stay], self.slopes[stay], self.steps[stay])

    def at(self, t: int) -> "_Batch":
        """The batch with round t's stepsizes; only step_wise ones change."""
        for k, c in self.varying:
            self.steps[k] = stepsize_at(c.schedule, t, c.T, c.problem.L, c.H, c.kappa)
        return self


def run_round(batch: _Batch, w: np.ndarray, t: int) -> tuple[np.ndarray, list]:
    """Round ``t`` of each run of ``batch`` from its row of the (R, d)
    iterates ``w``, in the calls the module docstring lists: the (R, d) next
    iterates and, per run, the squared distance between the aggregated delta
    and the mean honest delta.  Every client takes its H >= 1 local steps, as
    honest_mimic sends them.  A run whose deltas are not finite (an upload
    overflowed) is left out of the aggregation, and its deviation is NaN."""
    uploads = local_update(w[:, None, :], batch.centers, batch.slopes, batch.steps, batch.configs[0].H)
    means = np.empty(w.shape)
    for runs, problem, honest, byzantine, noise in batch.groups:
        clouds = uploads[runs]
        honest_uploads = _clients(clouds, honest)
        np.divide(np.add.reduce(honest_uploads, axis=1), honest_uploads.shape[1], out=means[runs])  # numpy's mean
        rows = _clients(clouds, byzantine) if noise is None else np.array(next(noise))
        clouds[:, byzantine] = byzantine_upload(batch.attacks[runs], problem, w[runs], batch.steps[runs, 0, 0],
                                                batch.configs[0].H, t, batch.seeds[runs], means[runs], rows)
    deltas = np.subtract(uploads, w[:, None, :], out=uploads)
    if np.logical_and.reduce(np.isfinite(deltas), axis=None):
        aggregated = aggregate(batch.configs[0].aggregator, deltas)
    else:
        finite = np.isfinite(deltas).all(axis=(1, 2))
        aggregated = np.full(w.shape, np.nan)
        if finite.any():
            aggregated[finite] = aggregate(batch.configs[0].aggregator, deltas[finite])
    return w + aggregated, _deviations(aggregated, means, w)


def _preflight(config: RunConfig) -> None:
    L, H = config.problem.L, config.H
    gamma0 = stepsize_at(config.schedule, 0, max(config.T, 1), L, H, config.kappa)
    bound = 1.0 / 32.0
    if config.kappa > 0:
        bound = min(bound, 1.0 / (384.0 * config.kappa))
    if L * L * gamma0 * gamma0 * H * (H - 1) > bound or gamma0 > 1.0 / (2.0 * L * H):
        warnings.warn("stepsize violates the convergence-guarantee precondition; the run may diverge",
                      stacklevel=4)  # _preflight, _run_batch, run or run_batch, then their caller


def _overflow_free_scale(problem: Problem) -> float:
    """A magnitude ``safe``: no iterate with max|w_i| <= safe overflows in
    the honest objective's value, its gradient or the squared gradient norm.

    With m honest clients, dimension d, A = max curvature, C = max|center|
    and R = safe + C, every |w_i - b_kj| <= R, so each partial sum that
    ``honest_objective`` forms is at most (m*d*A*R^2 for the value, 2*m*A*R
    for a gradient entry, d*(2*A*R)^2 for ``grad @ grad``, R^2 for one
    squared difference) times a rounding factor (1 + eps)^(m + d) < 2.
    Taking R^2 = MAX / (16*m*d*max(A, 1)^2) keeps the quadratic bounds at or
    under MAX/4, and the linear one, 2*m*A*R <= sqrt(m*MAX)/2, under MAX for
    any m < MAX.  Subtracting l_star (>= 0, finite) from a value <= MAX/4
    stays finite too.  When C >= R, safe is negative and every row is
    checked."""
    m, d = problem.honest_index.shape[0], problem.d
    scale = max(float(problem.curvature.max()), 1.0)
    reach = np.sqrt(np.finfo(np.float64).max / (16.0 * m * d)) / scale
    return reach - float(np.abs(problem.centers).max())


def _metrics(problem: Problem, w: np.ndarray):
    """``(grad_metric, loss_gap)`` at each row of the (k, d) block ``w``."""
    value, grad = honest_objective(problem, w)
    with np.errstate(over="ignore"):  # a runaway row's metric overflows to inf, and run() stops there
        return np.vecdot(grad, grad), value - problem.l_star


def run(config: RunConfig) -> RunRecord:
    """Execute the configured number of rounds (halting early on divergence)
    and return the full metric record: ``run_batch([config])[0]``."""
    return _run_batch([config])[0]


def run_batch(configs) -> list[RunRecord]:
    """Run every config in lockstep and return their records in order, each
    equal to the record of its run alone.

    The runs must share n, d, H and the aggregator spec (f_hat included);
    their problems (f and the honest set may differ), schedules, T, w0,
    seeds and attacks are their own.  A run leaves the stack once it
    completes or diverges, and the rest go on.
    """
    return _run_batch(configs)


def _run_batch(configs) -> list[RunRecord]:
    """``run_batch``, one call below ``run`` and ``run_batch`` alike, so that
    the stepsize warning names their caller's line."""
    configs = list(configs)
    if not configs:
        return []
    shared = (configs[0].problem.n, configs[0].problem.d, configs[0].H, configs[0].aggregator)
    for config in configs:
        if (config.problem.n, config.problem.d, config.H, config.aggregator) != shared:
            raise ParameterError("runs of one batch must share n, d, H and the aggregator spec")
    digests = []
    for config in configs:
        _preflight(config)
        digests.append(config_digest(config))  # before any round, so a config it cannot describe fails at once
    safe = [_overflow_free_scale(config.problem) for config in configs]
    iterates = [np.empty((config.T + 1, shared[1])) for config in configs]
    agg_deviation = [np.empty(config.T) for config in configs]
    rows, aggregations = [0] * len(configs), [0] * len(configs)  # set as each run leaves
    active = sorted(range(len(configs)), key=lambda r: _group_key(configs[r]))  # so each group is one slice
    batch = _Batch.of([configs[r] for r in active])
    w = np.array([configs[r].w0 for r in active])
    deviations = [0.0] * len(configs)  # of the last round, per active run
    # a step, upload or deviation past the float range is inf or NaN without
    # a warning, and its run ends as diverged
    with np.errstate(over="ignore", invalid="ignore"):
        for t in itertools.count():
            tops = np.maximum.reduce(np.abs(w), axis=1).tolist()  # nan where some w_i is
            stay = []
            for k, r in enumerate(active):
                if not math.isfinite(deviations[k]):
                    rows[r], aggregations[r] = t, t - 1  # round t-1's deltas or deviation
                elif tops[k] <= safe[r] or np.all(np.isfinite(_metrics(configs[r].problem, w[k : k + 1]))):
                    iterates[r][t] = w[k]
                    if t < configs[r].T:
                        stay.append(k)
                    else:
                        rows[r], aggregations[r] = t + 1, t  # completed
                else:
                    rows[r] = aggregations[r] = t  # row t is not recorded
            if len(stay) < len(active):
                active, w = [active[k] for k in stay], w[stay]
                if not active:
                    break
                batch = batch.keep(stay)
            w, deviations = run_round(batch.at(t), w, t)
            for k, r in enumerate(active):
                agg_deviation[r][t] = deviations[k]

    records = []
    for config, digest, r in zip(configs, digests, range(len(configs))):
        grad_metric, loss_gap = _metrics(config.problem, iterates[r][: rows[r]])
        records.append(RunRecord(
            iterates=iterates[r][: rows[r]],
            grad_metric=grad_metric,
            loss_gap=loss_gap,
            running_avg=np.cumsum(grad_metric) / np.arange(1, rows[r] + 1),
            agg_deviation=agg_deviation[r][: aggregations[r]],
            diverged=rows[r] <= config.T,
            diverged_round=rows[r] if rows[r] <= config.T else None,
            seed=config.seed,
            config_digest=digest,
        ))
    return records
