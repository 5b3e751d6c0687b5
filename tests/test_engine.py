"""Simulation engine: local updates, stepsize schedules, round mechanics,
divergence handling, and determinism."""

import ast
import dataclasses
import hashlib
import inspect
import itertools
import math
import warnings
from typing import Optional

import numpy as np
import pytest

from fedrobust import (
    AggregatorSpec,
    AttackStrategy,
    ParameterError,
    Problem,
    RunConfig,
    RunRecord,
    Schedule,
    aggregate,
    byzantine_upload,
    descend,
    homogeneous_quadratic_problem,
    honest_objective,
    random_quadratic_problem,
    run,
    run_batch,
    stepsize_at,
    two_group_quadratic_problem,
    weiszfeld,
)
from fedrobust import aggregators, attacks, engine
from fedrobust.attacks import ATTACK_KINDS, noise_rows, noise_stream
from fedrobust.engine import (_clients, _deviations, _group_key, _metrics, _overflow_free_scale, _preflight, config_digest,
                              run_config_descriptor)
from fedrobust.problems import local_update
from test_attacks import oracle_group_upload

# The oracle also stops at |w| beyond this multiple of the initial scale, a
# bound the engine once had; the metric check always stops that same row.
DIVERGENCE_SCALE = 1e300


def quiet_run(config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return run(config)


# ---------------------------------------------------------------------------
# local update

def test_local_update_examples():
    p = homogeneous_quadratic_problem(3)
    assert descend(p, [0], np.array([1.0]), 0.1, 2)[0, 0] == pytest.approx(0.81, abs=1e-15)

    q = two_group_quadratic_problem(10, 2, 3, 1.0)
    c = q.L / 2
    shifted = [0]  # client 0 is centered at -1
    assert descend(q, shifted, np.array([0.0]), 0.03, 1)[0, 0] == pytest.approx(-2 * c * 0.03, rel=1e-12)
    # zero gradient at the loss center is a fixed point
    assert descend(q, shifted, np.array([-1.0]), 0.2, 5)[0, 0] == -1.0


# ---------------------------------------------------------------------------
# stepsize schedules

def test_stepsize_schedules():
    assert stepsize_at(Schedule("constant", gamma=0.1), 17, 100, L=3.0, H=2) == 0.1

    got = stepsize_at(Schedule("grad_cube"), 0, 1000, L=1.0, H=1, kappa=8 / 3)
    assert got == pytest.approx(1 / 320, rel=1e-12)  # c' = max(4*sqrt(2), 32) = 32

    sched = Schedule("step_wise", gamma=0.5)
    assert stepsize_at(sched, 0, 400, 1.0, 1) == 0.5
    assert stepsize_at(sched, 199, 400, 1.0, 1) == 0.5
    assert stepsize_at(sched, 200, 400, 1.0, 1) == pytest.approx(0.05)
    assert stepsize_at(sched, 350, 400, 1.0, 1) == pytest.approx(0.005)

    got = stepsize_at(Schedule("pl_power", beta=0.5), 0, 100, L=2.0, H=1, kappa=0.0)
    assert got == pytest.approx(1 / (4 * np.sqrt(2) * 2.0 * 10), rel=1e-12)

    with pytest.raises(ParameterError):
        Schedule("pl_power", beta=1.5)
    with pytest.raises(ParameterError):
        Schedule("constant", gamma=0.0)
    for kind in ("constant", "step_wise"):
        with pytest.raises(ParameterError, match="gamma"):
            Schedule(kind, gamma=float("nan"))


@pytest.mark.parametrize("build,message", [
    (lambda v: Schedule("constant", gamma=v), "gamma"),
    (lambda v: Schedule("grad_cube", gamma=v), "gamma"),
    (lambda v: Schedule("pl_power", beta=v), "beta"),
    (lambda v: AggregatorSpec("gm", gm_tolerance=v), "gm_tolerance"),
    (lambda v: weiszfeld([[0.0], [1.0], [3.0]], tol=v), "tol"),
], ids=["gamma", "unused_gamma", "beta", "gm_tolerance", "tol"])
def test_real_parameters_reject_bools_non_reals_and_infinities(build, message):
    for value in (True, "x", None, [0.5]):
        with pytest.raises(ParameterError) as excinfo:
            build(value)
        assert str(excinfo.value) == f"{message} must be a real number, got {value!r}"
    with pytest.raises(ParameterError) as excinfo:
        build(float("inf"))
    assert str(excinfo.value) == f"{message} must be finite"
    for value in (np.float32(0.25), 0.5):  # numpy floats are real numbers
        build(value)


# ---------------------------------------------------------------------------
# closed-form round behaviour

COLLAPSING = [
    AggregatorSpec("cwtm", f_hat=3),
    AggregatorSpec("cwmed", f_hat=3),
    AggregatorSpec("krum", f_hat=3),
    AggregatorSpec("krum", f_hat=3, pre_nnm=True),
]


@pytest.mark.parametrize("agg", COLLAPSING, ids=lambda a: a.name)
def test_round_follows_contraction_closed_form(agg):
    p = two_group_quadratic_problem(10, 2, 3, 1.0)
    gamma, H, T = 0.01, 5, 40
    config = RunConfig(
        problem=p, aggregator=agg, attack=AttackStrategy("honest_mimic"),
        T=T, H=H, schedule=Schedule("constant", gamma=gamma), w0=np.array([1.0]), seed=0,
    )
    record = run(config)
    contraction = (1 - p.L * gamma) ** H  # L = 2cG
    expected = contraction ** np.arange(T + 1)
    assert np.abs(record.iterates[:, 0] - expected).max() < 1e-10


def test_mean_aggregator_with_identical_clients_is_plain_gd():
    p = homogeneous_quadratic_problem(4)
    config = RunConfig(
        problem=p, aggregator=AggregatorSpec("mean"), attack=AttackStrategy("honest_mimic"),
        T=30, H=1, schedule=Schedule("constant", gamma=0.1), w0=np.array([2.0]), seed=0,
    )
    record = run(config)
    # single-machine gradient descent oracle
    w = np.array([2.0])
    for t in range(30):
        assert abs(record.iterates[t, 0] - w[0]) < 1e-12
        _, grad = honest_objective(p, w)
        w = w - 0.1 * grad
    assert abs(record.iterates[30, 0] - w[0]) < 1e-12


def test_escalation_round_lower_bound():
    # Underestimating trimmed mean plus a linearly escalating outlier pushes
    # the iterate up by at least t/3 per round on the shared quadratic.
    p = homogeneous_quadratic_problem(5, f=2)
    config = RunConfig(
        problem=p, aggregator=AggregatorSpec("cwtm", f_hat=1),
        attack=AttackStrategy("escalating_outlier"),
        T=10, H=1, schedule=Schedule("constant", gamma=0.1), w0=np.array([1.0]), seed=0,
    )
    record = run(config)
    assert record.iterates[10, 0] >= 9 * (1 / 3)
    ts = np.arange(record.rows)
    assert np.all(record.iterates[1:, 0] >= (ts[1:] - 1) / 3)


# ---------------------------------------------------------------------------
# record structure

def test_record_running_average_definition():
    p = homogeneous_quadratic_problem(4)
    config = RunConfig(
        problem=p, aggregator=AggregatorSpec("mean"), attack=AttackStrategy("honest_mimic"),
        T=10, H=1, schedule=Schedule("constant", gamma=0.05), w0=np.array([1.5]), seed=0,
    )
    record = run(config)
    assert record.rows == 11
    assert record.agg_deviation.shape == (10,)
    for t in range(record.rows):
        assert record.running_avg[t] == pytest.approx(record.grad_metric[: t + 1].mean(), rel=1e-14)


def test_zero_round_run_records_initial_metrics_only():
    p = homogeneous_quadratic_problem(3)
    config = RunConfig(
        problem=p, aggregator=AggregatorSpec("mean"), attack=AttackStrategy("honest_mimic"),
        T=0, H=1, schedule=Schedule("constant", gamma=0.05), w0=np.array([3.0]), seed=0,
    )
    record = run(config)
    assert record.rows == 1
    assert record.agg_deviation.shape == (0,)
    assert record.grad_metric[0] == pytest.approx(9.0)
    assert record.loss_gap[0] == pytest.approx(4.5)


def overshoot_config():
    """A 10% stepsize overshoot on the two-group problem, which diverges."""
    p = two_group_quadratic_problem(10, 2, 3, 1.0)
    c = p.L / 2
    return RunConfig(
        problem=p, aggregator=AggregatorSpec("cwtm", f_hat=3), attack=AttackStrategy("honest_mimic"),
        T=2000, H=5, schedule=Schedule("constant", gamma=1.1 / c), w0=np.array([1.0]), seed=0,
    )


def test_divergence_flag_and_partial_record():
    record = quiet_run(overshoot_config())
    assert record.diverged
    assert record.diverged_round is not None
    assert record.rows == record.diverged_round
    assert np.all(np.isfinite(record.grad_metric))
    assert np.all(np.isfinite(record.loss_gap))


RUNAWAY = [
    # |w0| = 1e9 puts the runaway threshold at inf, so the metric overflows
    # first: row 451 is not recorded, after 451 rows and 451 deviations
    ("cwtm", AttackStrategy("escalating_outlier"), 1e9, 451, 451, 451),
    # the aggregation deviation overflows in the first round: row 0 is
    # recorded, its deviation and row 1 are not
    ("mean", AttackStrategy("fixed_vector", vector=(1e200,)), 1.0, 1, 1, 0),
]


def runaway_config(agg, attack, w0):
    return RunConfig(
        problem=homogeneous_quadratic_problem(5, 2), aggregator=AggregatorSpec(agg, f_hat=1), attack=attack,
        T=3000, H=1, schedule=Schedule("constant", gamma=0.1), w0=np.array([w0]), seed=0,
    )


@pytest.mark.parametrize("agg,attack,w0,diverged_round,rows,deviations", RUNAWAY)
def test_runaway_overflow_is_silent_divergence(agg, attack, w0, diverged_round, rows, deviations):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        record = run(runaway_config(agg, attack, w0))
    assert record.diverged
    assert record.diverged_round == diverged_round
    assert record.rows == rows
    assert len(record.agg_deviation) == deviations


def test_gm_ignores_an_overflowing_minority():
    # The three honest uploads coincide, so GM returns them exactly and the
    # two uploads at 1e200 never enter a norm; the run equals the attack-free one.
    attacked = dataclasses.replace(runaway_config("gm", AttackStrategy("fixed_vector", vector=(1e200,)), 1.0), T=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        record = run(attacked)
    assert not record.diverged and record.rows == 201
    honest = run(dataclasses.replace(attacked, attack=AttackStrategy("honest_mimic")))
    assert np.array_equal(record.iterates, honest.iterates)
    assert np.array_equal(record.agg_deviation, honest.agg_deviation)


def test_attack_layer_called_once_per_round(monkeypatch):
    # a run alone is a group of one: one byzantine_upload call per round, in
    # the group form, which gives the (1, f, d) block
    calls = []

    def counting(strategy, problem, w, gamma, H, t, seed, honest_uploads, *rest):
        calls.append((t, len(strategy), w.shape))
        block = byzantine_upload(strategy, problem, w, gamma, H, t, seed, honest_uploads, *rest)
        assert block.shape == (1, problem.f, problem.d)
        return block

    monkeypatch.setattr(engine, "byzantine_upload", counting)
    config = RunConfig(
        problem=random_quadratic_problem(9, 3, 2, 1.0, 2.0, seed=0), aggregator=AggregatorSpec("cwtm", f_hat=3),
        attack=AttackStrategy("gaussian_noise", variance=1.0), T=6, H=2,
        schedule=Schedule("constant", gamma=0.01), w0=np.ones(2), seed=4,
    )
    run(config)
    assert calls == [(t, 1, (1, 2)) for t in range(6)]


def test_aggregation_deviation_tracks_honest_mean_gap():
    p = homogeneous_quadratic_problem(5, f=2)
    config = RunConfig(
        problem=p, aggregator=AggregatorSpec("mean"),
        attack=AttackStrategy("fixed_vector", vector=(10.0,)),
        T=1, H=1, schedule=Schedule("constant", gamma=0.1), w0=np.array([1.0]), seed=0,
    )
    record = run(config)
    # honest delta: -0.1; byzantine delta: 9.0; mean delta = (3*(-0.1)+2*9)/5
    agg_delta = (3 * (-0.1) + 2 * 9.0) / 5
    assert record.agg_deviation[0] == pytest.approx((agg_delta - (-0.1)) ** 2, rel=1e-12)
    assert record.iterates[1, 0] == pytest.approx(1.0 + agg_delta, rel=1e-12)


# ---------------------------------------------------------------------------
# oracle: the list-building engine that preceded the preallocated arrays

@dataclasses.dataclass
class OracleState:
    w: np.ndarray
    t: int = 0
    iterates: list = dataclasses.field(default_factory=list)
    grad_metric: list = dataclasses.field(default_factory=list)
    loss_gap: list = dataclasses.field(default_factory=list)
    agg_deviation: list = dataclasses.field(default_factory=list)
    diverged: bool = False
    diverged_round: Optional[int] = None


def oracle_record_metrics(state, config, w0_scale):
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


def oracle_round(state, config):
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


def oracle_run(config):
    """Execute the configured number of rounds (halting early on divergence)
    and return the full metric record."""
    _preflight(config)
    state = OracleState(w=config.w0.copy())
    w0_scale = float(np.abs(config.w0).max())
    for _ in range(config.T):
        if not oracle_record_metrics(state, config, w0_scale):
            break
        oracle_round(state, config)
        if not np.all(np.isfinite(state.agg_deviation[-1:])):
            state.agg_deviation.pop()
            state.diverged = True
            state.diverged_round = state.t
            break
    else:
        oracle_record_metrics(state, config, w0_scale)

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


def assert_matches_oracle(config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        got, want = run(config), oracle_run(config)
    for name in ("iterates", "grad_metric", "loss_gap", "running_avg", "agg_deviation"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.diverged, got.diverged_round) == (want.diverged, want.diverged_round)
    return got


ORACLE_AGGREGATORS = [
    AggregatorSpec("mean"),
    AggregatorSpec("cwtm", f_hat=3),
    AggregatorSpec("cwmed"),
    AggregatorSpec("gm"),
    AggregatorSpec("krum", f_hat=3),
    AggregatorSpec("krum", f_hat=3, pre_nnm=True),
]
ORACLE_ATTACKS = [
    AttackStrategy("honest_mimic"),
    AttackStrategy("escalating_outlier"),
    AttackStrategy("gaussian_noise", variance=1.0),
    AttackStrategy("sign_flip", scale=2.0),
    AttackStrategy("fixed_vector", vector=(3.0, -1.0)),
]


@pytest.mark.parametrize("attack", ORACLE_ATTACKS, ids=lambda a: a.kind)
@pytest.mark.parametrize("agg", ORACLE_AGGREGATORS, ids=lambda a: a.name)
def test_run_matches_list_building_oracle(agg, attack):
    p = random_quadratic_problem(9, 3, 2, 1.0, 2.0, seed=3)
    for T in (0, 1, 7):
        for H in (1, 3):
            assert_matches_oracle(RunConfig(
                problem=p, aggregator=agg, attack=attack, T=T, H=H,
                schedule=Schedule("constant", gamma=0.05), w0=np.array([1.0, -2.0]), seed=4,
            ))


def far_centers_config():
    """Every client centered at (1e200, -1e200) and the run started there:
    the overflow-free scale is negative, so every row's metrics are checked
    in the loop, and the run completes."""
    centers = np.tile([1e200, -1e200], (3, 1))
    p = Problem(f=1, honest_set=None, curvature=[1.0, 1.0], centers=centers, G2=0.0, l_star=0.0)
    return RunConfig(
        problem=p, aggregator=AggregatorSpec("cwtm", f_hat=1), attack=AttackStrategy("sign_flip", scale=2.0),
        T=20, schedule=Schedule("constant", gamma=0.1), w0=centers[0], seed=0,
    )


# (id, config, diverged)
DIVERGENT_CASES = [
    ("overshoot", overshoot_config(), True),
    ("metric_overflow", runaway_config(*RUNAWAY[0][:3]), True),
    ("deviation_overflow", runaway_config(*RUNAWAY[1][:3]), True),
    # row 0 itself overflows its metrics, so no row is recorded
    ("w0_unrecorded", runaway_config("mean", AttackStrategy("honest_mimic"), 1e200), True),
    # CWTM with f_hat = 1 < f = 3 lets the flip through; round 0 is recorded
    # and round 1's deviation overflows
    ("sign_flip_overflow", RunConfig(
        problem=random_quadratic_problem(9, 3, 2, 0.0, 1e-250, seed=3), aggregator=AggregatorSpec("cwtm", f_hat=1),
        attack=AttackStrategy("sign_flip", scale=1e250), T=60, schedule=Schedule("constant", gamma=0.05),
        w0=np.array([1e-250, -2e-250]), seed=4,
    ), True),
    ("far_centers", far_centers_config(), False),
]


@pytest.mark.parametrize("config,diverged", [case[1:] for case in DIVERGENT_CASES],
                         ids=[case[0] for case in DIVERGENT_CASES])
def test_divergent_run_matches_list_building_oracle(config, diverged):
    assert assert_matches_oracle(config).diverged == diverged


def guard_cases():
    """(id, config, stop, crosses) for runs past the in-loop metric check:
    ``stop`` is "" for a completed run, "metric" when the row after the last
    one has |w| within the runaway limit but a metric that is not finite,
    and "deviation" when the last round's deviation is not finite;
    ``crosses`` says that some recorded row lies above the overflow-free
    scale, so its metrics were checked in the loop."""
    p = random_quadratic_problem(9, 3, 2, 1.0, 2.0, seed=3)
    step_wise = RunConfig(
        problem=p, aggregator=AggregatorSpec("krum", f_hat=3, pre_nnm=True),
        attack=AttackStrategy("sign_flip", scale=2.0), T=40, H=3,
        schedule=Schedule("step_wise", gamma=0.05), w0=np.array([1.0, -2.0]), seed=4,
    )
    noise_cwtm = dataclasses.replace(
        step_wise, aggregator=AggregatorSpec("cwtm", f_hat=3), attack=AttackStrategy("gaussian_noise", variance=1.0),
        schedule=Schedule("constant", gamma=0.05), H=1,
    )
    shrinking = runaway_config("mean", AttackStrategy("honest_mimic"), 5e153)
    return [
        # starts above the overflow-free scale and shrinks below it, metrics finite
        ("above_safe", dataclasses.replace(shrinking, T=20), "", True),
        # w0 = 1 keeps the runaway limit finite, at 2e300
        ("metric_overflow", runaway_config("cwtm", AttackStrategy("escalating_outlier"), 1.0), "metric", True),
        ("deviation_overflow", runaway_config(*RUNAWAY[1][:3]), "deviation", False),
        ("step_wise", step_wise, "", False),
        ("noise_cwtm", noise_cwtm, "", False),
    ]


GUARD_CASES = guard_cases()


@pytest.mark.parametrize("config,stop,crosses", [case[1:] for case in GUARD_CASES], ids=[case[0] for case in GUARD_CASES])
def test_run_matches_oracle_past_the_overflow_guard(config, stop, crosses, monkeypatch):
    calls = []
    run_round = engine.run_round

    def counting(configs, w, t, *rest):
        calls.append(t)
        return run_round(configs, w, t, *rest)

    monkeypatch.setattr(engine, "run_round", counting)
    record = assert_matches_oracle(config)
    # no round runs past the stop: one call per recorded deviation, plus the
    # call whose deviation was not finite
    assert len(calls) == len(record.agg_deviation) + (stop == "deviation")
    assert record.diverged == bool(stop)

    top = np.abs(record.iterates).max(axis=1)
    assert np.any(top > engine._overflow_free_scale(config.problem)) == crosses
    if stop == "metric":
        # outside _run_batch's np.errstate, where any RuntimeWarning of the
        # round (its one sum of the deltas included) fails the test
        (w,), _ = run_round(engine._Batch.of([config]), record.iterates[-1:], record.rows - 1)
        assert np.abs(w).max() <= DIVERGENCE_SCALE * (1.0 + np.abs(config.w0).max())
        value, grad = honest_objective(config.problem, w)
        with np.errstate(over="ignore"):
            assert not np.isfinite(value + grad @ grad)


# ---------------------------------------------------------------------------
# determinism and provenance

def test_identical_configs_produce_bitwise_identical_records():
    p = random_quadratic_problem(8, 2, 3, 1.0, 2.0, seed=5)
    def make():
        return RunConfig(
            problem=p, aggregator=AggregatorSpec("krum", f_hat=2, pre_nnm=True),
            attack=AttackStrategy("gaussian_noise", variance=5.0),
            T=50, H=2, schedule=Schedule("constant", gamma=0.01),
            w0=np.zeros(3), seed=77,
        )
    a = run(make())
    b = run(make())
    assert np.array_equal(a.iterates, b.iterates)
    assert np.array_equal(a.grad_metric, b.grad_metric)
    assert np.array_equal(a.agg_deviation, b.agg_deviation)
    assert a.config_digest == b.config_digest


# The benchmark's Krum with NNM shape (n = 10, f = 2, d = 5, f_hat = 3, the
# three attacks of acceptance criterion 6 at kappa = 50.4), recorded before
# the round's kernels were rewritten for speed.  The gaussian_noise and
# sign_flip runs share a digest: at this shape Krum with NNM picks a point
# mixed from honest uploads only, so neither attack moves the iterates.
KRUM_NNM_DIGESTS = {
    "honest_mimic": "bfb2516885e902c27b940ac1cea0d3c12ed8a51ba96f52c517942a5e651acbcf",
    "gaussian_noise": "9c21c0eee2903bb23b302572742c7633542004acdcf71178faf5ab111df0a2b5",
    "sign_flip": "9c21c0eee2903bb23b302572742c7633542004acdcf71178faf5ab111df0a2b5",
}
KRUM_NNM_ATTACKS = [
    AttackStrategy("honest_mimic"),
    AttackStrategy("gaussian_noise", variance=5.0),
    AttackStrategy("sign_flip", scale=1.0),
]


def krum_nnm_config(i, attack, T):
    return RunConfig(
        problem=random_quadratic_problem(10, 2, 5, G_target=1.0, radius=5.0, seed=1000 + i),
        aggregator=AggregatorSpec("krum", f_hat=3, pre_nnm=True), attack=attack, T=T, H=1,
        schedule=Schedule("grad_cube"), w0=np.zeros(5), seed=i, kappa=50.4,
    )


@pytest.mark.parametrize("attack", KRUM_NNM_ATTACKS, ids=lambda a: a.kind)
def test_krum_nnm_runs_are_pinned(attack):
    digest = hashlib.sha256()
    for i in range(3):
        record = run(krum_nnm_config(i, attack, 64))
        assert not record.diverged
        digest.update(record.iterates.tobytes())
        digest.update(record.agg_deviation.tobytes())
    assert digest.hexdigest() == KRUM_NNM_DIGESTS[attack.kind]


def spy_on_the_engine(monkeypatch):
    """Log the arguments of every call the engine makes through the names
    bench/spans.py wraps: run_round, local_update, aggregate and
    byzantine_upload."""
    calls = {name: [] for name in ("run_round", "local_update", "aggregate", "byzantine_upload")}
    for name, log in calls.items():
        def spy(*args, _real=getattr(engine, name), _log=log):
            _log.append(args)
            return _real(*args)
        monkeypatch.setattr(engine, name, spy)
    return calls


def test_engine_keeps_the_tracer_contract(monkeypatch):
    # bench/spans.py wraps the module-level names the engine looks up at call
    # time; a fast path that skipped one of them would blank that layer.  Each
    # round calls run_round, local_update and aggregate once, and
    # byzantine_upload once per group: for a sign flip, for honest_mimic
    # (whose block the round keeps where it is), for gaussian noise, and for
    # a batch of two groups
    flip, mimic = AttackStrategy("sign_flip", scale=1.0), AttackStrategy("honest_mimic")
    for attacks_of_runs in ([flip], [mimic], [AttackStrategy("gaussian_noise", variance=5.0)], [flip, mimic]):
        calls = spy_on_the_engine(monkeypatch)
        configs = [krum_nnm_config(i, attack, 8) for i, attack in enumerate(attacks_of_runs)]
        records = [run(configs[0])] if len(configs) == 1 else run_batch(configs)
        monkeypatch.undo()
        groups = len(configs)
        assert {name: len(log) for name, log in calls.items()} == {
            "run_round": 8, "local_update": 8, "aggregate": 8, "byzantine_upload": 8 * groups}
        assert [args[2] for args in calls["run_round"]] == list(range(8))
        assert [args[5] for args in calls["byzantine_upload"]] == [t for t in range(8) for _ in range(groups)]
        assert [args[1].shape[0] for args in calls["aggregate"]] == [groups] * 8
        for config, record in zip(configs, records):
            assert_same_record(record, oracle_run_batch([config])[0])


# ---------------------------------------------------------------------------
# lockstep batches

RECORD_FIELDS = [f.name for f in dataclasses.fields(RunRecord)]


def assert_same_record(got, want):
    for name in RECORD_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


def batch_configs(spec, attack):
    """Runs that share n = 9, d = 2, H = 2 and ``spec``: problems with
    f in {1, 2, 3}, T in {0, 1, 7, 64}, several w0, seeds and schedules, and
    an overshooting stepsize that diverges in mid-batch."""
    problems = [random_quadratic_problem(9, f, 2, 1.0, 2.0, seed=3 + f) for f in (1, 2, 3)]
    schedules = [Schedule("constant", gamma=0.05), Schedule("step_wise", gamma=0.1), Schedule("constant", gamma=0.02)]
    configs = [
        RunConfig(problem=problems[k % 3], aggregator=spec, attack=attack, T=T, H=2, schedule=schedules[k % 3],
                  w0=np.array([1.0 + k, -2.0 * k]), seed=4 + k)
        for k, T in enumerate((64, 0, 7, 1, 64, 7))
    ]
    overshoot = Schedule("constant", gamma=400.0 / problems[0].L)
    configs.insert(3, dataclasses.replace(configs[0], schedule=overshoot, w0=np.array([3.0, 1.0]), seed=9))
    return configs


@pytest.mark.parametrize("attack", ORACLE_ATTACKS, ids=lambda a: a.kind)
@pytest.mark.parametrize("spec", [
    AggregatorSpec(kind, f_hat=2, pre_nnm=nnm) for kind in ("mean", "cwtm", "cwmed", "gm", "krum") for nnm in (False, True)
], ids=lambda s: s.name)
def test_run_batch_equals_solo_runs_and_the_oracle(spec, attack):
    configs = batch_configs(spec, attack)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        records = run_batch(configs)
        assert len(records) == len(configs)
        for config, record in zip(configs, records):
            assert_same_record(record, run(config))
            assert_same_record(record, oracle_run(config))
    assert records[3].diverged and records[3].rows < records[0].rows  # diverged in mid-batch
    assert not any(record.diverged for k, record in enumerate(records) if k != 3)


def test_one_batch_holds_every_attack_kind_on_two_honest_sets(monkeypatch):
    # the five attack kinds on f = 1 and f = 3 make ten groups of two runs
    # each, given in mixed order, whose attack parameters, stepsizes, T, w0
    # and seeds differ; one run takes the step_wise schedule, one overshoots
    # and diverges in mid-batch, and the others leave as their T ends
    problems = [random_quadratic_problem(9, f, 2, 1.0, 2.0, seed=3 + f) for f in (1, 3)]
    cells = list(itertools.product(ATTACK_KINDS, problems)) * 2
    configs = [
        RunConfig(problem=problem, aggregator=AggregatorSpec("cwtm", f_hat=3),
                  attack=AttackStrategy(kind, variance=0.5 + k / 4, scale=1.0 + k / 8,
                                        vector=(3.0 - k / 4, -1.0) if kind == "fixed_vector" else None),
                  T=20 + 3 * k, H=2, schedule=Schedule("constant", gamma=0.02 + 0.01 * (k % 3)),
                  w0=np.array([1.0 + k, -0.5 * k]), seed=k)
        for k, (kind, problem) in enumerate(cells[i] for i in np.random.default_rng(5).permutation(20))
    ]
    configs[4] = dataclasses.replace(configs[4], schedule=Schedule("step_wise", gamma=0.1))
    overshoot = Schedule("constant", gamma=400.0 / configs[1].problem.L)
    configs.append(dataclasses.replace(configs[1], schedule=overshoot, T=64, w0=np.array([3.0, 1.0]), seed=21))
    calls = spy_on_the_engine(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        records = run_batch(configs)
        monkeypatch.undo()
        for config, record in zip(configs, records):
            assert_same_record(record, run(config))
            assert_same_record(record, oracle_run(config))
    # round 0 makes one byzantine_upload call per group
    assert sorted(args[2].shape[0] for args in calls["byzantine_upload"] if args[5] == 0) == [2] * 9 + [3]
    assert records[-1].diverged and records[-1].rows < max(config.T for config in configs[:-1])
    assert not any(record.diverged for record in records[:-1])


def test_a_gathered_honest_set_keeps_its_bits():
    # honest clients that are not the first n - f are gathered, not sliced; at
    # d = 1 and m = 9 a gather laid out in another memory order would sum the
    # honest mean in another order
    p = random_quadratic_problem(11, 2, 1, 1.0, 2.0, seed=7, honest_set=(0, 1, 2, 4, 5, 6, 8, 9, 10))
    configs = [
        RunConfig(problem=p, aggregator=AggregatorSpec("mean"), attack=AttackStrategy("sign_flip", scale=2.0), T=30,
                  H=2, schedule=Schedule("constant", gamma=0.02), w0=np.array([1.0 + k]), seed=k)
        for k in range(4)
    ]
    for config, record in zip(configs, run_batch(configs)):
        assert_same_record(record, run(config))
        assert_same_record(record, oracle_run(config))


def overflowing_upload_config(**changes):
    """A sign flip that overflows to inf in round 1: the deltas of that round
    are not finite, so the run stops as on a deviation that is not finite."""
    config = RunConfig(
        problem=random_quadratic_problem(9, 3, 2, 0.0, 1e-180, seed=0), aggregator=AggregatorSpec("cwtm", f_hat=1),
        attack=AttackStrategy("sign_flip", scale=1e250), T=60, schedule=Schedule("constant", gamma=0.05),
        w0=np.array([1e-180, -2e-180]), seed=0,
    )
    return dataclasses.replace(config, **changes)


def test_an_overflowing_upload_diverges_its_run_alone():
    flipped = overflowing_upload_config()
    others = [
        overflowing_upload_config(problem=random_quadratic_problem(9, f, 2, 1.0, 2.0, seed=f), w0=np.ones(2), seed=f,
                                  attack=attack)
        for f, attack in ((1, AttackStrategy("gaussian_noise", variance=1.0)), (3, AttackStrategy("sign_flip", scale=2.0)))
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        alone = run(flipped)
        records = run_batch([others[0], flipped, others[1]])
    # round 1's deltas are not finite: rows 0 and 1, one deviation
    assert (alone.rows, len(alone.agg_deviation), alone.diverged, alone.diverged_round) == (2, 1, True, 2)
    assert_same_record(records[1], alone)
    for config, record in zip(others, (records[0], records[2])):
        assert not record.diverged
        assert_same_record(record, run(config))
    # an escalating outlier whose factor (1 - gamma)^H overflows in round 0;
    # the honest steps overflow as well, without a warning
    escalating = dataclasses.replace(others[0], attack=AttackStrategy("escalating_outlier"), H=2,
                                     schedule=Schedule("constant", gamma=1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the stepsize precondition, broken on purpose
        warnings.simplefilter("error", RuntimeWarning)
        record = run(escalating)
    assert (record.rows, len(record.agg_deviation), record.diverged_round) == (1, 0, 1)


def test_finite_deltas_whose_sum_overflows_aggregate_every_run(monkeypatch):
    # three Byzantine clients send vectors near the float maximum, so the
    # round's one sum of all deltas overflows although every delta is finite;
    # CWTM with f_hat = f trims them, and every run goes on, aggregated whole
    p = random_quadratic_problem(9, 3, 2, 1.0, 2.0, seed=3)
    configs = [
        RunConfig(problem=p, aggregator=AggregatorSpec("cwtm", f_hat=3), T=6, H=2,
                  attack=AttackStrategy("fixed_vector", vector=vector), schedule=Schedule("constant", gamma=0.05),
                  w0=np.array([1.0 + k, -2.0]), seed=k)
        for k, vector in enumerate(((1.5e308, 1e308), (1.7e308, -1e3), (1e308, 1.2e308)))
    ]
    calls = spy_on_the_engine(monkeypatch)
    records = run_batch(configs)
    monkeypatch.undo()
    assert [args[1].shape[0] for args in calls["aggregate"]] == [3] * 6
    with np.errstate(over="ignore"):
        assert all(np.isinf(np.add.reduce(args[1], axis=None)) for args in calls["aggregate"])
    for config, record in zip(configs, records):
        assert not record.diverged
        assert_same_record(record, run(config))
        assert_same_record(record, oracle_run(config))


def test_an_infinite_upload_leaves_only_its_runs_aggregate_nan():
    # one sign flip's upload overflows to -inf in round 0: the sum of the
    # deltas is not finite, each run's deltas are then tested, and only that
    # run's aggregate (and so its next iterate and deviation) is NaN
    p = random_quadratic_problem(9, 2, 2, 1.0, 2.0, seed=5)
    configs = [
        RunConfig(problem=p, aggregator=AggregatorSpec("krum", f_hat=2, pre_nnm=True), T=4, H=1,
                  attack=AttackStrategy("sign_flip", scale=scale), schedule=Schedule("constant", gamma=0.05),
                  w0=np.array([40.0 + k, -2.0]), seed=k)
        for k, scale in enumerate((2.0, 1e308, 0.5))
    ]
    w = np.array([config.w0 for config in configs])
    with np.errstate(over="ignore", invalid="ignore"):  # as _run_batch calls run_round
        got, deviations = engine.run_round(engine._Batch.of(configs), w, 0)
        alone = [engine.run_round(engine._Batch.of([config]), w[k : k + 1], 0) for k, config in enumerate(configs)]
    assert np.isnan(got[1]).all() and math.isnan(deviations[1]) and math.isnan(alone[1][1][0])
    for k in (0, 2):
        assert np.isfinite(got[k]).all() and got[k].tobytes() == alone[k][0][0].tobytes()
        assert deviations[k] == alone[k][1][0]


def test_three_exits_in_one_round_keep_the_rest_in_step(monkeypatch):
    # at the top of round 2 one run completes, one cannot record row 2 (its
    # stepsize sends w_2 near 1e200, where the metrics overflow) and one saw
    # round 1's upload overflow; the fourth run goes on with its own noise
    noise = AttackStrategy("gaussian_noise", variance=1.0)
    p = random_quadratic_problem(9, 2, 2, 1.0, 2.0, seed=5)
    configs = [
        overflowing_upload_config(problem=p, attack=noise, T=2, w0=np.ones(2), seed=3),
        overflowing_upload_config(problem=p, attack=AttackStrategy("honest_mimic"), w0=np.ones(2),
                                  schedule=Schedule("constant", gamma=1e100 / p.L)),
        overflowing_upload_config(),
        overflowing_upload_config(problem=p, attack=noise, T=5, w0=np.ones(2), seed=8),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the stepsize precondition, broken on purpose
        records = run_batch(configs)
        # the public aggregate refuses the overflowed deltas that the engine
        # leaves out; through the engine's own, the oracle's deviation of
        # that round is not finite, and the oracle stops there as well
        monkeypatch.setitem(globals(), "aggregate", engine.aggregate)
        with np.errstate(all="ignore"):
            for config, record in zip(configs, records):
                assert_same_record(record, oracle_run(config))
    exits = [(r.rows, len(r.agg_deviation), r.diverged_round) for r in records]
    assert exits == [(3, 2, None), (2, 2, 2), (2, 1, 2), (6, 5, None)]


def test_run_batch_rejects_runs_that_cannot_share_a_stack():
    config = krum_nnm_config(0, AttackStrategy("honest_mimic"), 4)
    assert run_batch([]) == []
    for other in (dataclasses.replace(config, H=2), dataclasses.replace(config, aggregator=AggregatorSpec("krum", f_hat=2)),
                  dataclasses.replace(config, problem=random_quadratic_problem(10, 2, 4, seed=0), w0=None)):
        with pytest.raises(ParameterError, match="share n, d, H and the aggregator spec"):
            run_batch([config, other])


def test_run_batch_keeps_the_tracer_contract(monkeypatch):
    # one run_round and one aggregate call per lockstep round, with t as
    # run_round's third argument; one byzantine_upload call per group of
    # runs (same honest set, same attack kind) per round, on the group's rows
    calls = spy_on_the_engine(monkeypatch)
    flips = [krum_nnm_config(i, AttackStrategy("sign_flip", scale=1.0), T) for i, T in enumerate((8, 3, 5))]
    mimic = krum_nnm_config(3, AttackStrategy("honest_mimic"), 4)
    run_batch(flips[:2] + [mimic, flips[2]])
    assert [args[2] for args in calls["run_round"]] == list(range(8))
    assert [args[1].shape[0] for args in calls["aggregate"]] == [4, 4, 4, 3, 2, 1, 1, 1]
    uploads = [(args[5], args[0][0].kind, args[2].shape[0]) for args in calls["byzantine_upload"]]
    mimics = [(t, "honest_mimic", 1) for t in range(4)]
    flipped = [(t, "sign_flip", count) for t, count in enumerate((3, 3, 3, 2, 2, 1, 1, 1))]
    assert sorted(uploads) == sorted(mimics + flipped)


def test_run_batch_holds_gaussian_noise_one_chunk_at_a_time(monkeypatch):
    # f = 3 gives chunks of 85 rounds, so T = 300 spans four; the overshooting
    # run diverges inside the second, and the seed past 2**32 seeds per row
    p = random_quadratic_problem(9, 3, 2, 1.0, 2.0, seed=3)
    noise = AttackStrategy("gaussian_noise", variance=1.0)
    base = RunConfig(
        problem=p, aggregator=AggregatorSpec("cwtm", f_hat=3), attack=noise, T=300, H=2,
        schedule=Schedule("constant", gamma=0.05), w0=np.array([1.0, -2.0]), seed=4,
    )
    configs = [
        base,
        dataclasses.replace(base, attack=AttackStrategy("sign_flip", scale=2.0), seed=5),
        dataclasses.replace(base, schedule=Schedule("constant", gamma=5.0 / p.L), seed=6),
        dataclasses.replace(base, problem=random_quadratic_problem(9, 1, 2, 1.0, 2.0, seed=4), T=270, seed=2**32 + 1),
        dataclasses.replace(base, attack=AttackStrategy("honest_mimic"), T=7),
        dataclasses.replace(base, T=1, seed=7),
    ]
    blocks = []

    def recording(seed, clients, t0, t1, d):
        blocks.append((seed, t0, t1))
        assert (t1 - t0) * len(clients) <= 256  # one chunk, whatever T
        return noise_rows(seed, clients, t0, t1, d)

    monkeypatch.setattr(attacks, "noise_rows", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        records = run_batch(configs)
        monkeypatch.undo()  # the oracle draws each round through the same name
        for config, record in zip(configs, records):
            assert_same_record(record, oracle_run(config))
    assert records[2].diverged and 85 < records[2].rows < 170
    assert not any(record.diverged for k, record in enumerate(records) if k != 2)
    # each gaussian run's chunks tile the rounds it ran, in order
    for config, record in zip(configs, records):
        if config.attack.kind == "gaussian_noise":
            spans = [(t0, t1) for seed, t0, t1 in blocks if seed == config.seed]
            assert spans[0][0] == 0 and all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            assert spans[-1][0] < len(record.agg_deviation) <= spans[-1][1]


# ---------------------------------------------------------------------------
# round oracle: the batch loop that sliced each group's runs and rebuilt its
# attack constants every round, kept verbatim but for the names it calls

class OracleBatch:
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
    def of(cls, configs: list) -> "OracleBatch":
        steps = [stepsize_at(c.schedule, 0, max(c.T, 1), c.problem.L, c.H, c.kappa) for c in configs]
        return cls(configs, [noise_stream(c.attack, c.problem, c.seed, c.T) for c in configs],
                   np.array([c.problem.centers for c in configs]),
                   np.array([c.problem.slope for c in configs])[:, None, :], np.array(steps)[:, None, None])

    def keep(self, stay: list) -> "OracleBatch":
        return OracleBatch([self.configs[k] for k in stay], [self.streams[k] for k in stay],
                           self.centers[stay], self.slopes[stay], self.steps[stay])

    def at(self, t: int) -> "OracleBatch":
        for k, c in self.varying:
            self.steps[k] = stepsize_at(c.schedule, t, c.T, c.problem.L, c.H, c.kappa)
        return self


def oracle_run_round(batch, w, t):
    uploads = local_update(w[:, None, :], batch.centers, batch.slopes, batch.steps, batch.configs[0].H)
    means = np.empty(w.shape)
    for runs, problem, honest, byzantine, noise in batch.groups:
        clouds = uploads[runs]
        honest_uploads = _clients(clouds, honest)
        np.divide(np.add.reduce(honest_uploads, axis=1), honest_uploads.shape[1], out=means[runs])  # numpy's mean
        rows = _clients(clouds, byzantine) if noise is None else np.array(next(noise))
        clouds[:, byzantine] = oracle_group_upload(batch.attacks[runs], problem, w[runs], batch.steps[runs, 0, 0],
                                                   batch.configs[0].H, t, batch.seeds[runs], means[runs], rows)
    deltas = np.subtract(uploads, w[:, None, :], out=uploads)
    if np.logical_and.reduce(np.isfinite(deltas), axis=None):
        aggregated = aggregators._aggregate(batch.configs[0].aggregator, deltas)
    else:
        finite = np.isfinite(deltas).all(axis=(1, 2))
        aggregated = np.full(w.shape, np.nan)
        if finite.any():
            aggregated[finite] = aggregators._aggregate(batch.configs[0].aggregator, deltas[finite])
    return w + aggregated, _deviations(aggregated, means, w)


def oracle_run_batch(configs):
    configs = list(configs)
    digests = []
    for config in configs:
        _preflight(config)
        digests.append(config_digest(config))
    safe = [_overflow_free_scale(config.problem) for config in configs]
    iterates = [np.empty((config.T + 1, config.problem.d)) for config in configs]
    agg_deviation = [np.empty(config.T) for config in configs]
    rows, aggregations = [0] * len(configs), [0] * len(configs)  # set as each run leaves
    active = sorted(range(len(configs)), key=lambda r: _group_key(configs[r]))  # so each group is one slice
    batch = OracleBatch.of([configs[r] for r in active])
    w = np.array([configs[r].w0 for r in active])
    deviations = [0.0] * len(configs)  # of the last round, per active run
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
            w, deviations = oracle_run_round(batch.at(t), w, t)
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


def assert_equal_to_the_round_oracle(configs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        records, want = run_batch(configs), oracle_run_batch(configs)
    assert len(records) == len(want) == len(configs)
    for record, oracle in zip(records, want):
        assert_same_record(record, oracle)
    return records


@pytest.mark.parametrize("attack", ORACLE_ATTACKS, ids=lambda a: a.kind)
@pytest.mark.parametrize("spec", [
    AggregatorSpec(kind, f_hat=2, pre_nnm=nnm)
    for kind, nnm in (("mean", False), ("cwtm", False), ("cwmed", False), ("gm", False), ("gm", True), ("krum", False),
                      ("krum", True))
], ids=lambda s: s.name)
def test_records_equal_the_round_oracle(spec, attack):
    # R = 1 under a constant and a step_wise schedule, then R = 3 on two
    # honest sets, one of them gathered, with two groups whose runs leave at
    # different rounds
    problems = [random_quadratic_problem(9, 1, 2, 1.0, 2.0, seed=4),
                random_quadratic_problem(9, 3, 2, 1.0, 2.0, seed=6, honest_set=(0, 1, 3, 4, 6, 8))]
    base = RunConfig(problem=problems[0], aggregator=spec, attack=attack, T=12, H=2,
                     schedule=Schedule("constant", gamma=0.05), w0=np.array([1.0, -2.0]), seed=4)
    step_wise = dataclasses.replace(base, schedule=Schedule("step_wise", gamma=0.1), T=15, seed=5)
    other = dataclasses.replace(base, problem=problems[1], attack=dataclasses.replace(attack, scale=0.5, variance=2.0),
                                T=9, w0=np.array([-0.5, 3.0]), seed=6)
    for configs in ([base], [step_wise], [base, other, step_wise]):
        assert_equal_to_the_round_oracle(configs)


def test_a_run_that_leaves_recuts_the_stacked_constants():
    # an escalating outlier that CWTM with f_hat = 1 < f = 3 keeps averaging
    # in diverges in mid-batch; the runs of each other group leave at
    # different rounds, so every cut must keep each run's own constant
    escalating = RunConfig(
        problem=random_quadratic_problem(9, 3, 2, 1.0, 2.0, seed=3), aggregator=AggregatorSpec("cwtm", f_hat=1),
        attack=AttackStrategy("escalating_outlier"), T=60, H=2, schedule=Schedule("constant", gamma=0.05),
        w0=np.array([1e140, -2e140]), seed=1)
    p = random_quadratic_problem(9, 1, 2, 1.0, 2.0, seed=4)
    attacks_and_T = [(AttackStrategy("sign_flip", scale=2.0), 5), (AttackStrategy("sign_flip", scale=0.5), 40),
                     (AttackStrategy("gaussian_noise", variance=4.0), 7), (AttackStrategy("gaussian_noise", variance=1.0), 40),
                     (AttackStrategy("fixed_vector", vector=(3.0, -1.0)), 3), (AttackStrategy("fixed_vector", vector=(0.5, 2.0)), 40)]
    configs = [escalating] + [dataclasses.replace(escalating, problem=p, attack=attack, T=T, w0=np.array([1.0, -2.0]), seed=k)
                              for k, (attack, T) in enumerate(attacks_and_T)]
    records = assert_equal_to_the_round_oracle(configs)
    assert records[0].diverged and 7 < records[0].rows < 40
    assert not any(record.diverged for record in records[1:])


def test_stepsize_warning_names_the_callers_line():
    config = RunConfig(
        problem=homogeneous_quadratic_problem(4), aggregator=AggregatorSpec("mean"),
        attack=AttackStrategy("honest_mimic"), T=2, H=5, schedule=Schedule("constant", gamma=1.9),
        w0=np.array([1.0]), seed=0,
    )
    for call in (lambda: run(config), lambda: run_batch([config])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]
        assert caught[0].lineno == call.__code__.co_firstlineno


def test_config_digest_distinguishes_and_is_stable():
    p = homogeneous_quadratic_problem(4)
    base = dict(
        problem=p, aggregator=AggregatorSpec("mean"), attack=AttackStrategy("honest_mimic"),
        T=5, H=1, schedule=Schedule("constant", gamma=0.05), w0=np.array([1.0]),
    )
    c1 = RunConfig(seed=0, **base)
    c2 = RunConfig(seed=0, **base)
    c3 = RunConfig(seed=1, **base)
    assert config_digest(c1) == config_digest(c2)
    assert config_digest(c1) != config_digest(c3)
    desc = run_config_descriptor(c1)
    assert desc["problem"]["kind"] == "homogeneous_quadratic"
    # a factory's descriptor omits the honest set: the digest adds one that is not the first n - f
    default = random_quadratic_problem(10, 2, 5, seed=0)
    assert random_quadratic_problem(10, 2, 5, seed=0, honest_set=range(8)).honest_set == default.honest_set
    digests = {
        config_digest(RunConfig(problem=problem, aggregator=AggregatorSpec("cwtm", f_hat=3),
                                attack=AttackStrategy("sign_flip"), T=20))
        for problem in (default, random_quadratic_problem(10, 2, 5, seed=0, honest_set=range(8)),
                        random_quadratic_problem(10, 2, 5, seed=0, honest_set=range(2, 10)),
                        random_quadratic_problem(10, 2, 5, seed=0, honest_set=np.arange(2, 10)))
    }
    assert len(digests) == 2 and "5b3bfa0ba9d23b09" in digests


def test_each_run_has_one_digest_whatever_the_spelling_of_its_numbers():
    # reals are kept as Python floats and counts as Python ints where they
    # enter, so an int for a real or a numpy integer for a count moves no digest
    def digest(problem, spec=AggregatorSpec("cwtm", f_hat=3), attack=AttackStrategy("honest_mimic"), **fields):
        return config_digest(RunConfig(problem=problem, aggregator=spec, attack=attack, **{"T": 5, **fields}))

    two_group = two_group_quadratic_problem(10, 2, 3, G=1.0)
    random = random_quadratic_problem(10, 2, 2, G_target=1.0, radius=2.0, seed=3)
    assert digest(two_group) == "1eff261a609610eb"  # the float spelling's digest, as before
    i64 = np.int64
    pairs = [
        (two_group, two_group_quadratic_problem(10, 2, 3, G=1)),
        (two_group, two_group_quadratic_problem(i64(10), i64(2), i64(3), G=np.float32(1.0))),
        (random, random_quadratic_problem(i64(10), i64(2), i64(2), G_target=1, radius=2, seed=i64(3))),
        (homogeneous_quadratic_problem(10, 2), homogeneous_quadratic_problem(i64(10), i64(2))),
    ]
    for problem, respelled in pairs:
        assert digest(respelled) == digest(problem)
    for problem, fields, respelled in [
        (random, dict(spec=AggregatorSpec("gm", f_hat=3, gm_tolerance=1.0, gm_max_iters=50)),
         dict(spec=AggregatorSpec("gm", f_hat=i64(3), gm_tolerance=1, gm_max_iters=i64(50)))),
        (random, dict(attack=AttackStrategy("fixed_vector", vector=(1.0, -2.0), variance=5.0, scale=2.0)),
         dict(attack=AttackStrategy("fixed_vector", vector=[1, np.int8(-2)], variance=5, scale=i64(2)))),
        (two_group, dict(attack=AttackStrategy("fixed_vector", vector=1.0)),
         dict(attack=AttackStrategy("fixed_vector", vector=1))),
        (random, dict(T=5, H=2, seed=7, kappa=0.0, schedule=Schedule("step_wise", gamma=1.0, beta=0.0)),
         dict(T=i64(5), H=i64(2), seed=i64(7), kappa=0, schedule=Schedule("step_wise", gamma=1, beta=0))),
    ]:
        assert digest(problem, **respelled) == digest(problem, **fields)
    config = RunConfig(problem=random, aggregator=AggregatorSpec("mean"), attack=AttackStrategy("honest_mimic"),
                       T=i64(5), H=i64(2), seed=i64(7))
    assert [type(getattr(config, key)) for key in ("T", "H", "seed", "kappa")] == [int, int, int, float]


def test_preflight_warns_on_aggressive_stepsize():
    p = homogeneous_quadratic_problem(4)
    config = RunConfig(
        problem=p, aggregator=AggregatorSpec("mean"), attack=AttackStrategy("honest_mimic"),
        T=2, H=5, schedule=Schedule("constant", gamma=1.9), w0=np.array([1.0]), seed=0,
    )
    with pytest.warns(UserWarning):
        run(config)


def test_run_config_validation():
    p = homogeneous_quadratic_problem(4)
    with pytest.raises(ParameterError):
        RunConfig(problem=p, aggregator=AggregatorSpec("cwtm", f_hat=2),
                  attack=AttackStrategy("honest_mimic"), T=1)
    with pytest.raises(ParameterError):
        RunConfig(problem=p, aggregator=AggregatorSpec("mean"),
                  attack=AttackStrategy("honest_mimic"), T=1, w0=np.zeros(3))
    with pytest.raises(ParameterError):
        RunConfig(problem=p, aggregator=AggregatorSpec("mean"),
                  attack=AttackStrategy("honest_mimic"), T=-1)
    with pytest.raises(ParameterError, match="kappa"):
        RunConfig(problem=p, aggregator=AggregatorSpec("mean"),
                  attack=AttackStrategy("honest_mimic"), T=1, kappa=1e307)
    with pytest.raises(ParameterError, match="kappa = nan violates"):
        RunConfig(problem=p, aggregator=AggregatorSpec("mean"),
                  attack=AttackStrategy("honest_mimic"), T=1, kappa=float("nan"))
    # T, H and seed are integers, and a bool is not one
    for bad in (dict(T=2.5), dict(H=1.5), dict(T=True), dict(seed=2.5), dict(seed=True), dict(seed=np.float64(3))):
        key, value = next(iter(bad.items()))
        with pytest.raises(ParameterError) as excinfo:
            RunConfig(problem=p, aggregator=AggregatorSpec("mean"), attack=AttackStrategy("honest_mimic"), **bad)
        assert str(excinfo.value) == f"{key} must be an integer, got {value!r}"
    with pytest.raises(ParameterError) as excinfo:
        RunConfig(problem=p, aggregator=AggregatorSpec("mean"), attack=AttackStrategy("honest_mimic"), seed=-1)
    assert str(excinfo.value) == "seed = -1 violates 0 <= seed"  # as the CLI words it
    # kappa is a real number, and neither a string nor a bool is one
    for value in ("0.5", True):
        with pytest.raises(ParameterError) as excinfo:
            RunConfig(problem=p, aggregator=AggregatorSpec("mean"), attack=AttackStrategy("honest_mimic"), kappa=value)
        assert str(excinfo.value) == f"kappa must be a real number, got {value!r}"
    for value in (2, np.float64(0.5)):
        assert RunConfig(problem=p, aggregator=AggregatorSpec("mean"),
                         attack=AttackStrategy("honest_mimic"), kappa=value).kappa == value


def test_undescribable_config_fails_before_the_first_round(monkeypatch):
    # the digest is taken before any round runs, so a problem descriptor it
    # cannot serialize wastes no rounds
    monkeypatch.setattr(engine, "run_round", lambda *args: pytest.fail("a round ran"))
    problem = Problem(f=0, honest_set=None, curvature=[0.5], centers=np.zeros((4, 1)), G2=0.0, l_star=0.0,
                      descriptor={"kind": "tagged", "tags": {1, 2}})
    config = RunConfig(problem=problem, aggregator=AggregatorSpec("cwtm", f_hat=1),
                       attack=AttackStrategy("honest_mimic"), T=3)
    with pytest.raises(TypeError, match="JSON serializable"):
        run(config)


def test_fixed_vector_dimension_checked():
    p = random_quadratic_problem(7, 2, 3, 1.5, 2.0, seed=11)

    def config(vector, problem=p):
        return RunConfig(problem=problem, aggregator=AggregatorSpec("mean"),
                         attack=AttackStrategy("fixed_vector", vector=vector), T=1)

    for bad in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0), 1.0):
        with pytest.raises(ParameterError, match="dimension 3"):
            config(bad)
    assert config((1.0, 2.0, 3.0)).attack.vector == (1.0, 2.0, 3.0)
    # a scalar is a 1-vector, as for w0
    assert run(config(2.0, homogeneous_quadratic_problem(3, f=1))).rows == 2


def test_engine_names_no_attack_kind():
    # every rule of an attack kind lives in attacks; the engine only calls it
    tree = ast.parse(inspect.getsource(engine))
    literals = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not literals & set(ATTACK_KINDS)


def test_descriptor_has_one_entry_per_field():
    config = RunConfig(
        problem=homogeneous_quadratic_problem(4), aggregator=AggregatorSpec("mean"),
        attack=AttackStrategy("honest_mimic"), T=1,
    )
    desc = run_config_descriptor(config)

    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert set(desc) == names(RunConfig)
    assert set(desc["aggregator"]) == names(AggregatorSpec)
    assert set(desc["attack"]) == names(AttackStrategy)
    assert set(desc["schedule"]) == names(Schedule)


def test_config_digests_are_pinned():
    # digests recorded from the earlier hand-written descriptor, and again
    # when AggregatorSpec lost its plain-distance Krum option; a change to how the
    # descriptor is built must not move them
    p = random_quadratic_problem(7, 2, 3, 1.5, 2.0, seed=11)
    config = RunConfig(
        problem=p,
        aggregator=AggregatorSpec("gm", f_hat=2, pre_nnm=True, gm_tolerance=1e-7, gm_max_iters=50),
        attack=AttackStrategy("fixed_vector", vector=(1.0, -2.0, 0.5)), T=9, H=3,
        schedule=Schedule("pl_power", beta=0.25), w0=np.array([1.0, 2.0, 3.0]), seed=5, kappa=0.5,
    )
    assert config_digest(config) == "39e24ce0dd21ffdb"

    centers = [[float(k), -float(k)] for k in range(3)]
    custom = Problem(f=1, honest_set=(0, 1), curvature=[1.0, 1.0], centers=centers, G2=2.0, l_star=0.5)
    config = RunConfig(
        problem=custom, aggregator=AggregatorSpec("krum", f_hat=1),
        attack=AttackStrategy("sign_flip", scale=3.0), T=4,
    )
    assert run_config_descriptor(config)["problem"]["kind"] == "custom"
    assert config_digest(config) == "f20e93031830347a"
