"""Simulation engine: local updates, stepsize schedules, round mechanics,
divergence handling, and determinism."""

import dataclasses
import warnings

import numpy as np
import pytest

from fedrobust import (
    AggregatorSpec,
    AttackStrategy,
    ParameterError,
    Problem,
    RunConfig,
    Schedule,
    byzantine_upload,
    descend,
    homogeneous_quadratic_problem,
    honest_objective,
    random_quadratic_problem,
    run,
    stepsize_at,
    two_group_quadratic_problem,
)
from fedrobust import engine
from fedrobust.engine import config_digest, run_config_descriptor


def quiet_run(config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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


def test_divergence_flag_and_partial_record():
    p = two_group_quadratic_problem(10, 2, 3, 1.0)
    c = p.L / 2
    config = RunConfig(
        problem=p, aggregator=AggregatorSpec("cwtm", f_hat=3), attack=AttackStrategy("honest_mimic"),
        T=2000, H=5, schedule=Schedule("constant", gamma=1.1 / c), w0=np.array([1.0]), seed=0,
    )
    record = quiet_run(config)
    assert record.diverged
    assert record.diverged_round is not None
    assert record.rows == record.diverged_round
    assert np.all(np.isfinite(record.grad_metric))
    assert np.all(np.isfinite(record.loss_gap))


@pytest.mark.parametrize("agg,attack,w0,diverged_round", [
    # |w0| = 1e9 puts the runaway threshold at inf, so the metric overflows first
    ("cwtm", AttackStrategy("escalating_outlier"), 1e9, 451),
    # the aggregation deviation overflows in the first round
    ("mean", AttackStrategy("fixed_vector", vector=(1e200,)), 1.0, 1),
])
def test_runaway_overflow_is_silent_divergence(agg, attack, w0, diverged_round):
    config = RunConfig(
        problem=homogeneous_quadratic_problem(5, 2), aggregator=AggregatorSpec(agg, f_hat=1), attack=attack,
        T=3000, H=1, schedule=Schedule("constant", gamma=0.1), w0=np.array([w0]), seed=0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        record = run(config)
    assert record.diverged
    assert record.diverged_round == diverged_round


def test_attack_layer_called_once_per_round(monkeypatch):
    rounds = []

    def counting(strategy, problem, w, gamma, H, t, seed, honest_uploads):
        rounds.append(t)
        return byzantine_upload(strategy, problem, w, gamma, H, t, seed, honest_uploads)

    monkeypatch.setattr(engine, "byzantine_upload", counting)
    config = RunConfig(
        problem=random_quadratic_problem(9, 3, 2, 1.0, 2.0, seed=0), aggregator=AggregatorSpec("cwtm", f_hat=3),
        attack=AttackStrategy("gaussian_noise", variance=1.0), T=6, H=2,
        schedule=Schedule("constant", gamma=0.01), w0=np.ones(2), seed=4,
    )
    run(config)
    assert rounds == list(range(6))


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


def test_fixed_vector_dimension_checked():
    p = random_quadratic_problem(7, 2, 3, 1.5, 2.0, 11)

    def config(vector, problem=p):
        return RunConfig(problem=problem, aggregator=AggregatorSpec("mean"),
                         attack=AttackStrategy("fixed_vector", vector=vector), T=1)

    for bad in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0), 1.0):
        with pytest.raises(ParameterError, match="dimension 3"):
            config(bad)
    assert config((1.0, 2.0, 3.0)).attack.vector == (1.0, 2.0, 3.0)
    # a scalar is a 1-vector, as for w0
    assert run(config(2.0, homogeneous_quadratic_problem(3, f=1))).rows == 2


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
    # digests recorded from the earlier hand-written descriptor; a change to
    # how the descriptor is built must not move them
    p = random_quadratic_problem(7, 2, 3, 1.5, 2.0, 11)
    config = RunConfig(
        problem=p,
        aggregator=AggregatorSpec("gm", f_hat=2, pre_nnm=True, gm_tolerance=1e-7, gm_max_iters=50),
        attack=AttackStrategy("fixed_vector", vector=(1.0, -2.0, 0.5)), T=9, H=3,
        schedule=Schedule("pl_power", beta=0.25), w0=np.array([1.0, 2.0, 3.0]), seed=5, kappa=0.5,
    )
    assert config_digest(config) == "12c09f52485713f1"

    centers = [[float(k), -float(k)] for k in range(3)]
    custom = Problem(f=1, honest_set=(0, 1), curvature=[1.0, 1.0], centers=centers, L=2.0, mu=2.0, G2=2.0, l_star=0.5)
    config = RunConfig(
        problem=custom, aggregator=AggregatorSpec("krum", f_hat=1, krum_squared=False),
        attack=AttackStrategy("sign_flip", scale=3.0), T=4,
    )
    assert run_config_descriptor(config)["problem"]["kind"] == "custom"
    assert config_digest(config) == "3e32e89ff1462ef8"
