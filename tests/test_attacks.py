"""Byzantine upload strategies: formulas, determinism, and the honest-mimic
identity with the client pipeline."""

import numpy as np
import pytest

from fedrobust import (
    AttackContext,
    AttackStrategy,
    ParameterError,
    byzantine_upload,
    descend,
    homogeneous_quadratic_problem,
    two_group_quadratic_problem,
)
from fedrobust.attacks import escalating_outlier, gaussian_noise, honest_mimic, sign_flip


def make_ctx(t=0, w=1.0, gamma=0.1, H=1, n=5, f=2, f_hat=1, honest=None, seed=0, client=0):
    w_t = np.atleast_1d(np.asarray(w, dtype=float))
    if honest is None:
        honest = np.tile(w_t, (n - f, 1))
    return AttackContext(
        t=t, w_t=w_t, gamma=gamma, H=H, n=n, f=f, f_hat=f_hat,
        honest_uploads=np.asarray(honest, dtype=float),
        rng=np.random.default_rng([seed, client, t]),
    )


def test_honest_mimic_matches_local_descent():
    q = homogeneous_quadratic_problem(5)
    ctx = make_ctx(w=1.0, gamma=0.1, H=2)
    assert honest_mimic(ctx, q, 0)[0] == pytest.approx(0.81, abs=1e-15)

    ctx0 = make_ctx(w=1.7, gamma=0.0, H=3)
    assert honest_mimic(ctx0, q, 0)[0] == 1.7

    p = two_group_quadratic_problem(10, 2, 3, 1.0)
    c = p.L / 2
    for gamma, H in ((0.05, 1), (0.01, 4)):
        ctx = make_ctx(w=1.0, gamma=gamma, H=H)
        centered_client = p.n - 1  # holds the unshifted quadratic
        want = (1 - 2 * c * gamma) ** H
        assert honest_mimic(ctx, p, centered_client)[0] == pytest.approx(want, rel=1e-12)


def test_honest_mimic_bitwise_identical_to_engine_pipeline():
    p = two_group_quadratic_problem(10, 2, 3, 1.0)
    # the engine descends all honest clients at once
    honest_rows = descend(p, p.honest_set, np.array([0.37]), 0.02, 7)
    for k in (0, 5):
        ctx = make_ctx(w=0.37, gamma=0.02, H=7)
        via_attack = honest_mimic(ctx, p, k)
        via_engine = honest_rows[p.honest_set.index(k)]
        assert np.array_equal(via_attack, via_engine)


def test_escalating_outlier_formula():
    assert escalating_outlier(make_ctx(t=5, w=0.0))[0] == 5.0
    assert escalating_outlier(make_ctx(t=0, w=1.0, gamma=0.1, H=1, n=5))[0] == pytest.approx(4.5)
    assert escalating_outlier(make_ctx(t=7, w=-2.0, gamma=0.5, H=1, n=4))[0] == pytest.approx(11.0)


def test_escalating_outlier_monotone_in_round():
    values = [escalating_outlier(make_ctx(t=t, w=3.0))[0] for t in range(10)]
    diffs = np.diff(values)
    assert np.all(diffs == 1.0)  # slope one in t for fixed w_t


def test_escalating_outlier_coordinatewise():
    ctx = make_ctx(t=2, w=np.array([1.0, -2.0]), gamma=0.5, H=1, n=4)
    out = escalating_outlier(ctx)
    assert out == pytest.approx([4 * 0.5 + 2, 4 * 1.0 + 2])


def test_gaussian_noise_statistics_and_determinism():
    ctx = make_ctx()
    assert np.array_equal(gaussian_noise(ctx, 0.0, 4), np.zeros(4))

    draws = gaussian_noise(make_ctx(seed=123), 5.0, 10 ** 5)
    assert abs(draws.mean()) < 0.05
    assert abs(draws.var() - 5.0) < 0.15

    again = gaussian_noise(make_ctx(seed=123), 5.0, 10 ** 5)
    assert np.array_equal(draws, again)

    with pytest.raises(ParameterError):
        gaussian_noise(ctx, -1.0, 3)
    with pytest.raises(ParameterError):
        AttackStrategy("gaussian_noise", variance=-2.0)


def test_sign_flip_formulas():
    w = np.array([1.0, 2.0])
    honest = np.tile(w + 0.5, (3, 1))  # every honest delta is 0.5
    ctx = make_ctx(w=w, honest=honest, n=5, f=2)
    assert np.array_equal(sign_flip(ctx, 0.0), w)
    assert sign_flip(ctx, 1.0) == pytest.approx(w - 0.5)
    one = sign_flip(ctx, 1.0) - w
    two = sign_flip(ctx, 2.0) - w
    assert two == pytest.approx(2 * one)


def test_dispatch_and_fixed_vector():
    ctx = make_ctx(w=np.zeros(2))
    out = byzantine_upload(AttackStrategy("fixed_vector", vector=(3.0, -1.0)), ctx, None, 0)
    assert np.array_equal(out, [3.0, -1.0])
    with pytest.raises(ParameterError):
        AttackStrategy("fixed_vector")
    with pytest.raises(ParameterError):
        AttackStrategy("unknown_attack")


def test_strategies_deterministic_given_seed_and_context():
    p = homogeneous_quadratic_problem(3)
    for strategy in (
        AttackStrategy("honest_mimic"),
        AttackStrategy("escalating_outlier"),
        AttackStrategy("gaussian_noise", variance=2.0),
        AttackStrategy("sign_flip", scale=1.5),
    ):
        a = byzantine_upload(strategy, make_ctx(t=3, w=0.4, seed=9, client=2), p, 0)
        b = byzantine_upload(strategy, make_ctx(t=3, w=0.4, seed=9, client=2), p, 0)
        assert np.array_equal(a, b)
