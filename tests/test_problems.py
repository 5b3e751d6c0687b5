"""Loss families: closed-form constants against grid/finite-difference
oracles, the shared-curvature identities, and the array functions against
a client-by-client oracle."""

import functools
import re
import warnings

import numpy as np
import pytest

from fedrobust import (
    AggregatorSpec,
    AttackStrategy,
    ConstructionError,
    ParameterError,
    Problem,
    RunConfig,
    descend,
    heterogeneity_at,
    homogeneous_quadratic_problem,
    honest_objective,
    random_quadratic_problem,
    two_group_quadratic_problem,
)
from fedrobust.engine import config_digest
from fedrobust.problems import G2_RTOL


# ---------------------------------------------------------------------------
# oracles

def fd_gradient(value_fn, w, h_scale=1e-5):
    """Central finite differences with step 1e-5 * (1 + ||w||)."""
    w = np.asarray(w, dtype=float)
    h = h_scale * (1.0 + np.linalg.norm(w))
    grad = np.zeros_like(w)
    for j in range(w.shape[0]):
        up, down = w.copy(), w.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (value_fn(up) - value_fn(down)) / (2 * h)
    return grad


def grid_minimum_1d(problem, lo, hi, steps=400001):
    """Locate the honest-objective minimum by brute force on a grid,
    recomputing values directly from the raw (curvature, center) pairs."""
    grid = np.linspace(lo, hi, steps)
    total = np.zeros_like(grid)
    for k in problem.honest_set:
        a = problem.curvature[0]
        b = problem.centers[k, 0]
        total += a * (grid - b) ** 2
    values = total / len(problem.honest_set)
    i = int(np.argmin(values))
    return grid[i], values[i]


# Client-by-client forms of the loss, its gradient, local descent, the honest
# objective and the heterogeneity, as computed before problems were stored as
# arrays.  The array functions must match them bit for bit.

def client_value(p, k, w):
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    return float(np.sum(p.curvature * (w - p.centers[k]) ** 2))


def client_gradient(p, k, w):
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    return 2.0 * p.curvature * (w - p.centers[k])


def client_descend(p, k, w, gamma, steps):
    w = np.atleast_1d(np.asarray(w, dtype=np.float64)).copy()
    for _ in range(steps):
        w = w - gamma * client_gradient(p, k, w)
    return w


def loop_honest_objective(p, w):
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    value = 0.0
    grad = np.zeros_like(w)
    for k in p.honest_set:
        value += client_value(p, k, w)
        grad += client_gradient(p, k, w)
    m = len(p.honest_set)
    return value / m, grad / m


def loop_heterogeneity_at(p, w):
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    grads = np.stack([client_gradient(p, k, w) for k in p.honest_set])
    return float(((grads - grads.mean(axis=0)) ** 2).sum(axis=1).mean())


# ---------------------------------------------------------------------------
# two-group family

def test_two_group_constants_match_worked_example():
    p = two_group_quadratic_problem(10, 2, 3, 1.0)
    c = 8 / (2 * np.sqrt(3 * 5))
    assert p.L == pytest.approx(2 * c, rel=1e-12)
    assert p.mu == pytest.approx(2 * c, rel=1e-12)
    assert p.mu == pytest.approx(8 / np.sqrt(15), rel=1e-12)
    assert p.G2 == 1.0
    assert p.l_star == pytest.approx(c * 15 / 64, rel=1e-12)
    assert p.l_star == pytest.approx(0.242062, abs=1e-6)

    # minimum location and value from an independent grid search
    w_star, v_star = grid_minimum_1d(p, -1.0, 1.0)
    assert w_star == pytest.approx(-3 / 8, abs=1e-5)
    assert v_star == pytest.approx(p.l_star, abs=1e-9)


def test_two_group_gradient_metric_at_origin():
    p = two_group_quadratic_problem(10, 2, 3, 1.0)
    _, grad = honest_objective(p, [0.0])
    assert float(grad @ grad) == pytest.approx(0.6, abs=1e-12)
    assert float(grad @ grad) == pytest.approx(3 * 1.0 / (10 - 2 - 3), abs=1e-12)
    # gradient vanishes at the closed-form minimizer
    _, g0 = honest_objective(p, [-3 / 8])
    assert abs(g0[0]) < 1e-14


def test_two_group_heterogeneity_is_g_squared_everywhere():
    p = two_group_quadratic_problem(10, 2, 3, 1.0)
    for w in (-5.0, 0.0, 0.3, 17.0):
        assert heterogeneity_at(p, [w]) == pytest.approx(1.0, abs=1e-9)
    q = two_group_quadratic_problem(4, 0, 1, 1.0)
    assert heterogeneity_at(q, [123.4]) == pytest.approx(1.0, abs=1e-9)


def test_two_group_validation():
    with pytest.raises(ParameterError):
        two_group_quadratic_problem(10, 2, 0, 1.0)  # needs f_hat >= 1
    with pytest.raises(ParameterError):
        two_group_quadratic_problem(10, 4, 3, 1.0)  # f > f_hat
    with pytest.raises(ParameterError):
        two_group_quadratic_problem(10, 2, 5, 1.0)  # f_hat >= n/2
    for G in (1e200, 10**200):  # G2 = G^2 would be inf
        with pytest.raises(ParameterError, match=re.escape(f"G = {G!r} overflows G2 = G^2")):
            two_group_quadratic_problem(10, 2, 3, G)
    assert two_group_quadratic_problem(10, 2, 3, 1e150).G2 == 1e150 * 1e150


# ---------------------------------------------------------------------------
# homogeneous family

def test_homogeneous_family():
    p = homogeneous_quadratic_problem(5)
    assert client_gradient(p, 2, [3.0])[0] == 3.0
    value, grad = honest_objective(p, [2.0])
    assert value == 2.0 and grad[0] == 2.0
    assert p.l_star == 0.0
    assert heterogeneity_at(p, [77.0]) == 0.0
    assert p.L == p.mu == 1.0


# ---------------------------------------------------------------------------
# random quadratic family

def test_random_quadratic_dispersion_hits_target_exactly():
    p = random_quadratic_problem(10, 2, 5, G_target=2.0, radius=3.0, seed=42)
    rng = np.random.default_rng(0)
    for _ in range(5):
        w = rng.normal(size=5) * 4
        assert heterogeneity_at(p, w) == pytest.approx(4.0, abs=1e-9)


def test_random_quadratic_zero_target():
    p = random_quadratic_problem(8, 3, 2, G_target=0.0, radius=5.0, seed=1)
    assert p.G2 == 0.0
    assert heterogeneity_at(p, np.ones(2)) == 0.0
    centers = p.centers
    assert np.allclose(centers, centers[0])


def test_random_quadratic_degenerate_rescale():
    # A single honest client has zero dispersion, so a positive target is
    # unreachable.
    with pytest.raises(ConstructionError):
        random_quadratic_problem(1, 0, 2, G_target=1.0, radius=2.0, seed=0)


def test_random_quadratic_dispersion_that_overflows_is_a_construction_error():
    # centers of radius 1e200 (or 1e160) have a dispersion past the float
    # range: no rescale reaches G_target, and no warning escapes the factory
    for radius in (1e200, 1e160, 1e308):
        with pytest.raises(ConstructionError, match="dispersion overflows"):
            random_quadratic_problem(6, 1, 2, radius=radius, seed=0)
    assert random_quadratic_problem(6, 1, 2, G_target=0.0, radius=1e200, seed=0).G2 == 0.0
    assert random_quadratic_problem(6, 1, 2, radius=100.0, seed=0).G2 == pytest.approx(1.0)


def test_random_quadratic_that_loses_its_spread_to_rounding_is_a_construction_error():
    # centers about the radius from the origin, rescaled to a spread of
    # about G_target, lose that spread once radius / G_target nears 1/eps:
    # G2 reads 0.99999 at radius 1e12, 1.32 at 1e16 and 0 from 1e17 on
    for radius in (1e12, 1e16, 1e17, 1e100):
        with pytest.raises(ConstructionError, match="rounding absorbs the spread"):
            random_quadratic_problem(6, 1, 2, radius=radius, seed=0)
    for radius, G_target in ((1e6, 1.0), (100.0, 1.0), (1e12, 1e6), (1e200, 0.0)):
        p = random_quadratic_problem(6, 1, 2, G_target=G_target, radius=radius, seed=0)
        assert abs(p.G2 - G_target ** 2) <= G2_RTOL * G_target ** 2


def test_random_quadratic_with_no_spread_or_a_subnormal_square_builds():
    # G_target = 0 tiles the honest mean, and the mean of 7 equal rows can
    # round one ulp off it, so G2 reads about 1e-33: no spread was lost
    for d in (1, 3):
        assert 0.0 < random_quadratic_problem(8, 1, d, G_target=0.0, seed=0).G2 < 1e-30
    # G_target^2 = 1e-316 is subnormal, so G2 itself rounds to a relative
    # 3e-8; the spread, in units of G_target, is whole
    p = random_quadratic_problem(6, 1, 2, G_target=1e-158, radius=1e-153, seed=0)
    assert p.G2 == pytest.approx(1e-316, rel=1e-6)


def test_random_quadratic_is_seeded():
    a = random_quadratic_problem(6, 1, 3, 1.0, 2.0, seed=9)
    b = random_quadratic_problem(6, 1, 3, 1.0, 2.0, seed=9)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.curvature, b.curvature)


# ---------------------------------------------------------------------------
# family-wide identities

FAMILIES = [
    lambda: two_group_quadratic_problem(10, 2, 3, 1.0),
    lambda: homogeneous_quadratic_problem(5),
    lambda: random_quadratic_problem(10, 2, 5, 2.0, 3.0, seed=7),
]


@pytest.mark.parametrize("factory", FAMILIES)
def test_gradients_match_finite_differences(factory):
    p = factory()
    rng = np.random.default_rng(13)
    for _ in range(100):
        w = rng.normal(size=p.d) * rng.uniform(0.1, 5)
        _, grad = honest_objective(p, w)
        approx = fd_gradient(lambda x: honest_objective(p, x)[0], w)
        denom = max(1.0, float(np.linalg.norm(grad)))
        assert np.linalg.norm(grad - approx) / denom < 1e-6
        k = int(rng.integers(0, p.n))
        grad_k = client_gradient(p, k, w)
        approx_k = fd_gradient(functools.partial(client_value, p, k), w)
        denom_k = max(1.0, float(np.linalg.norm(grad_k)))
        assert np.linalg.norm(grad_k - approx_k) / denom_k < 1e-6


@pytest.mark.parametrize("factory", FAMILIES)
def test_gradient_dominance_identity(factory):
    # Shared scalar curvature makes the usual inequality an exact identity.
    p = factory()
    rng = np.random.default_rng(14)
    for _ in range(100):
        w = rng.normal(size=p.d) * rng.uniform(0.1, 5)
        value, grad = honest_objective(p, w)
        residual = value - p.l_star - float(grad @ grad) / (2 * p.mu)
        assert abs(residual) <= 1e-10


@pytest.mark.parametrize("factory", FAMILIES)
def test_smoothness_with_equality_for_scalar_families(factory):
    p = factory()
    rng = np.random.default_rng(15)
    for _ in range(100):
        w1 = rng.normal(size=p.d) * 3
        w2 = rng.normal(size=p.d) * 3
        for k in (0, p.n - 1):
            lhs = np.linalg.norm(client_gradient(p, k, w1) - client_gradient(p, k, w2))
            rhs = p.L * np.linalg.norm(w1 - w2)
            assert lhs <= rhs * (1 + 1e-12)
            # uniform curvature means the bound is tight
            assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("factory", FAMILIES)
def test_gap_is_nonnegative(factory):
    p = factory()
    rng = np.random.default_rng(16)
    for _ in range(100):
        w = rng.normal(size=p.d) * rng.uniform(0.1, 10)
        value, _ = honest_objective(p, w)
        assert value - p.l_star >= -1e-12


@pytest.mark.parametrize("factory", FAMILIES)
def test_heterogeneity_constant_in_w(factory):
    p = factory()
    rng = np.random.default_rng(17)
    values = [heterogeneity_at(p, rng.normal(size=p.d) * s) for s in (0.1, 1, 10, 100)]
    assert max(values) - min(values) <= 1e-9 * (1 + max(values))


# ---------------------------------------------------------------------------
# construction checks

def test_constants_verified_at_construction():
    good = homogeneous_quadratic_problem(4)
    with pytest.raises(ConstructionError):
        Problem(
            f=0, honest_set=(0, 1, 2, 3), curvature=good.curvature, centers=good.centers,
            G2=0.5, l_star=0.0,  # wrong G2
        )
    with pytest.raises(ConstructionError):
        Problem(f=0, honest_set=(0,), curvature=-1.0, centers=[[0.0]], G2=0.0, l_star=0.0)
    with pytest.raises(ConstructionError):
        Problem(f=0, honest_set=(0,), curvature=1.0, centers=[[np.inf]], G2=0.0, l_star=0.0)
    # a constant that is not finite, given or recomputed, never matches
    for G2, l_star in ((np.nan, 1.0), (np.inf, 1.0), (4.0, np.nan), (-np.inf, 1.0)):
        with pytest.raises(ConstructionError):
            Problem(f=0, honest_set=None, curvature=[1.0], centers=[[0.0], [2.0]], G2=G2, l_star=l_star)
    with pytest.raises(ConstructionError):  # (2a)^2 overflows: no warning, a mismatch
        Problem(f=0, honest_set=None, curvature=[1e200], centers=[[0.0], [2.0]], G2=np.inf, l_star=1e200)
    # a G_target with a finite square whose rescaled sums still overflow: no warning, a mismatch
    for G_target, seed in ((1e154, 0), (5e153, 3)):
        with pytest.raises(ConstructionError, match="constant G2=inf does not match"):
            random_quadratic_problem(20, 1, 1, G_target=G_target, seed=seed)
    # L and mu are derived from the curvature, not passed
    p = Problem(f=0, honest_set=None, curvature=[0.5, 2.0], centers=np.zeros((3, 2)), G2=0.0, l_star=0.0)
    assert (p.L, p.mu) == (4.0, 1.0)
    with pytest.raises(TypeError):
        Problem(f=0, honest_set=None, curvature=[0.5], centers=np.zeros((3, 1)), L=1.0, mu=1.0, G2=0.0, l_star=0.0)


def test_byzantine_labels_default_to_last_indices_but_configurable():
    p = two_group_quadratic_problem(10, 2, 3, 1.0)
    assert p.byzantine_set == (8, 9)
    q = homogeneous_quadratic_problem(5, f=2, honest_set=(0, 2, 4))
    assert q.byzantine_set == (1, 3)


def test_every_exported_name_resolves():
    import fedrobust

    missing = [name for name in fedrobust.__all__ if not hasattr(fedrobust, name)]
    assert missing == []


@pytest.mark.parametrize("honest_set", [(0, 0, 4), (0, 1, -1), (0, 1, 7), (0, 1), (0, 1, 2, 3)])
def test_malformed_honest_set_rejected(honest_set):
    # n - f = 3 distinct indices in [0, 5) are required
    with pytest.raises(ParameterError):
        homogeneous_quadratic_problem(5, f=2, honest_set=honest_set)
    with pytest.raises(ParameterError):
        two_group_quadratic_problem(5, 2, 2, 1.0, honest_set=honest_set)
    with pytest.raises(ParameterError):
        random_quadratic_problem(5, 2, 3, 1.0, 2.0, seed=0, honest_set=honest_set)


def test_problem_arrays_are_read_only():
    p = random_quadratic_problem(6, 1, 3, 1.0, 2.0, seed=9)
    with pytest.raises(ValueError):
        p.centers[0, 0] = 5.0
    with pytest.raises(ValueError):
        p.curvature[0] = 5.0


# ---------------------------------------------------------------------------
# array functions against the client-by-client oracle

def custom_problem(rng, n, f, d):
    """Random problem with a distinct curvature per coordinate and a
    shuffled honest set; constants computed from the definitions."""
    a = rng.uniform(0.5, 2.0, size=d)
    centers = rng.normal(size=(n, d)) * rng.uniform(0.1, 10)
    honest_set = tuple(int(k) for k in rng.permutation(n)[: n - f])
    spread = centers[list(honest_set)] - centers[list(honest_set)].mean(axis=0)
    return Problem(
        f=f, honest_set=honest_set, curvature=a, centers=centers,
        G2=float(np.sum(4.0 * a ** 2 * (spread ** 2).mean(axis=0))),
        l_star=float(np.sum(a * (spread ** 2).mean(axis=0))),
    )


ORACLE_SHAPES = [(3, 1, 1), (10, 2, 1), (20, 3, 1), (7, 2, 3), (10, 2, 8), (12, 5, 9), (9, 0, 130)]


@pytest.mark.parametrize("n,f,d", ORACLE_SHAPES)
def test_array_functions_match_client_loop_exactly(n, f, d):
    rng = np.random.default_rng(n * 1000 + f * 100 + d)
    problems = [
        custom_problem(rng, n, f, d),
        random_quadratic_problem(n, f, d, G_target=1.5, radius=4.0, seed=d),
    ]
    if d == 1:
        problems.append(two_group_quadratic_problem(n, f, max(f, 1), 1.0))
    for p in problems:
        for scale in (1e-3, 1.0, 1e3):
            w = rng.normal(size=d) * scale
            value, grad = honest_objective(p, w)
            want_value, want_grad = loop_honest_objective(p, w)
            assert value == want_value
            assert np.array_equal(grad, want_grad)
            assert heterogeneity_at(p, w) == loop_heterogeneity_at(p, w)

            clients = [p.honest_set, p.byzantine_set, tuple(rng.permutation(p.n)[:3])]
            for ks in clients:
                for gamma, steps in ((0.01, 1), (0.3, 5), (0.0, 2), (0.05, 0)):
                    got = descend(p, ks, w, gamma, steps)
                    assert got.shape == (len(ks), p.d)
                    for row, k in zip(got, ks):
                        assert np.array_equal(row, client_descend(p, k, w, gamma, steps))


@pytest.mark.parametrize("d", [1, 5, 8, 9, 200])
def test_batched_objective_equals_per_row_calls(d):
    rng = np.random.default_rng(d)
    problems = [
        custom_problem(rng, 10, 3, d),
        random_quadratic_problem(10, 2, d, 1.5, 4.0, seed=d, honest_set=(9, 0, 7, 2, 5, 3, 1, 8)),
    ]
    for p in problems:
        assert p.honest_set != tuple(range(p.n - p.f))
        block = rng.normal(size=(12, d)) * 10.0 ** rng.uniform(-3, 3, size=(12, 1))
        values, grads = honest_objective(p, block)
        assert type(values) is np.ndarray and values.shape == (12,) and values.dtype == np.float64
        assert type(grads) is np.ndarray and grads.shape == (12, d) and grads.dtype == np.float64
        for w, value, grad in zip(block, values, grads):
            one_value, one_grad = honest_objective(p, w)
            assert type(one_value) is float and one_grad.shape == (d,)
            assert one_value == value == loop_honest_objective(p, w)[0]
            assert np.array_equal(one_grad, grad) and np.array_equal(grad, loop_honest_objective(p, w)[1])


def test_objective_forms_on_a_scalar_problem():
    p = two_group_quadratic_problem(10, 2, 3, 1.0, honest_set=(9, 8, 0, 1, 2, 3, 4, 5))
    points = np.array([-1.5, -0.25, 0.0, 2.0])
    values, grads = honest_objective(p, points[:, None])
    assert values.shape == (4,) and grads.shape == (4, 1)
    for x, value, grad in zip(points, values, grads):
        for w in (x, float(x), np.array([x])):
            got_value, got_grad = honest_objective(p, w)
            assert type(got_value) is float and got_grad.shape == (1,)
            assert got_value == value and np.array_equal(got_grad, grad)


def test_index_arrays_match_the_client_tuples():
    rng = np.random.default_rng(4)
    problems = [
        random_quadratic_problem(9, 4, 2, seed=1),
        random_quadratic_problem(7, 3, 2, seed=2, honest_set=(6, 0, 4, 2)),
        homogeneous_quadratic_problem(6, 0),
        custom_problem(rng, 11, 5, 3),
    ]
    for p in problems:
        assert p.byzantine_set == tuple(sorted(set(range(p.n)) - set(p.honest_set)))
        for index, clients in ((p.honest_index, p.honest_set), (p.byzantine_index, p.byzantine_set)):
            assert index.dtype == np.intp and index.tolist() == list(clients)
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[...] = 0


def test_honest_objective_overflow_is_silent_inf():
    # each client's loss is finite, their sum is not: the value becomes inf
    # without a warning, as a client-by-client float sum would
    p = homogeneous_quadratic_problem(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grad = honest_objective(p, [1.3e154])
    want_value, want_grad = loop_honest_objective(p, [1.3e154])
    assert value == np.inf == want_value
    assert np.array_equal(grad, want_grad) and np.isfinite(grad[0])


def flat_problem(f):
    return Problem(f=f, honest_set=None, curvature=[1.0], centers=np.zeros((10, 1)), G2=0.0, l_star=0.0)


@pytest.mark.parametrize("build,name,value", [
    (lambda: flat_problem(True), "f", True),
    (lambda: flat_problem(1.5), "f", 1.5),
    (lambda: random_quadratic_problem(10, 1.0, 5, seed=0), "f", 1.0),
    (lambda: random_quadratic_problem(10, 1, 1.5, seed=0), "d", 1.5),
    (lambda: random_quadratic_problem(True, 0, seed=0), "n", True),
    (lambda: homogeneous_quadratic_problem(2.0), "n", 2.0),
    (lambda: homogeneous_quadratic_problem(4, False), "f", False),
    (lambda: two_group_quadratic_problem(10, 1, 1.5), "f_hat", 1.5),
    (lambda: two_group_quadratic_problem(10.0, 1, 2), "n", 10.0),
    (lambda: two_group_quadratic_problem(10, 1, True), "f_hat", True),
])
def test_integer_arguments_reject_bools_and_fractions(build, name, value):
    with pytest.raises(ParameterError) as excinfo:
        build()
    assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"


def test_integer_arguments_take_numpy_integers():
    assert flat_problem(np.int64(2)).byzantine_set == (8, 9)
    assert random_quadratic_problem(np.int32(10), np.int64(1), np.int16(3), seed=0).d == 3
    assert homogeneous_quadratic_problem(np.int64(4), np.int8(1)).n == 4
    assert two_group_quadratic_problem(np.int64(10), np.int64(1), np.int64(2)).byzantine_set == (9,)


def three_client_problem(honest_set):
    return Problem(f=1, honest_set=honest_set, curvature=[1.0], centers=np.zeros((3, 1)), G2=0.0, l_star=0.0)


@pytest.mark.parametrize("honest_set", [(0, 1.0), (0, True), (0.0, 1)])
def test_honest_set_indices_reject_bools_and_floats(honest_set):
    # 1.0 and True equal 1, so a set-membership check alone kept them
    with pytest.raises(ParameterError, match="indices must be integers"):
        three_client_problem(honest_set)


@pytest.mark.parametrize("honest_set", [(0, 1.0, 2, 3, 4, 5, 6, 7), (0, True, 2, 3, 4, 5, 6, 7), (0, 1.5, 2, 3, 4, 5, 6, 7)])
def test_factories_reject_non_integer_honest_indices(honest_set):
    # a non-integral float used to reach centers[list(honest_set)] as an IndexError
    with pytest.raises(ParameterError, match="indices must be integers"):
        random_quadratic_problem(10, 2, 5, seed=0, honest_set=honest_set)
    with pytest.raises(ParameterError, match="indices must be integers"):
        two_group_quadratic_problem(10, 2, 2, honest_set=honest_set)
    with pytest.raises(ParameterError, match="indices must be integers"):
        homogeneous_quadratic_problem(10, 2, honest_set=honest_set)


def test_numpy_honest_indices_are_stored_as_ints_with_the_same_digest():
    config = functools.partial(RunConfig, aggregator=AggregatorSpec("mean"), attack=AttackStrategy("honest_mimic"), T=2)
    plain = three_client_problem((0, 2))
    for spelled in ((np.int64(0), np.int32(2)), np.array([0, 2])):
        p = three_client_problem(spelled)
        assert p.honest_set == (0, 2) and all(type(k) is int for k in p.honest_set)
        assert config_digest(config(problem=p)) == config_digest(config(problem=plain))
    q = random_quadratic_problem(10, 2, 5, seed=0, honest_set=np.arange(9, 1, -1))
    same = random_quadratic_problem(10, 2, 5, seed=0, honest_set=tuple(range(9, 1, -1)))
    assert q.honest_set == same.honest_set and all(type(k) is int for k in q.honest_set)
    assert q.centers.tobytes() == same.centers.tobytes()
