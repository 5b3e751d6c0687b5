"""Aggregation rules against independent brute-force oracles and the
documented invariants."""

import inspect
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedrobust import AggregatorSpec, DimensionError, ParameterError, aggregate, weiszfeld
from fedrobust import aggregators
from fedrobust.aggregators import (
    KINDS, WeiszfeldResult, _cwtm, _krum_index, _kuhn, _neighbor_indices, _nnm, _sq_distance_matrix, stack_points,
)

MEAN = AggregatorSpec("mean")
CWMED = AggregatorSpec("cwmed")


# ---------------------------------------------------------------------------
# oracles

def oracle_trimmed_mean(values, f_hat):
    """Sort, trim f_hat per side, average (plain Python)."""
    ordered = sorted(values)
    kept = ordered[f_hat : len(ordered) - f_hat]
    return sum(kept) / len(kept)


def oracle_median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n % 2 == 1:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


def oracle_weiszfeld(xs, tol: float = 1e-9, max_iters: int = 500) -> WeiszfeldResult:
    """The solver ``weiszfeld`` ran before its data-point test, verbatim:
    plain iteration from the coordinate-wise median with the anchor nudge."""
    pts = stack_points(xs)
    if tol <= 0:
        raise ParameterError("tol must be positive")
    n, d = pts.shape
    z = np.median(pts, axis=0)
    scale = max(1.0, float(np.abs(pts).max()))
    nudge = tol * scale / np.sqrt(d)
    displacement = 0.0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        dist = np.linalg.norm(pts - z, axis=1)
        if dist.max() == 0.0:
            return WeiszfeldResult(z, 0.0, iterations)  # every point equals z
        if dist.min() == 0.0:
            z = z + nudge
            dist = np.linalg.norm(pts - z, axis=1)
        weights = 1.0 / np.maximum(dist, 1e-300)
        z_new = weights @ pts / weights.sum()
        displacement = float(np.linalg.norm(z_new - z))
        z = z_new
        if displacement < tol:
            break
    return WeiszfeldResult(z, displacement, iterations)


# The Newton solver as it stood before its per-step numpy calls were cut,
# with its helpers; ``weiszfeld`` and ``_kuhn`` must equal it to the bit.

EPS = aggregators._EPS


def oracle_kuhn(diff: np.ndarray, merge: float = 0.0) -> np.ndarray:
    """``aggregators._kuhn`` before it reused its division guard, verbatim:
    Kuhn's test (see :func:`weiszfeld`) at a point x, given the offsets
    x_i - x of every row along the last two axes of ``diff``.

    Rows no farther than ``merge`` from x count as m rows at x, and R is the
    length of the sum of the unit vectors to the others.  R must fall short
    of m by more than a bound on its rounding error, so a tie fails.  Each
    offset is divided by its largest component before its length, so
    nothing overflows or underflows to a false zero length.
    """
    n, d = diff.shape[-2:]
    span = np.maximum.reduce(np.abs(diff), axis=-1)
    v = diff / np.where(span == 0.0, 1.0, span)[..., None]
    length = np.sqrt(np.add.reduce(v * v, axis=-1))  # in [1, sqrt(d)], or 0 where span is
    at = span <= merge / np.maximum(length, 1.0)
    length[at] = np.inf  # the rows at x add nothing to R
    pull = np.add.reduce(v / length[..., None], axis=-2)
    r = np.sqrt(np.add.reduce(pull * pull, axis=-1))
    return r < np.add.reduce(at, axis=-1) - n * (n + 2 * d + 6) * EPS


def _oracle_data_point_median(pts: np.ndarray) -> np.ndarray | None:
    """The first input row that passes Kuhn's test, or None.  Offsets are
    taken between halved rows, so they cannot overflow."""
    half = 0.5 * pts
    hits = np.flatnonzero(oracle_kuhn(half[None, :, :] - half[:, None, :]))  # [j, i] = (x_i - x_j) / 2
    return pts[hits[0]].copy() if hits.size else None


def _oracle_offsets(y: np.ndarray, z: np.ndarray):
    """The offsets y_i - z and their lengths."""
    diff = y - z
    return diff, np.sqrt(np.add.reduce(diff * diff, axis=1))


def _oracle_lowers(diff: np.ndarray, dist: np.ndarray, s: np.ndarray, new_dist: np.ndarray) -> bool:
    """Whether f(z + s) < f(z), for f(z) = sum_i ||y_i - z||, by more than
    the rounding error of the computed change, given the offsets y_i - z,
    their lengths d_i and the lengths d'_i at z + s.  Each term of the change
    is (d'^2 - d^2)/(d' + d) with d'^2 - d^2 = s.s - 2 (y_i - z).s, so it
    keeps its precision next to the minimum, where f is flat to rounding."""
    terms = (s @ s - 2.0 * (diff @ s)) / (dist + new_dist)
    n, d = diff.shape
    return np.add.reduce(terms) < -2 * (n + d) * EPS * np.add.reduce(np.abs(terms))


def oracle_newton_weiszfeld(xs, tol: float = 1e-9, max_iters: int = 500) -> WeiszfeldResult:
    """``weiszfeld`` before its Newton loop was trimmed of numpy calls,
    verbatim; see :func:`fedrobust.aggregators.weiszfeld` for the method.
    The trimmed solver must equal it to the bit."""
    pts = stack_points(xs)
    if tol <= 0:
        raise ParameterError("tol must be positive")
    anchor = _oracle_data_point_median(pts)
    if anchor is not None:
        return WeiszfeldResult(anchor, 0.0, 0)
    n, d = pts.shape
    ordered = np.sort(pts, axis=0)
    center = 0.5 * ordered[(n - 1) // 2] + 0.5 * ordered[n // 2]  # the coordinate-wise median
    half = 0.5 * pts - 0.5 * center  # (x_i - center) / 2, which cannot overflow
    exponent = math.frexp(float(np.maximum.reduce(np.abs(half), axis=None)))[1]
    scale = math.ldexp(1.0, min(exponent, 1023))
    # y_i = (x_i - center) / (2 * scale) has coordinates in (-1, 1); lengths
    # in y are lengths in x divided by 2 * scale
    y = half / scale
    tol_y = tol / scale / 2.0
    # The rows of y and every iterate have coordinates in (-1, 1), so a
    # distance in y is rounded by a few d ulps of 1 and rows nearer the
    # iterate than this cannot be told from it.
    merge = n * d * EPS
    z = np.zeros(d)
    diff, dist = _oracle_offsets(y, z)
    step = 0.0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        if np.minimum.reduce(dist) <= merge:
            at = dist <= merge
            m = int(np.add.reduce(at))
            weights = 1.0 / dist[~at]
            pull = np.add.reduce(diff[~at] * weights[:, None], axis=0)
            r = math.sqrt(pull @ pull)
            if r <= m:
                step = 0.0
                break
            s = (1.0 - m / r) / np.add.reduce(weights) * pull
            new = _oracle_offsets(y, z + s)
        else:
            weights = 1.0 / dist
            u = diff * weights[:, None]
            pull = np.add.reduce(u, axis=0)
            hessian = np.add.reduce(weights) * np.eye(d) - (u.T * weights) @ u
            try:
                s = np.linalg.solve(hessian, pull)
                newton = math.hypot(*s) <= np.maximum.reduce(dist)  # False for inf or NaN
            except np.linalg.LinAlgError:  # a singular H
                newton = False
            if newton:
                new = _oracle_offsets(y, z + s)
                newton = _oracle_lowers(diff, dist, s, new[1])
            if not newton:
                k = np.argmin(dist)
                if oracle_kuhn(y - y[k], merge):
                    return WeiszfeldResult(pts[k].copy(), 0.0, iterations)
                s = pull / np.add.reduce(weights)
                new = _oracle_offsets(y, z + s)
        step = math.sqrt(s @ s)
        z = z + s
        diff, dist = new
        if step < tol_y:
            break
    return WeiszfeldResult(center + scale * (2.0 * z), step * 2.0 * scale, iterations)


def gm_objective(pts, z):
    return float(np.linalg.norm(pts - z, axis=1).sum())


def oracle_gm_1d(values, lo=None, hi=None, steps=200001):
    """Grid minimization of sum_k |v - x_k| on one axis."""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    grid = np.linspace(lo, hi, steps)
    totals = np.abs(grid[:, None] - np.asarray(values)[None, :]).sum(axis=1)
    return grid[int(np.argmin(totals))]


def _sqdist(u, v):
    return float(np.sum((np.asarray(u, float) - np.asarray(v, float)) ** 2))


def oracle_neighbors(pts, k, count):
    """Indices of the ``count`` nearest neighbours of point k, ties by index."""
    ranked = sorted(range(len(pts)), key=lambda i: (_sqdist(pts[k], pts[i]), i))
    return ranked[:count]


def oracle_krum_index(pts, f_hat):
    n = len(pts)
    best_k, best_score = None, None
    for k in range(n):
        score = 0.0
        for i in oracle_neighbors(pts, k, n - f_hat):
            score += _sqdist(pts[k], pts[i])
        if best_score is None or score < best_score:
            best_k, best_score = k, score
    return best_k


def oracle_nnm(pts, f_hat):
    n = len(pts)
    out = []
    for k in range(n):
        neighbors = oracle_neighbors(pts, k, n - f_hat)
        out.append(np.mean([pts[i] for i in neighbors], axis=0))
    return np.asarray(out)


# ---------------------------------------------------------------------------
# mean

def test_mean_examples():
    assert aggregate(MEAN, [[0.0], [1.0], [2.0]]) == pytest.approx([1.0])
    v = np.array([3.0, -2.0, 7.0])
    assert np.array_equal(aggregate(MEAN, [v] * 5), v)
    assert aggregate(MEAN, [[0.0, 2.0], [4.0, 0.0]]) == pytest.approx([2.0, 1.0])


def test_mean_rejects_empty_and_mixed_dims():
    with pytest.raises(DimensionError):
        aggregate(MEAN, [])
    with pytest.raises((DimensionError, ValueError)):
        aggregate(MEAN, [[1.0, 2.0], [1.0]])


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        aggregate(MEAN, [[np.nan], [1.0]])
    with pytest.raises(ValueError):
        aggregate(CWMED, [np.inf, 1.0, 2.0])


# ---------------------------------------------------------------------------
# coordinate-wise trimmed mean

def test_cwtm_examples():
    values = [0.0, 0.0, 0.0, 1.0, 1.0]
    got = aggregate(AggregatorSpec("cwtm", f_hat=1), values)[0]
    assert got == oracle_trimmed_mean(values, 1) == pytest.approx(1 / 3)
    assert aggregate(AggregatorSpec("cwtm", f_hat=2), values)[0] == oracle_trimmed_mean(values, 2) == 0.0
    v = np.array([1.5, -2.0])
    assert np.array_equal(aggregate(AggregatorSpec("cwtm", f_hat=3), [v] * 7), v)


def test_cwtm_matches_oracle_per_coordinate():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(3, 12))
        d = int(rng.integers(1, 4))
        f_hat = int(rng.integers(0, (n - 1) // 2 + 1))
        pts = rng.normal(size=(n, d)) * 10
        got = aggregate(AggregatorSpec("cwtm", f_hat=f_hat), pts)
        want = [oracle_trimmed_mean(pts[:, j].tolist(), f_hat) for j in range(d)]
        assert got == pytest.approx(want, abs=1e-12)


def test_cwtm_parameter_error():
    with pytest.raises(ParameterError):
        aggregate(AggregatorSpec("cwtm", f_hat=2), [1.0, 2.0, 3.0, 4.0])


def test_cwtm_zero_trim_equals_mean():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(6, 3))
    assert np.array_equal(aggregate(AggregatorSpec("cwtm", f_hat=0), pts), aggregate(MEAN, pts))


# ---------------------------------------------------------------------------
# coordinate-wise median

def test_cwmed_examples():
    assert aggregate(CWMED, [0.0, 0.0, 1.0])[0] == oracle_median([0.0, 0.0, 1.0]) == 0.0
    assert aggregate(CWMED, [0.0, 1.0, 2.0, 100.0])[0] == oracle_median([0.0, 1.0, 2.0, 100.0]) == 1.5
    v = np.array([0.25, 9.0])
    assert np.array_equal(aggregate(CWMED, [v] * 4), v)


@pytest.mark.parametrize("n", [1, 2, 5, 6, 9, 10])
@pytest.mark.parametrize("d", [1, 5])
def test_cwmed_equals_np_median_bit_for_bit(n, d):
    rng = np.random.default_rng([7, n, d])
    for _ in range(50):
        pts = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-5, 6)
        # duplicate values, within a column and across the middle pair
        pts[rng.integers(n, size=n // 2), :] = pts[0]
        pts[:, -1] = rng.integers(-2, 3, size=n) / 3
        assert aggregate(CWMED, pts).tobytes() == np.median(pts, axis=0).tobytes()


# ---------------------------------------------------------------------------
# geometric median

def test_gm_1d_equals_median():
    got = weiszfeld([0.0, 1.0, 10.0], tol=1e-9).point
    assert got[0] == pytest.approx(oracle_gm_1d([0.0, 1.0, 10.0]), abs=1e-4)
    assert got[0] == pytest.approx(1.0, abs=1e-8)


def test_gm_identical_points_exact():
    v = np.array([2.0, -3.0, 0.5])
    result = weiszfeld([v] * 6)
    assert np.array_equal(result.point, v)
    assert result.displacement == 0.0


def test_gm_equilateral_triangle_centroid():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    got = weiszfeld(pts, tol=1e-11).point
    assert got == pytest.approx(pts.mean(axis=0), abs=1e-8)


def test_gm_reports_displacement():
    result = weiszfeld(np.array([[0.0], [1.0], [3.0], [7.0]]), tol=1e-10)
    assert result.displacement < 1e-10
    assert result.iterations >= 1


def test_gm_tolerance_must_be_positive():
    for tol in (0.0, -1e-9, float("nan")):
        with pytest.raises(ParameterError, match="tol"):
            weiszfeld([[0.0], [1.0], [3.0]], tol=tol)
    # max_iters is an integer >= 1, for one cloud and for a stack alike
    for pts in ([[0.0], [1.0], [2.0], [3.0]], np.array([[[0.0], [1.0], [2.0], [3.0]]] * 2)):
        for max_iters in (2.5, 0, -3, True, np.float64(3.0)):
            with pytest.raises(ParameterError, match="max_iters"):
                weiszfeld(pts, max_iters=max_iters)
        numpy_int, python_int = weiszfeld(pts, max_iters=np.int64(1)), weiszfeld(pts, max_iters=1)
        assert numpy_int.point.tobytes() == python_int.point.tobytes() and numpy_int.iterations == 1


def test_gm_even_1d_tie_iterates_to_the_midpoint():
    # Both central points have R_j = m_j = 1, a tie, so neither is returned.
    result = weiszfeld([0.0, 1.0, 2.0, 3.0])
    assert result.iterations >= 1
    assert np.array_equal(result.point, [1.5])
    assert result.point.tobytes() == oracle_weiszfeld([0.0, 1.0, 2.0, 3.0]).point.tobytes()


def test_gm_majority_point_returned_exactly():
    rng = np.random.default_rng(9)
    v = np.array([0.3, -1.7, 2.2])
    pts = np.vstack([np.tile(v, (4, 1)), rng.normal(size=(3, 3)) * 50])[rng.permutation(7)]
    result = weiszfeld(pts)
    assert np.array_equal(result.point, v)
    assert (result.displacement, result.iterations) == (0.0, 0)
    assert not np.shares_memory(result.point, pts)


def check_against_oracle(pts):
    """Where the data-point test does not fire, an objective at most a
    relative 1e-9 above the oracle's; where it fires, an input row at least
    as good as the oracle's iterate."""
    got, want = weiszfeld(pts), oracle_weiszfeld(pts)
    if got.iterations:
        assert gm_objective(pts, got.point) <= gm_objective(pts, want.point) * (1 + 1e-9)
        return False
    assert got.displacement == 0.0
    assert any(np.array_equal(got.point, p) for p in pts)
    assert gm_objective(pts, got.point) <= gm_objective(pts, want.point) * (1 + 1e-12)
    return True


def test_gm_matches_oracle_on_random_and_mixed_clouds():
    rng = np.random.default_rng(10)
    fired = []
    for k in range(120):
        n = int(rng.integers(3, 14))
        d = int(rng.integers(1, 7))
        pts = rng.normal(size=(n, d)) * rng.uniform(0.1, 10)
        if k % 2:
            # NNM leaves duplicate rows, and often a duplicated median
            pts = _nnm(pts, int(rng.integers(1, (n - 1) // 2 + 1)))
        fired.append(check_against_oracle(pts))
    assert 0 < sum(fired) < len(fired)


def test_gm_data_point_median_does_not_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = weiszfeld([[0.9]] * 3 + [[1e200]] * 2)
    assert np.array_equal(result.point, [0.9])
    assert result.iterations == 0


def test_gm_leaves_a_coordinatewise_median_row_that_is_not_the_median():
    # The coordinate-wise median of this cloud is its fourth row, which is
    # not the geometric median; the oracle's nudge stops there after one step.
    pts = np.array([
        [-2.3969353735367984, 2.185063943343644], [0.9731244880642079, -1.3179252958030134],
        [-2.2497008865751664, 1.633201981179411], [-1.6550553741096006, 0.5537229008683592],
        [2.2654362694452224, -0.33082564380760204],
    ])
    result = weiszfeld(pts)
    diff = pts - result.point
    pull = (diff / np.linalg.norm(diff, axis=1)[:, None]).sum(axis=0)
    assert np.linalg.norm(pull) <= 1e-6
    assert gm_objective(pts, result.point) <= gm_objective(pts, oracle_weiszfeld(pts).point) * (1 - 0.003)


def test_gm_off_the_data_points_does_not_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = weiszfeld([[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]]).point
        unit = weiszfeld([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]).point
    assert np.all(np.isfinite(huge))
    assert huge == pytest.approx(1e200 * unit, rel=1e-12)


def test_gm_rows_one_ulp_apart_count_as_one_point():
    p, q = [1.0, 1.0], [np.nextafter(1.0, 2.0), 1.0]
    # The others pull the pair along y with length 1 + 2 cos 70deg < 2, so
    # the pair is the median, though neither row alone passes Kuhn's test.
    angles = np.radians([-70.0, 0.0, 70.0])
    pts = np.vstack([p, q, np.array(p) + 3.0 * np.column_stack([np.sin(angles), np.cos(angles)])])
    result = weiszfeld(pts)
    assert np.array_equal(result.point, p)
    assert result.iterations <= 2
    # Here the pair is the coordinate-wise median, and it is not the median.
    pts = np.array([p, q, [0.99, 6.0], [0.99, 6.1], [6.0, 0.99], [6.1, 0.99]])
    assert np.array_equal(np.median(pts, axis=0), p)
    got = gm_objective(pts, weiszfeld(pts).point)
    assert got <= gm_objective(pts, oracle_weiszfeld(pts).point) * (1 + 1e-12)


def test_gm_flat_clouds_stay_at_the_coordinatewise_median():
    # Even 1-d and collinear clouds have a segment of medians.  The
    # coordinate-wise median lies on it, and rounding must not move the
    # iterate along it, so every row order gives that point.
    rng = np.random.default_rng(14)
    clouds = [np.array([[0.0], [1.0], [32.0], [0.0], [31.125], [31.125]]), np.array([[1.1223264104037867], [1.0]])]
    for _ in range(20):
        m, d = 2 * int(rng.integers(1, 5)), int(rng.integers(2, 5))
        clouds.append(rng.normal(size=(m, 1)) * rng.normal(size=(1, d)) + rng.normal(size=(1, d)))
    for pts in clouds:
        want = np.median(pts, axis=0)
        for _ in range(4):
            got = weiszfeld(pts[rng.permutation(len(pts))]).point
            assert got == pytest.approx(want, abs=1e-9 * max(1.0, np.abs(pts).max()))


def test_gm_narrow_cloud_far_from_the_origin():
    # Rows 1e-6 apart at 1e8 are distinct points, though their coordinates
    # share all but the last few digits; the median of the cloud is that of
    # the exactly shifted cloud, to the resolution of floats at 1e8.
    rng = np.random.default_rng(15)
    offset = 1e8
    for _ in range(5):
        rel = rng.normal(size=(10, 5)) * 1e-6
        pts = offset + rel
        rel = pts - offset  # exact: every row is within a factor 2 of the offset
        want = oracle_weiszfeld(rel, tol=1e-15).point
        assert np.abs(weiszfeld(pts).point - offset - want).max() <= np.spacing(offset)


def stress_clouds(rng, count):
    """Random and NNM-mixed clouds in d >= 2, and collinear and d = 1
    clouds, on which the Hessian of the objective is singular or zero."""
    for k in range(count):
        n = int(rng.integers(3, 14))
        d = int(rng.integers(2, 7))
        kind = k % 4
        if kind == 0:
            yield rng.normal(size=(n, d)) * rng.uniform(0.1, 10)
        elif kind == 1:
            yield _nnm(rng.normal(size=(n, d)) * rng.uniform(0.1, 10), int(rng.integers(1, (n - 1) // 2 + 1)))
        elif kind == 2:
            yield rng.normal(size=(n, 1)) * rng.normal(size=(1, d)) + rng.normal(size=(1, d))
        else:
            yield rng.normal(size=(n, 1)) * rng.uniform(0.1, 10)


def test_gm_stress_against_oracle():
    iterations, oracle_iterations = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pts in stress_clouds(np.random.default_rng(12), 400):
            got, want = weiszfeld(pts), oracle_weiszfeld(pts)
            if got.iterations == 0:
                continue
            assert gm_objective(pts, got.point) <= gm_objective(pts, want.point) * (1 + 1e-9), pts
            iterations.append(got.iterations)
            oracle_iterations.append(want.iterations)
    assert len(iterations) >= 100
    assert np.mean(iterations) <= np.mean(oracle_iterations)


magnitudes = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.99), st.integers(-300, 299)),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), d=st.integers(1, 4))
def test_gm_majority_point_exact_at_any_magnitude(data, n, d):
    majority = n // 2 + 1
    v = data.draw(arrays(np.float64, (d,), elements=magnitudes))
    others = data.draw(arrays(np.float64, (n - majority, d), elements=magnitudes))
    pts = np.vstack([np.tile(v, (majority, 1)), others])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = weiszfeld(pts)
    assert np.array_equal(result.point, v)
    assert result.iterations == 0


def test_weiszfeld_keeps_the_tracer_contract(monkeypatch):
    # bench/spans.py wraps the module-level name that ``aggregate`` calls and
    # reads tol and max_iters from the call and iterations and displacement
    # from the result; losing any of them zeroes the bench's Weiszfeld layer.
    signature = inspect.signature(weiszfeld)
    assert {"tol", "max_iters"} <= set(signature.parameters)
    assert {"iterations", "displacement"} <= set(WeiszfeldResult._fields)
    calls = []

    def spy(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return weiszfeld(*args, **kwargs)

    monkeypatch.setattr(aggregators, "weiszfeld", spy)
    aggregate(AggregatorSpec("gm", gm_tolerance=1e-7, gm_max_iters=40), [[0.0], [1.0], [3.0], [7.0]])
    assert [(call["tol"], call["max_iters"]) for call in calls] == [(1e-7, 40)]


# ---------------------------------------------------------------------------
# the solver and Kuhn's test equal the Newton oracle to the bit

def assert_same_solve(pts, **kwargs):
    got, want = weiszfeld(pts, **kwargs), oracle_newton_weiszfeld(pts, **kwargs)
    assert got.point.tobytes() == want.point.tobytes(), pts
    assert (got.iterations, got.displacement) == (want.iterations, want.displacement), pts
    return got


def central_row_clouds(rng, count):
    """Clouds whose coordinate-wise median is a row (odd n) or lies between
    two rows one ulp apart (even n), with every other row on alternating
    sides of it per coordinate.  Where Kuhn's test fails, the first iterate
    is within ``merge`` of those rows and takes the Vardi-Zhang step."""
    for k in range(count):
        h, d = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        center = rng.normal(size=d)
        signs = np.array([rng.permutation([1.0] * h + [-1.0] * h) for _ in range(d)]).T
        others = center + signs * (np.abs(rng.normal(size=(2 * h, d))) + 0.1)
        central = [center] if k % 2 else [center, np.nextafter(center, np.inf)]
        yield np.vstack(central + [others])[rng.permutation(2 * h + len(central))]


def solver_clouds(rng):
    """Fuzz clouds at d in {1, 2, 5}, NNM-mixed clouds with repeated rows,
    collinear clouds and clouds with d > n; some also at scales 1e200 and
    1e-200."""
    for k in range(240):
        n, d = int(rng.integers(2, 14)), (1, 2, 5)[k % 3]
        kind = k % 4
        if kind == 0:
            pts = rng.normal(size=(n, d)) * rng.uniform(0.1, 10)
        elif kind == 1:
            n = max(n, 3)
            pts = _nnm(rng.normal(size=(n, d)) * rng.uniform(0.1, 10), int(rng.integers(1, (n - 1) // 2 + 1)))
        elif kind == 2:
            pts = rng.normal(size=(n, 1)) * rng.normal(size=(1, d)) + rng.normal(size=(1, d))
        else:
            n = int(rng.integers(2, 7))
            pts = rng.normal(size=(n, int(rng.integers(n + 1, 20))))
        yield pts
        if k % 32 in (1, 3):  # an NNM-mixed cloud and one with d > n
            yield pts * 1e200
            yield pts * 1e-200


def test_weiszfeld_equals_the_newton_oracle_bitwise():
    rng = np.random.default_rng(20)
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pts in solver_clouds(rng):
            results.append(assert_same_solve(pts))
        vardi_zhang = 0
        for pts in central_row_clouds(rng, 80):
            vardi_zhang += assert_same_solve(pts).iterations > 0  # the first step starts on a row
            results.append(assert_same_solve(pts, tol=1e-13, max_iters=3))
    data_point = sum(result.iterations == 0 for result in results)
    assert 0 < data_point < len(results) / 2
    assert vardi_zhang >= 20
    assert max(result.iterations for result in results) == 500  # a 1e200 cloud spends every step


def assert_stack_solves_alone(stack, **kwargs):
    got = weiszfeld(stack, **kwargs)
    alone = [oracle_newton_weiszfeld(pts, **kwargs) for pts in stack]
    assert got.point.shape == (stack.shape[0], stack.shape[2])
    for row, want in zip(got.point, alone):
        assert row.tobytes() == want.point.tobytes()
    assert got.iterations == max(want.iterations for want in alone)  # the most any cloud took
    assert got.displacement == max(want.displacement for want in alone)
    return alone


def test_stacked_weiszfeld_equals_each_cloud_alone():
    # the clouds of the bitwise oracle test, stacked by shape
    rng = np.random.default_rng(20)
    groups = {}
    for pts in list(solver_clouds(rng)) + list(central_row_clouds(rng, 80)):
        groups.setdefault(pts.shape, []).append(pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for group in groups.values():
            for kwargs in ({}, {"tol": 1e-13, "max_iters": 3}):
                assert_stack_solves_alone(np.stack(group), **kwargs)


def test_one_stack_holds_every_exit_and_a_singular_hessian():
    rng = np.random.default_rng(22)
    majority = np.array([[0.0, 0.0]] * 4 + [[1.0, 2.0], [-3.0, 1.0]])  # Kuhn's test passes at (0, 0)
    collinear = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [7.0, 0.0], [8.0, 0.0], [12.0, 0.0]])  # H is singular
    central = next(pts for pts in central_row_clouds(rng, 200)
                   if pts.shape == (6, 2) and oracle_newton_weiszfeld(pts).iterations > 0)  # a Vardi-Zhang step
    far = rng.normal(size=(6, 2)) * 1e200  # spends every step
    stack = np.stack([majority, collinear, central, far])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = assert_stack_solves_alone(stack)
    # a Kuhn exit, a Vardi-Zhang step from the central rows, a solve that
    # spends every step
    assert alone[0].iterations == 0 and alone[2].iterations > 0 and alone[3].iterations == 500


COLLINEAR = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [7.0, 0.0], [8.0, 0.0], [12.0, 0.0]])  # H is singular


def test_weiszfeld_leaves_the_errstate_as_it_found_it(monkeypatch):
    # the singular Hessian's all-NaN solve is silenced inside weiszfeld
    # alone: called outside any errstate, with warnings as errors, both as a
    # cloud and inside a stack, the result keeps the oracle's bytes and
    # np.geterr() is what it was
    solves, gufuncs = [], aggregators._umath_linalg

    def spy(*args, **kwargs):
        solves.append(gufuncs.solve1(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(aggregators, "_umath_linalg", SimpleNamespace(solve1=spy))
    want = oracle_newton_weiszfeld(COLLINEAR)
    rng = np.random.default_rng(23)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = weiszfeld(COLLINEAR)
        assert np.geterr() == before
        stacked = weiszfeld(np.stack([rng.normal(size=(6, 2)), COLLINEAR]))
        assert np.geterr() == before
    assert any(np.isnan(s).all() for s in solves)  # the singular solve ran
    assert alone.point.tobytes() == stacked.point[1].tobytes() == want.point.tobytes()
    assert (alone.iterations, alone.displacement) == (want.iterations, want.displacement)


def newton_systems(rng):
    """Random SPD, indefinite and singular d x d systems for d in 1..8; the
    singular ones are small integer matrices, whose LU meets an exact zero
    pivot."""
    for d in range(1, 9):
        for _ in range(30):
            a = rng.normal(size=(d, d))
            b = rng.normal(size=d)
            yield a @ a.T + 1e-3 * np.eye(d), b  # SPD
            yield a + a.T, b  # indefinite
            yield rng.integers(-1, 2, size=(d, d)).astype(float), b  # often singular
        yield np.zeros((d, d)), b
    yield np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2)
    yield np.array([[2.0, 0.0], [0.0, 0.0]]), np.array([0.5, 0.0])  # a collinear cloud's H, flat along its line


def test_newton_gufunc_is_what_np_linalg_solve_computes():
    # weiszfeld calls numpy's gesv gufunc without np.linalg.solve's wrapper;
    # a numpy release that moves or changes it fails here
    rng = np.random.default_rng(24)
    singular = 0
    for hessian, pull in newton_systems(rng):
        try:
            want = np.linalg.solve(hessian, pull)
        except np.linalg.LinAlgError:
            want = None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
                got = aggregators._umath_linalg.solve1(hessian, pull, signature="dd->d")
        if want is None:
            singular += 1
            assert got.shape == pull.shape and np.isnan(got).all()
            # outside that errstate the failure is a warning, not a silent NaN
            with pytest.warns(RuntimeWarning, match="invalid value"):
                aggregators._umath_linalg.solve1(hessian, pull, signature="dd->d")
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert singular >= 20


def test_distance_matrix_einsum_is_what_np_einsum_computes():
    # the squared distance matrix calls numpy's C einsum without np.einsum's
    # wrapper; a numpy release that moves or changes it fails here
    rng = np.random.default_rng(25)
    for _ in range(300):
        n, d = int(rng.integers(3, 20)), int(rng.integers(1, 12))
        shape = (n, d) if rng.random() < 0.5 else (int(rng.integers(1, 5)), n, d)
        pts = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        diff = pts[..., :, None, :] - pts[..., None, :, :]
        want = np.einsum("...ijk,...ijk->...ij", diff, diff)
        got = aggregators._sq_distance_matrix(pts)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_kuhn_equals_its_oracle():
    # the oracle takes the points x along the first axis and the rows along
    # the second; _kuhn takes the rows first
    rng = np.random.default_rng(21)
    for pts in list(solver_clouds(rng))[::3] + list(central_row_clouds(rng, 20)):
        half = 0.5 * pts
        block = half[:, None, :] - half[None, :, :]
        assert np.array_equal(_kuhn(block), oracle_kuhn(block.transpose(1, 0, 2)))
        n, d = pts.shape
        near = np.vstack([pts, pts[0] + 1e-13 * np.abs(pts[0]) * rng.normal(size=(2, d))])
        spread = float(np.abs(near - near[0]).max())
        for merge in (0.0, n * d * EPS, 1e-12 * spread, 1e-3 * spread):
            for k in (0, n - 1, n):
                offsets = near - near[k]
                assert np.array_equal(_kuhn(offsets, merge), oracle_kuhn(offsets, merge))


# ---------------------------------------------------------------------------
# krum

def test_krum_examples_against_oracle():
    pts = [0.0, 0.0, 0.0, 10.0]
    assert oracle_krum_index(pts, 1) == 0
    assert aggregate(AggregatorSpec("krum", f_hat=1), pts)[0] == 0.0
    v = np.array([4.0, 4.0])
    assert np.array_equal(aggregate(AggregatorSpec("krum", f_hat=2), [v] * 5), v)
    # squared distances select the point 2, where plain distances would tie
    # four ways; pinned to the brute-force oracle
    pts = [0.0, 1.0, 2.0, 9.0, 10.0, 11.0]
    assert oracle_krum_index(pts, 2) == 2
    assert aggregate(AggregatorSpec("krum", f_hat=2), pts)[0] == 2.0


def test_krum_brute_force_equivalence():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 3))
        f_hat = int(rng.integers(0, (n - 1) // 2 + 1))
        pts = rng.integers(-5, 6, size=(n, d)).astype(float)
        spec = AggregatorSpec("krum", f_hat=f_hat)
        assert np.array_equal(aggregate(spec, pts), pts[oracle_krum_index(pts, f_hat)])


def test_krum_selection_property():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(7, 3))
    out = aggregate(AggregatorSpec("krum", f_hat=2), pts)
    assert any(np.array_equal(out, p) for p in pts)


def test_krum_parameter_error():
    with pytest.raises(ParameterError):
        aggregate(AggregatorSpec("krum", f_hat=2), [1.0, 2.0, 3.0, 4.0])


# ---------------------------------------------------------------------------
# nearest-neighbour mixing

def test_nnm_examples_against_oracle():
    pts = [0.0, 1.0, 10.0]
    got = _nnm(stack_points(pts), 1)
    assert np.array_equal(got, oracle_nnm([[0.0], [1.0], [10.0]], 1))
    assert got.ravel() == pytest.approx([0.5, 0.5, 5.5])

    rng = np.random.default_rng(5)
    cloud = rng.normal(size=(5, 2))
    assert _nnm(stack_points(cloud), 0) == pytest.approx(np.tile(aggregate(MEAN, cloud), (5, 1)), abs=1e-12)

    v = np.array([1.0, 2.0])
    assert np.array_equal(_nnm(stack_points([v] * 4), 1), np.tile(v, (4, 1)))


def test_nnm_brute_force_equivalence():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 3))
        f_hat = int(rng.integers(0, (n - 1) // 2 + 1))
        pts = rng.integers(-5, 6, size=(n, d)).astype(float)
        assert np.array_equal(_nnm(stack_points(pts), f_hat), oracle_nnm(pts, f_hat))


# The vectorised kernels as they stood before their numpy calls were cut,
# kept verbatim as bit-exact oracles.  The brute-force tests above use small
# integer clouds, where every sum is exact, so they cannot see a change of
# rounding; these run on float clouds.

def vector_oracle_sq_distance_matrix(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def vector_oracle_neighbor_indices(d2, f_hat):
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, : d2.shape[0] - f_hat]


def vector_oracle_krum_index(pts, f_hat):
    d2 = vector_oracle_sq_distance_matrix(pts)
    neighbors = vector_oracle_neighbor_indices(d2, f_hat)
    scores = np.take_along_axis(d2, neighbors, axis=1).sum(axis=1)
    return int(np.argmin(scores))


def vector_oracle_nnm(pts, f_hat):
    return pts[vector_oracle_neighbor_indices(vector_oracle_sq_distance_matrix(pts), f_hat)].mean(axis=1)


def kernel_clouds(rng, n, d):
    """A float cloud, and one drawn from at most n/3 distinct rows, so that
    distances and Krum scores tie exactly."""
    cloud = rng.uniform(0.1, 10.0) * rng.standard_normal((n, d))
    distinct = rng.standard_normal((max(n // 3, 1), d))
    return cloud, distinct[rng.integers(0, distinct.shape[0], size=n)]


@pytest.mark.parametrize("d", [1, 5, 200])
def test_krum_and_nnm_kernels_equal_vectorised_oracles_bitwise(d):
    rng = np.random.default_rng([14, d])
    for n in range(3, 17):
        cloud, duplicated = kernel_clouds(rng, n, d)
        # a repeated row is as near its copy as itself: the stable sort breaks a tie
        assert np.any(np.diff(np.sort(_sq_distance_matrix(duplicated), axis=1), axis=1) == 0)
        for pts in (cloud, duplicated):
            d2 = _sq_distance_matrix(pts)
            assert np.array_equal(d2, vector_oracle_sq_distance_matrix(pts))
            for f_hat in range(-(-n // 2)):
                assert np.array_equal(_neighbor_indices(d2, f_hat), vector_oracle_neighbor_indices(d2, f_hat))
                mixed = _nnm(pts, f_hat)
                assert np.array_equal(mixed, vector_oracle_nnm(pts, f_hat)), (n, f_hat)
                for points in (pts, mixed):
                    assert _krum_index(points, f_hat) == vector_oracle_krum_index(points, f_hat), (n, f_hat)


# ---------------------------------------------------------------------------
# dispatch

ALL_SPECS = [
    AggregatorSpec("mean"),
    AggregatorSpec("cwtm", f_hat=1),
    AggregatorSpec("cwmed"),
    AggregatorSpec("gm", gm_tolerance=1e-10),
    AggregatorSpec("krum", f_hat=1),
    AggregatorSpec("krum", f_hat=1, pre_nnm=True),
]


def test_aggregate_dispatch_examples():
    v = np.array([2.0, -1.0])
    spec = AggregatorSpec("krum", f_hat=1, pre_nnm=True)
    assert aggregate(spec, [v] * 5) == pytest.approx(v, abs=1e-12)
    assert aggregate(AggregatorSpec("cwtm", f_hat=1), [0, 0, 0, 1, 1])[0] == pytest.approx(1 / 3)
    assert aggregate(AggregatorSpec("mean"), [0.0, 2.0])[0] == 1.0


def test_aggregate_name_and_validation():
    assert AggregatorSpec("krum", f_hat=2, pre_nnm=True).name == "krum_nnm"
    assert AggregatorSpec("cwmed").name == "cwmed"
    with pytest.raises(ParameterError):
        AggregatorSpec("nope")
    with pytest.raises(ParameterError):
        AggregatorSpec("gm", gm_tolerance=0.0)
    with pytest.raises(ParameterError, match="gm_tolerance"):
        AggregatorSpec("gm", gm_tolerance=float("nan"))
    with pytest.raises(ParameterError):
        aggregate(AggregatorSpec("cwmed", f_hat=3, pre_nnm=True), np.zeros((5, 2)))
    # integers are Python or numpy integers, and a bool is not one
    for value in (2.5, 0, -3, True, np.float64(3.0)):
        with pytest.raises(ParameterError, match="gm_max_iters"):
            AggregatorSpec("gm", gm_max_iters=value)
    for value in (1.5, -1, True, np.float64(1.0)):
        with pytest.raises(ParameterError, match="f_hat"):
            AggregatorSpec("cwtm", f_hat=value)
    assert AggregatorSpec("cwtm", f_hat=np.int64(1)).f_hat == 1
    assert AggregatorSpec("gm", gm_max_iters=np.int32(1)).gm_max_iters == 1


# The per-rule public functions that ``aggregate`` replaced, kept verbatim
# as the oracle of the bitwise composition test below.

def _check_f_hat(n: int, f_hat: int) -> None:
    if not 0 <= f_hat < n / 2:
        raise ParameterError(f"require 0 <= f_hat < n/2, got f_hat={f_hat} with n={n}")


def mean(xs) -> np.ndarray:
    """Coordinate-wise arithmetic mean."""
    return stack_points(xs).mean(axis=0)


def cwtm(xs, f_hat: int) -> np.ndarray:
    """Coordinate-wise trimmed mean.

    Per coordinate, drops the f_hat smallest and f_hat largest values and
    averages the n - 2*f_hat that remain.
    """
    pts = stack_points(xs)
    _check_f_hat(pts.shape[0], f_hat)
    return _cwtm(pts, f_hat)


def cwmed(xs) -> np.ndarray:
    """Coordinate-wise median (midpoint of the two central order statistics
    for even counts)."""
    return np.median(stack_points(xs), axis=0)


def krum(xs, f_hat: int) -> np.ndarray:
    """Krum selection rule: returns the input point with the smallest summed
    squared distance to its n - f_hat nearest neighbours (ties to the lowest
    index)."""
    pts = stack_points(xs)
    _check_f_hat(pts.shape[0], f_hat)
    return pts[_krum_index(pts, f_hat)].copy()


def nnm(xs, f_hat: int) -> np.ndarray:
    """Nearest-neighbour mixing: replaces each point by the mean of its
    n - f_hat nearest neighbours (self included).  Returns an (n, d) matrix."""
    pts = stack_points(xs)
    _check_f_hat(pts.shape[0], f_hat)
    return _nnm(pts, f_hat)


def composed_aggregate(spec, xs):
    """``aggregate`` as a composition of the per-rule functions above, each
    validating its own input."""
    pts = np.asarray(xs, dtype=float)
    if spec.pre_nnm:
        pts = nnm(pts, spec.f_hat)
    if spec.kind == "mean":
        return mean(pts)
    if spec.kind == "cwtm":
        return cwtm(pts, spec.f_hat)
    if spec.kind == "cwmed":
        return cwmed(pts)
    if spec.kind == "gm":
        return weiszfeld(pts, spec.gm_tolerance, spec.gm_max_iters).point
    return krum(pts, spec.f_hat)


def test_aggregate_matches_public_rule_composition_bitwise():
    rng = np.random.default_rng(21)
    clouds = [rng.normal(size=(n, d)) * rng.uniform(0.1, 10) for n, d in ((5, 1), (10, 5), (16, 3))]
    clouds.append(np.vstack([np.tile([0.3, -1.7], (6, 1)), rng.normal(size=(4, 2))]))
    for pts in clouds:
        top = -(-len(pts) // 2) - 1
        for kind in ("mean", "cwtm", "cwmed", "gm", "krum"):
            for pre_nnm in (False, True):
                for f_hat in range(top + 1):
                    spec = AggregatorSpec(kind, f_hat=f_hat, pre_nnm=pre_nnm)
                    got = aggregate(spec, pts)
                    want = composed_aggregate(spec, pts)
                    assert got.tobytes() == want.tobytes(), (spec, pts.shape)


def test_aggregate_of_a_stack_equals_each_cloud_alone():
    rng = np.random.default_rng(23)
    for n, d in ((5, 1), (9, 2), (10, 5), (16, 1), (12, 9)):
        stack = rng.normal(size=(6, n, d)) * rng.uniform(0.1, 10, size=(6, 1, 1))
        stack[3] = stack[3][rng.integers(0, 2, n)]  # repeated rows: ties in every sort
        for spec in [AggregatorSpec(kind, f_hat=2, pre_nnm=nnm) for kind in KINDS for nnm in (False, True)]:
            got = aggregate(spec, stack)
            assert got.shape == (6, d)
            for row, pts in zip(got, stack):
                assert row.tobytes() == aggregate(spec, pts).tobytes(), (spec, n, d)
            assert aggregate(spec, stack[:1]).tobytes() == got[:1].tobytes()


def test_every_public_rule_validates_its_input():
    nan_points = np.array([[0.0, 1.0], [np.nan, 2.0], [1.0, 1.0], [2.0, 0.0], [3.0, 3.0]])
    cube = np.zeros((5, 2, 2, 2))  # (R, n, d) is a stack of clouds; one more axis is not
    specs = [AggregatorSpec(kind, f_hat=1) for kind in ("mean", "cwtm", "cwmed", "gm", "krum")]
    specs.append(AggregatorSpec("krum", f_hat=1, pre_nnm=True))
    rules = [weiszfeld] + [lambda xs, spec=spec: aggregate(spec, xs) for spec in specs]
    nan_stack = np.stack([np.nan_to_num(nan_points)] * 2 + [nan_points])  # the NaN is in the last cloud
    for rule in rules:
        with pytest.raises(ValueError, match="finite"):
            rule(nan_points)
        with pytest.raises(ValueError, match="finite"):
            rule(nan_stack)
        with pytest.raises(DimensionError, match="stack"):
            rule(cube)
        with pytest.raises(DimensionError, match="at least one"):
            rule(np.zeros((0, 5, 2)))


# ---------------------------------------------------------------------------
# invariants

@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_zero_variance_collapse(spec):
    # A majority of identical points forces the output onto that point.
    rng = np.random.default_rng(7)
    v = np.array([0.3, -1.7])
    pts = np.vstack([np.tile(v, (4, 1)), rng.normal(size=(1, 2)) * 50])
    if spec.kind == "mean":
        return  # plain averaging has no collapse guarantee
    out = aggregate(spec, pts)
    tol = 1e-8 if spec.kind == "gm" else 1e-12
    assert out == pytest.approx(v, abs=tol)


finite_floats = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def integer_clouds(draw):
    n = draw(st.integers(2, 7))
    d = draw(st.integers(1, 3))
    pts = draw(arrays(np.float64, (n, d), elements=st.integers(-8, 8).map(float)))
    return pts


@st.composite
def float_clouds(draw):
    n = draw(st.integers(2, 7))
    d = draw(st.integers(1, 3))
    pts = draw(arrays(np.float64, (n, d), elements=finite_floats))
    return pts


@settings(max_examples=60, deadline=None)
@given(pts=integer_clouds(), f_hat_seed=st.integers(0, 100), shift=st.integers(-20, 20))
def test_translation_equivariance_selection_rules(pts, f_hat_seed, shift):
    # Integer grids keep the pairwise distances exact under translation, so
    # the same points are selected; Krum then commutes exactly, NNM up to
    # the rounding of the neighbour average.
    n = pts.shape[0]
    f_hat = f_hat_seed % ((n - 1) // 2 + 1)
    c = float(shift) * np.ones(pts.shape[1])
    scale = max(1.0, np.abs(pts).max(), abs(float(shift)))
    krum_spec = AggregatorSpec("krum", f_hat=f_hat)
    assert np.array_equal(aggregate(krum_spec, pts + c), aggregate(krum_spec, pts) + c)
    mixed = _nnm(stack_points(pts), f_hat)
    assert _nnm(stack_points(pts + c), f_hat) == pytest.approx(mixed + c, abs=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(pts=float_clouds(), f_hat_seed=st.integers(0, 100), shift=st.floats(-50, 50, allow_nan=False))
def test_translation_equivariance_averaging_rules(pts, f_hat_seed, shift):
    n = pts.shape[0]
    f_hat = f_hat_seed % ((n - 1) // 2 + 1)
    c = shift * np.ones(pts.shape[1])
    scale = max(1.0, np.abs(pts).max(), abs(shift))
    for spec in (MEAN, AggregatorSpec("cwtm", f_hat=f_hat), CWMED):
        assert aggregate(spec, pts + c) == pytest.approx(aggregate(spec, pts) + c, abs=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(pts=float_clouds(), f_hat_seed=st.integers(0, 100), alpha=st.floats(0.01, 50, allow_nan=False))
def test_positive_scaling_equivariance(pts, f_hat_seed, alpha):
    n = pts.shape[0]
    f_hat = f_hat_seed % ((n - 1) // 2 + 1)
    scale = max(1.0, alpha * np.abs(pts).max())
    for spec in (MEAN, AggregatorSpec("cwtm", f_hat=f_hat), CWMED):
        assert aggregate(spec, alpha * pts) == pytest.approx(alpha * aggregate(spec, pts), abs=1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(pts=integer_clouds(), f_hat_seed=st.integers(0, 100), alpha=st.sampled_from([0.5, 2.0, 4.0]))
def test_scaling_equivariance_selection_rules(pts, f_hat_seed, alpha):
    # Power-of-two scales keep squared distances exact, so selection is
    # unchanged and outputs scale exactly.
    n = pts.shape[0]
    f_hat = f_hat_seed % ((n - 1) // 2 + 1)
    krum_spec = AggregatorSpec("krum", f_hat=f_hat)
    assert np.array_equal(aggregate(krum_spec, alpha * pts), alpha * aggregate(krum_spec, pts))
    assert np.array_equal(_nnm(stack_points(alpha * pts), f_hat), alpha * _nnm(stack_points(pts), f_hat))


@settings(max_examples=60, deadline=None)
@given(pts=float_clouds(), perm_seed=st.integers(0, 10000))
def test_permutation_invariance_averaging_rules(pts, perm_seed):
    n = pts.shape[0]
    perm = np.random.default_rng(perm_seed).permutation(n)
    f_hat = (n - 1) // 2
    scale = max(1.0, np.abs(pts).max())
    # mean is only order-invariant up to summation rounding; the sorting
    # rules are bitwise identical.
    assert aggregate(MEAN, pts[perm]) == pytest.approx(aggregate(MEAN, pts), abs=1e-12 * scale)
    cwtm_spec = AggregatorSpec("cwtm", f_hat=f_hat)
    assert np.array_equal(aggregate(cwtm_spec, pts[perm]), aggregate(cwtm_spec, pts))
    assert np.array_equal(aggregate(CWMED, pts[perm]), aggregate(CWMED, pts))
    assert weiszfeld(pts[perm]).point == pytest.approx(weiszfeld(pts).point, abs=1e-6 * scale)


@pytest.mark.xfail(strict=True, reason=(
    "the absolute step tolerance stops on an objective flat to 1e-14 over 0.12, at a point "
    "that depends on the row order; ROADMAP item 6's certified stop rule is the mend"))
def test_permutation_invariance_gm_on_a_flat_objective():
    # an example test_permutation_invariance_averaging_rules draws at random
    pts = np.array([[0.0, -3.0], [0.0, -2.0], [1e-5, 0.0], [0.0, 0.0]])
    perm = np.random.default_rng(0).permutation(4)
    assert weiszfeld(pts[perm]).point == pytest.approx(weiszfeld(pts).point, abs=1e-6 * 3.0)


@settings(max_examples=60, deadline=None)
@given(pts=integer_clouds(), perm_seed=st.integers(0, 10000))
def test_permutation_invariance_selection_rules_tie_free(pts, perm_seed):
    n = pts.shape[0]
    f_hat = (n - 1) // 2
    # Guard: only assert when every neighbour choice is strict (tie-free).
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    ordered = np.sort(d2, axis=1)
    cut = n - f_hat
    if cut < n and np.any(ordered[:, cut - 1] == ordered[:, cut]):
        return
    scores = np.sort(np.take_along_axis(d2, np.argsort(d2, axis=1)[:, :cut], axis=1).sum(axis=1))
    if n > 1 and scores[0] == scores[1]:
        return
    perm = np.random.default_rng(perm_seed).permutation(n)
    krum_spec = AggregatorSpec("krum", f_hat=f_hat)
    assert np.array_equal(aggregate(krum_spec, pts[perm]), aggregate(krum_spec, pts))
    mixed = _nnm(stack_points(pts), f_hat)
    assert np.array_equal(np.sort(_nnm(stack_points(pts[perm]), f_hat), axis=0), np.sort(mixed, axis=0))


def test_gm_translation_and_scaling_within_tolerance():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(6, 2)) * 3
    tol = 1e-10
    base = weiszfeld(pts, tol=tol).point
    shifted = weiszfeld(pts + 5.0, tol=tol).point
    assert shifted == pytest.approx(base + 5.0, abs=1e-7)
    scaled = weiszfeld(2.5 * pts, tol=tol).point
    assert scaled == pytest.approx(2.5 * base, abs=1e-7)


@settings(max_examples=60, deadline=None)
@given(pts=st.one_of(integer_clouds(), float_clouds()), f_hat_seed=st.integers(0, 100), mix=st.booleans())
def test_gm_matches_oracle_property(pts, f_hat_seed, mix):
    if mix:
        pts = _nnm(pts, f_hat_seed % ((pts.shape[0] - 1) // 2 + 1))
    check_against_oracle(pts)
