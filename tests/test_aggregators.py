"""Aggregation rules against independent brute-force oracles and the
documented invariants."""

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedrobust import AggregatorSpec, DimensionError, ParameterError, aggregate, weiszfeld
from fedrobust import aggregators
from fedrobust.aggregators import (
    WeiszfeldResult, _cwtm, _krum_index, _neighbor_indices, _nnm, _sq_distance_matrix, stack_points,
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


def oracle_krum_index(pts, f_hat, squared=True):
    n = len(pts)
    best_k, best_score = None, None
    for k in range(n):
        score = 0.0
        for i in oracle_neighbors(pts, k, n - f_hat):
            d2 = _sqdist(pts[k], pts[i])
            score += d2 if squared else math.sqrt(d2)
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
# krum

def test_krum_examples_against_oracle():
    pts = [0.0, 0.0, 0.0, 10.0]
    assert oracle_krum_index(pts, 1) == 0
    assert aggregate(AggregatorSpec("krum", f_hat=1), pts)[0] == 0.0
    v = np.array([4.0, 4.0])
    assert np.array_equal(aggregate(AggregatorSpec("krum", f_hat=2), [v] * 5), v)
    # Scores for the two distance conventions disagree on this instance:
    # squared selects the point 2, unsquared ties four ways and the lowest
    # index wins with point 1.  Both are pinned to the brute-force oracle.
    pts = [0.0, 1.0, 2.0, 9.0, 10.0, 11.0]
    assert oracle_krum_index(pts, 2, squared=True) == 2
    assert aggregate(AggregatorSpec("krum", f_hat=2, krum_squared=True), pts)[0] == 2.0
    assert oracle_krum_index(pts, 2, squared=False) == 1
    assert aggregate(AggregatorSpec("krum", f_hat=2, krum_squared=False), pts)[0] == 1.0


def test_krum_brute_force_equivalence():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 3))
        f_hat = int(rng.integers(0, (n - 1) // 2 + 1))
        pts = rng.integers(-5, 6, size=(n, d)).astype(float)
        for squared in (True, False):
            spec = AggregatorSpec("krum", f_hat=f_hat, krum_squared=squared)
            assert np.array_equal(aggregate(spec, pts), pts[oracle_krum_index(pts, f_hat, squared)])


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


def vector_oracle_krum_index(pts, f_hat, squared):
    d2 = vector_oracle_sq_distance_matrix(pts)
    neighbors = vector_oracle_neighbor_indices(d2, f_hat)
    scores_matrix = d2 if squared else np.sqrt(d2)
    scores = np.take_along_axis(scores_matrix, neighbors, axis=1).sum(axis=1)
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
                for squared in (True, False):
                    for points in (pts, mixed):
                        got = _krum_index(points, f_hat, squared)
                        assert got == vector_oracle_krum_index(points, f_hat, squared), (n, f_hat, squared)


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
    with pytest.raises(ParameterError):
        aggregate(AggregatorSpec("cwmed", f_hat=3, pre_nnm=True), np.zeros((5, 2)))


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


def krum(xs, f_hat: int, squared: bool = True) -> np.ndarray:
    """Krum selection rule: returns the input point with the smallest summed
    distance to its n - f_hat nearest neighbours (ties to the lowest index)."""
    pts = stack_points(xs)
    _check_f_hat(pts.shape[0], f_hat)
    return pts[_krum_index(pts, f_hat, squared)].copy()


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
    return krum(pts, spec.f_hat, spec.krum_squared)


def test_aggregate_matches_public_rule_composition_bitwise():
    rng = np.random.default_rng(21)
    clouds = [rng.normal(size=(n, d)) * rng.uniform(0.1, 10) for n, d in ((5, 1), (10, 5), (16, 3))]
    clouds.append(np.vstack([np.tile([0.3, -1.7], (6, 1)), rng.normal(size=(4, 2))]))
    for pts in clouds:
        top = -(-len(pts) // 2) - 1
        for kind in ("mean", "cwtm", "cwmed", "gm", "krum"):
            for pre_nnm in (False, True):
                for f_hat in range(top + 1):
                    for squared in (True, False):
                        spec = AggregatorSpec(kind, f_hat=f_hat, pre_nnm=pre_nnm, krum_squared=squared)
                        got = aggregate(spec, pts)
                        want = composed_aggregate(spec, pts)
                        assert got.tobytes() == want.tobytes(), (spec, pts.shape)


def test_every_public_rule_validates_its_input():
    nan_points = np.array([[0.0, 1.0], [np.nan, 2.0], [1.0, 1.0], [2.0, 0.0], [3.0, 3.0]])
    cube = np.zeros((5, 2, 2))
    specs = [AggregatorSpec(kind, f_hat=1) for kind in ("mean", "cwtm", "cwmed", "gm", "krum")]
    specs.append(AggregatorSpec("krum", f_hat=1, pre_nnm=True))
    rules = [weiszfeld] + [lambda xs, spec=spec: aggregate(spec, xs) for spec in specs]
    for rule in rules:
        with pytest.raises(ValueError):
            rule(nan_points)
        with pytest.raises(DimensionError):
            rule(cube)


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
