"""Robustness auditing: error ratios, worst-subset search, and the two
adversarial witness families."""

import json
import math
import os
import re
import sys
import threading
import tracemalloc
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from fedrobust import (
    INFINITE_RATIO,
    AggregatorSpec,
    AuditResult,
    ParameterError,
    aggregate,
    audit_profile,
    cwtm_break_witness,
    empirical_kappa,
    error_ratio,
    lower_bound_witness,
)
from fedrobust import audit
from fedrobust.aggregators import _aggregate, stack_points
from fedrobust.audit import (
    BLOCK,
    GATHER_ALL_MAX,
    GUARD,
    ZERO_ERROR_EPS,
    _all_subsets,
    _candidates,
    _fast_error_bound,
    _fast_ratios,
    _gathered_ratios,
    _key_subsets,
    _moment_columns,
    _subset_weights,
    _subsets,
    _threshold_weights,
    random_cloud,
    to_jsonl_row,
)


# ---------------------------------------------------------------------------
# oracles

def oracle_ratio(output, pts, subset):
    """Plain-Python recomputation of the error/variance ratio."""
    pts = np.asarray(pts, dtype=float).reshape(len(pts), -1)
    chosen = [pts[i] for i in subset]
    center = sum(chosen) / len(chosen)
    err = float(np.sum((np.asarray(output) - center) ** 2))
    var = sum(float(np.sum((x - center) ** 2)) for x in chosen) / len(chosen)
    if var == 0.0:
        return 0.0 if err <= 1e-18 else INFINITE_RATIO
    return err / var


def oracle_worst_ratio(spec, pts, f):
    pts = np.asarray(pts, dtype=float).reshape(len(pts), -1)
    output = aggregate(spec, pts)
    n = len(pts)
    return max(oracle_ratio(output, pts, s) for s in combinations(range(n), n - f))


@lru_cache(maxsize=None)
def oracle_all_subsets(n, size):
    """Every size-subset of range(n) as rows of an index array, in
    lexicographic order."""
    return np.array(list(combinations(range(n), size)), dtype=np.intp)


def oracle_batch_ratios(output, pts, subsets):
    """Gathered ratios for many subsets at once; subsets is (num, size)."""
    chosen = pts[subsets]                       # (num, size, d)
    centers = chosen.mean(axis=1)               # (num, d)
    err = ((output[None, :] - centers) ** 2).sum(axis=1)
    var = ((chosen - centers[:, None, :]) ** 2).sum(axis=2).mean(axis=1)
    ratios = np.empty(subsets.shape[0])
    zero = var == 0.0
    np.divide(err, var, out=ratios, where=~zero)
    ratios[zero] = np.where(err[zero] <= ZERO_ERROR_EPS, 0.0, INFINITE_RATIO)
    return ratios


def oracle_kappa(spec, xs, f, subset_budget=20000, seed=0):
    """(worst_ratio, worst_subset) by scoring every candidate subset with the
    gathered formula; the same subsets, in the same order, as
    ``empirical_kappa``."""
    pts = np.asarray(xs, dtype=float).reshape(len(xs), -1)
    n = pts.shape[0]
    size = n - f
    output = aggregate(spec, pts)
    if math.comb(n, f) <= subset_budget:
        subsets = oracle_all_subsets(n, size)
    else:
        rng = np.random.default_rng(seed)
        sampled = np.argsort(rng.random((subset_budget, n)), axis=1)[:, :size]
        sampled.sort(axis=1)
        anchors = np.array([list(range(size)), list(range(f, n))], dtype=np.intp)
        subsets = np.vstack([anchors, sampled])
    ratios = oracle_batch_ratios(output, pts, subsets)
    worst = int(np.argmax(ratios))
    return float(ratios[worst]), tuple(int(i) for i in subsets[worst])


# The float64 screen: the guard, the rounding bound and the moment columns
# of the audit before its screen ran in float32.  It reports the same
# worst ratios and subsets, bit for bit, from a float64 product.
ORACLE_GUARD = 1e-5


def oracle_fast_error_bound(ratio, var, size, d, length):
    """The float64 screen's bound on |fast ratio - gathered ratio|, with
    ``length`` >= max|x_i| + max|c_i| and ``var`` in the units of the points."""
    b = (size + d + 4) * float(np.finfo(np.float64).eps)
    spread = length * math.sqrt(ratio / var)
    return 2.0 * b * (5 * ratio + 3 * ratio * ratio + 2 * (1 + ratio) * spread
                      + ratio * b * length * length / var)


def oracle_moment_columns(pts, outputs):
    """The float64 (n, k (d + 1)) matrix [c_1 | q_1 | ... | c_k | q_k], unscaled,
    and for each output a bound on max|x_i| + max|c_i|."""
    n, d = pts.shape
    columns = np.empty((n, len(outputs) * (d + 1)))
    lengths = []
    for k, output in enumerate(outputs):
        block = columns[:, k * (d + 1) : (k + 1) * (d + 1)]
        c = np.subtract(pts, output, out=block[:, :d])
        sq_norms = np.add.reduce(c * c, axis=1, out=block[:, d])
        lengths.append(2.0 * math.sqrt(np.maximum.reduce(sq_norms)) + math.sqrt(output @ output))
    return columns, lengths


def oracle_fast_ratios(moments, guard=ORACLE_GUARD):
    """Each row's fast ratio, -inf where the guard holds, and fast variance,
    from one output's (num, d + 1) block [m | q] of a row-major product."""
    d = moments.shape[1] - 1
    q = moments[:, d]
    err = moments[:, 0] * moments[:, 0]
    for j in range(1, d):
        err += moments[:, j] * moments[:, j]
    var = q - err
    return np.divide(err, var, out=np.full(q.shape, -np.inf), where=var > guard * q), var


def oracle_candidates(moments, size, length, guard=ORACLE_GUARD, bound=oracle_fast_error_bound):
    """The guarded subsets and the window of one output's (num, d + 1) block
    [m | q] of a whole-budget product; the float64 screen's by default."""
    d = moments.shape[1] - 1
    ratios, var = oracle_fast_ratios(moments, guard)
    fast = ratios > -np.inf
    candidates = ~fast
    top = float(ratios.max())
    if top > -np.inf:
        slack = bound(top, float(var.min(where=fast, initial=np.inf)), size, d, length)
        candidates |= ~(ratios < np.float64(top - 2.0 * slack))  # compared in float64
    return np.flatnonzero(candidates)


def oracle_column_fast_ratios(moments, out):
    """Write to ``out`` each subset's fast ratio from one output's rows [m; q] of
    the product, NaN where the guard holds; return the least fast variance.
    ``audit._fast_ratios`` as it was before it consumed its block: it reads
    ``moments`` and leaves it as it was."""
    d = moments.shape[0] - 1
    q = moments[d]
    err = np.add.reduce(moments[:d] * moments[:d], axis=0)  # row by row, in order of j
    var = q - err
    np.copyto(var, np.nan, where=var <= GUARD * q)  # the guard: NaN var, as for overflowed rows
    np.divide(err, var, out=out)
    return float(np.fmin.reduce(var, initial=np.inf))


def oracle_threshold_weights(keys, cut, size, out):
    """Write to ``out`` the weights of :func:`_key_subsets`, given each row's
    size-th and (size + 1)-th smallest keys as ``cut``: its keys up to the
    size-th smallest, or its own subset where that key ties the next one.
    ``audit._threshold_weights`` as it was before it compared into ``out``."""
    np.multiply(keys <= cut[:, :1], 1.0 / size, out=out)
    tied = np.flatnonzero(cut[:, 0] == cut[:, 1])
    if tied.size:
        out[tied] = _subset_weights(_key_subsets(keys[tied], size), keys.shape[1])


def oracle_profile(specs, xs, fs, subset_budget=20000, seed=0):
    """``audit_profile`` with the float64 screen and each f's whole weight
    matrix in memory at once: one key draw of (subset_budget, n), one
    row-major float64 product per f over every row, and every candidate
    rescored in one gather."""
    pts = stack_points(xs)
    n, d = pts.shape
    outputs = [_aggregate(spec, pts) for spec in specs]
    sampled = [n - f for f in fs if math.comb(n, f) > subset_budget]
    if sampled:
        keys = np.random.default_rng(seed).random((subset_budget, n))
        ordered = np.sort(keys, axis=1)
        cuts = {size: ordered[:, size - 1 : size + 1].copy() for size in sampled}
    columns = None
    results = [[] for _ in specs]
    for f in fs:
        size = n - f
        exhaustive = size not in sampled
        if exhaustive:
            weights = _subset_weights(oracle_all_subsets(n, size), n)
        else:
            weights = np.empty((subset_budget + 2, n))
            weights[:2] = _subset_weights(np.array([range(size), range(f, n)], dtype=np.intp), n)
            oracle_threshold_weights(keys, cuts[size], size, weights[2:])
        num = weights.shape[0]
        if num * size * (d + 1) <= GATHER_ALL_MAX:
            rows = [slice(None)] * len(specs)
        else:
            if columns is None:
                columns, lengths = oracle_moment_columns(pts, outputs)
            moments = weights @ columns
            rows = [oracle_candidates(moments[:, k * (d + 1) : (k + 1) * (d + 1)], size, length)
                    for k, length in enumerate(lengths)]
        for audits, output, r in zip(results, outputs, rows):
            subsets = np.nonzero(weights[r])[1].reshape(-1, size)
            exact = _gathered_ratios(output, pts, subsets)
            k = int(np.argmax(exact))
            audits.append(AuditResult(float(exact[k]), tuple(subsets[k].tolist()), num, exhaustive))
    return results


def assert_matches_oracle(spec, pts, f, **kwargs):
    """``empirical_kappa`` reports the oracle's worst ratio and subset
    exactly, and ``error_ratio`` of that subset is the worst ratio."""
    got = empirical_kappa(spec, pts, f, **kwargs)
    want = oracle_kappa(spec, pts, f, **kwargs)
    assert (got.worst_ratio, got.worst_subset) == want, (spec, pts.shape, f, kwargs)
    assert error_ratio(spec, pts, got.worst_subset) == got.worst_ratio, (spec, pts.shape, f)
    return got


# ---------------------------------------------------------------------------
# error_ratio

def test_error_ratio_mean_breaks_on_zero_variance_subset():
    ratio = error_ratio(AggregatorSpec("mean"), [0.0, 0.0, 3.0], {0, 1})
    assert math.isinf(ratio)


def test_error_ratio_zero_for_identical_points():
    pts = np.tile([1.5, -2.0], (6, 1))
    for spec in (AggregatorSpec("mean"), AggregatorSpec("cwtm", f_hat=2), AggregatorSpec("cwmed")):
        assert error_ratio(spec, pts, {0, 2, 4, 5}) == 0.0


def test_error_ratio_cwtm_quarter_example():
    # CWTM with one trim on {0,0,0,1}: output 0, honest set {1,2,3} has mean
    # 1/3 and variance 2/9, so the ratio is exactly 1/(4-1-1-1) = 1/2.
    spec = AggregatorSpec("cwtm", f_hat=1)
    pts = [0.0, 0.0, 0.0, 1.0]
    got = error_ratio(spec, pts, {1, 2, 3})
    assert got == pytest.approx(0.5, abs=1e-12)
    assert got == pytest.approx(oracle_ratio(aggregate(spec, pts), pts, [1, 2, 3]), abs=1e-15)


def test_error_ratio_rejects_bad_subsets():
    with pytest.raises(ParameterError):
        error_ratio(AggregatorSpec("mean"), [0.0, 1.0], set())
    with pytest.raises(ParameterError):
        error_ratio(AggregatorSpec("mean"), [0.0, 1.0], {0, 5})
    # a fractional index is not truncated, and a bool is not client 1
    pts = [0.0, 1.0, 2.0, 3.0, 9.0]
    for honest_set in ((0, 1, 2, 3.7), (0, True)):
        with pytest.raises(ParameterError):
            error_ratio(AggregatorSpec("mean"), pts, honest_set)
    assert error_ratio(AggregatorSpec("mean"), pts, np.arange(4)) == error_ratio(AggregatorSpec("mean"), pts, range(4))


# ---------------------------------------------------------------------------
# empirical_kappa

def test_empirical_kappa_on_zeros_and_ones_witness():
    # 8 zeros + 2 ones, CWTM trimming 2 per side, audited at f=2: the worst
    # subset is the mixed one and the ratio equals 2/(10-2-2) = 1/3.
    pts = np.concatenate([np.zeros(8), np.ones(2)])
    spec = AggregatorSpec("cwtm", f_hat=2)
    result = empirical_kappa(spec, pts, f=2)
    assert result.exhaustive
    assert result.worst_ratio == pytest.approx(1 / 3, abs=1e-12)
    # Several subsets attain the maximum; the reported one must, and so must
    # the canonical mixed subset {2, ..., 9}.
    assert error_ratio(spec, pts, result.worst_subset) == result.worst_ratio
    assert error_ratio(spec, pts, range(2, 10)) == pytest.approx(result.worst_ratio, abs=1e-15)
    assert result.worst_ratio == pytest.approx(oracle_worst_ratio(spec, pts, 2), abs=1e-12)


def test_empirical_kappa_mean_reaches_infinite_marker():
    pts = np.array([0.0, 0.0, 0.0, 0.0, 50.0])
    result = empirical_kappa(AggregatorSpec("mean"), pts, f=1)
    assert math.isinf(result.worst_ratio)


def test_empirical_kappa_equal_points_zero():
    pts = np.tile([2.0, 2.0], (8, 1))
    for f in (0, 1, 3):
        assert empirical_kappa(AggregatorSpec("cwmed"), pts, f=f).worst_ratio == 0.0


def test_empirical_kappa_matches_subset_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        pts = rng.normal(size=(7, 2)) * rng.uniform(0.5, 4)
        spec = AggregatorSpec("krum", f_hat=2)
        got = empirical_kappa(spec, pts, f=2)
        assert got.worst_ratio == pytest.approx(oracle_worst_ratio(spec, pts, 2), rel=1e-12)


def test_empirical_kappa_sampled_path():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(18, 2))
    result = empirical_kappa(AggregatorSpec("cwmed"), pts, f=6, subset_budget=500, seed=3)
    assert not result.exhaustive
    assert result.samples_checked == 502  # budget + two deterministic anchors
    again = empirical_kappa(AggregatorSpec("cwmed"), pts, f=6, subset_budget=500, seed=3)
    assert again.worst_ratio == result.worst_ratio
    assert again.worst_subset == result.worst_subset


def test_empirical_kappa_parameter_error():
    with pytest.raises(ParameterError):
        empirical_kappa(AggregatorSpec("cwmed"), np.zeros((4, 1)), f=2)
    # A budget of 0 would audit only the two anchor subsets; -1 would fail
    # inside numpy.
    for budget in (0, -1):
        with pytest.raises(ParameterError, match="subset_budget"):
            empirical_kappa(AggregatorSpec("cwmed"), np.arange(8.0).reshape(4, 2), f=1, subset_budget=budget)


def audit_specs(f_hat):
    specs = [AggregatorSpec("mean"), AggregatorSpec("cwmed"), AggregatorSpec("gm")]
    for h in sorted({1, f_hat}):
        specs += [
            AggregatorSpec("cwtm", f_hat=h),
            AggregatorSpec("krum", f_hat=h),
            AggregatorSpec("krum", f_hat=h, pre_nnm=True),
        ]
    return specs


@pytest.mark.parametrize("n", [4, 6, 7, 10, 16])
def test_empirical_kappa_equals_gathered_oracle_exactly(n):
    top = -(-n // 2) - 1
    for d in (1, 5):
        clouds = [random_cloud(n, d, [31, n, d])]
        clouds += [lower_bound_witness(n, f, top, d).points for f in (0, top)]
        clouds.append(cwtm_break_witness(n, top, top - 1, d).points)
        for pts in clouds:
            for spec in audit_specs(top):
                for f in range(top + 1):
                    assert_matches_oracle(spec, pts, f)
                    if f > 0:
                        budget = min(math.comb(n, f) - 1, 300)
                        for seed in (0, 1, 2):
                            got = assert_matches_oracle(spec, pts, f, subset_budget=budget, seed=seed)
                            assert not got.exhaustive


@pytest.mark.parametrize("n,d,budget", [(6, 5, 20000), (10, 1, 60), (16, 5, 300), (20, 5, 5000)])
def test_audit_profile_equals_empirical_kappa_per_call(n, d, budget):
    # budget 20000 enumerates every subset of every f; the smaller budgets
    # sample the larger f and enumerate the smaller ones in the same call
    top = -(-n // 2) - 1
    specs = audit_specs(top)
    fs = list(range(top + 1))
    clouds = [random_cloud(n, d, [37, n, d]), lower_bound_witness(n, 1, top, d).points]
    for pts in clouds:
        for seed in (0, 1, 2):
            profile = audit_profile(specs, pts, fs, subset_budget=budget, seed=seed)
            assert len(profile) == len(specs)
            for spec, results in zip(specs, profile):
                assert results == [empirical_kappa(spec, pts, f, budget, seed) for f in fs], (spec, seed)
            exhaustive = [result.exhaustive for result in profile[0]]
            assert exhaustive == [math.comb(n, f) <= budget for f in fs]


@pytest.mark.parametrize("n", [18, 20, 24])
def test_blocked_audit_profile_equals_whole_budget_oracle(n):
    # budgets on both sides of one block; several sampled f in one call, with
    # the smallest f enumerated at the larger budgets
    top = -(-n // 2) - 1
    specs = audit_specs(top)
    fs = [1, top - 1, top]
    for d in (1, 5):
        clouds = [random_cloud(n, d, [47, n, d]), lower_bound_witness(n, 1, top, d).points, np.ones((n, d))]
        for pts in clouds:
            for budget in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3):
                for seed in (0, 1, 2):
                    got = audit_profile(specs, pts, fs, subset_budget=budget, seed=seed)
                    assert got == oracle_profile(specs, pts, fs, budget, seed), (n, d, budget, seed)


def test_blocked_key_draws_concatenate_to_one_draw():
    want = np.random.default_rng(5).random((2 * BLOCK + 3, 20))
    rng = np.random.default_rng(5)
    blocks = [rng.random((min(BLOCK, len(want) - lo), 20)) for lo in range(0, len(want), BLOCK)]
    assert np.array_equal(np.concatenate(blocks), want)
    rng, out = np.random.default_rng(5), np.empty_like(want)
    for lo in range(0, len(want), BLOCK):
        rng.random(out=out[lo : lo + BLOCK])
    assert np.array_equal(out, want)


@pytest.mark.parametrize("n", [18, 20, 24])
def test_an_advanced_generator_draws_the_rows_of_one_draw_from_its_start(n):
    # each worker of a sampled audit draws its run from PCG64(seed) advanced
    # to its first key, on a block boundary or off one
    budget = 2 * BLOCK + 3
    want = np.random.default_rng(7).random((budget, n))
    for start, b in ((0, BLOCK), (BLOCK, BLOCK + 3), (2 * BLOCK, 3), (1, BLOCK), (BLOCK + 5, 7), (budget - 1, 1)):
        bit_generator = np.random.PCG64(7)
        bit_generator.advance(start * n)
        assert np.array_equal(np.random.Generator(bit_generator).random((b, n)), want[start : start + b]), start


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_workers_follow_the_usable_cpus(monkeypatch, cpus):
    # at most two workers, one per usable CPU and per block
    monkeypatch.setattr(audit, "usable_cpus", lambda: cpus)
    assert [audit._workers(blocks) for blocks in (1, 2, 10)] == [1, min(cpus, 2), min(cpus, 2)]


def test_usable_cpus_are_the_affinity_mask():
    want = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert audit.usable_cpus() == want >= 1


def use_workers(monkeypatch, count):
    """Split each sampled key draw into ``count`` runs, or one per block if
    it has fewer blocks, whatever the CPU count."""
    monkeypatch.setattr(audit, "_workers", lambda blocks: min(count, blocks))


@pytest.mark.parametrize("n", [18, 20, 24])
def test_two_workers_score_every_row_as_one_worker(n, monkeypatch):
    # an exhaustive f that takes the fast path, with one and with two sampled
    # f; budgets of two blocks, three blocks with a short last one, and ten
    top = -(-n // 2) - 1
    specs = [AggregatorSpec("cwtm", f_hat=top), AggregatorSpec("krum", f_hat=top, pre_nnm=True)]
    for d in (1, 5):
        pts = random_cloud(n, d, [83, n, d])
        outputs = [_aggregate(spec, pts) for spec in specs]
        for fs in ([2, top], [2, top - 1, top]):
            for budget in (BLOCK + 1, 2 * BLOCK + 3, 20000):
                for seed in (0, 1, 2):
                    got = []
                    for count in (1, 2):
                        use_workers(monkeypatch, count)
                        got.append((*audit._screen(pts, outputs, fs, budget, seed),
                                    audit_profile(specs, pts, fs, budget, seed)))
                    (one, one_scales, one_profile), (two, two_scales, two_profile) = got
                    assert one_scales == two_scales and one_profile == two_profile, (n, d, fs, budget, seed)
                    assert [r.exhaustive for r in one_profile[0]] == [True] + [False] * (len(fs) - 1)
                    assert one.keys() == two.keys()
                    for size, (num, cached, ratios, min_vars) in one.items():
                        assert ratios is not None
                        assert num == two[size][0] and min_vars == two[size][3], (n, d, fs, budget, seed, size)
                        assert np.array_equal(ratios, two[size][2], equal_nan=True), (n, d, fs, budget, seed, size)


def test_more_runs_than_cores_under_fast_thread_switches_score_as_one(monkeypatch):
    # four runs on at most two cores, switching threads every microsecond:
    # a least variance or fast ratio lost between the runs would show
    pts = random_cloud(20, 5, [97])
    specs = [AggregatorSpec("cwtm", f_hat=6), AggregatorSpec("krum", f_hat=6)]
    outputs = [_aggregate(spec, pts) for spec in specs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in (0, 1):
            got = []
            for count in (1, 4):
                use_workers(monkeypatch, count)
                got.append(audit._screen(pts, outputs, [5, 6], 20000, seed)[0])
            for (_, _, one, one_min), (_, _, four, four_min) in zip(got[0].values(), got[1].values()):
                assert one_min == four_min and np.array_equal(one, four, equal_nan=True), seed
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("in_helper", [True, False], ids=["helper", "caller"])
def test_an_exception_in_either_run_reaches_the_caller(in_helper, monkeypatch):
    pts, specs = random_cloud(20, 5, [89]), [AggregatorSpec("krum", f_hat=6)]
    threads, threshold = threading.active_count(), audit._threshold_weights

    def failing(keys, cut, size, out):
        if (threading.current_thread() is threading.main_thread()) != in_helper:
            raise RuntimeError("run failed")
        threshold(keys, cut, size, out)

    monkeypatch.setattr(audit, "_threshold_weights", failing)
    for count in (1, 2):
        use_workers(monkeypatch, count)
        if count == 1 and in_helper:  # one run: no helper, so nothing fails
            assert audit_profile(specs, pts, [6], 20000, 4)[0][0].samples_checked == 20002
        else:
            with pytest.raises(RuntimeError, match="run failed"):
                audit_profile(specs, pts, [6], 20000, 4)
        assert threading.active_count() == threads


def one_ulp_cloud(n, d, value):
    """The cloud ``np.full((n, d), value)`` with one coordinate one ulp
    away: every fast variance is guarded, so every subset is rescored."""
    pts = np.full((n, d), value)
    pts[n // 2, d - 1] = np.nextafter(value, np.inf)
    return pts


def traced_peak(call):
    """Peak traced bytes of the second of two calls of ``call``, and its result."""
    call()
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cloud,bound_mb", [("fuzz", 2.0), ("ones", 4.0), ("one_ulp", 4.0)])
def test_sampled_audit_memory_is_bounded_by_the_block(cloud, bound_mb, monkeypatch):
    # At n = 20, d = 5 each worker's reused buffer holds 2 BLOCK + 2 rows of
    # n floats (0.66 MB; 1.31 MB for two workers), whose first half the
    # float32 weights of a block overwrite; each row's fast ratio takes 4
    # bytes (0.08 MB), and the buffers are freed before any row is rescored.
    # On the one-ulp cloud every row is rescored: each block of BLOCK rows is
    # re-drawn and sorted (three (BLOCK, n) arrays, 0.98 MB at most) and
    # gathers (BLOCK, 14, 5) points (1.15 MB) and their indices (0.23 MB).
    # Measured peaks: 0.85 MB on the fuzz and all-equal clouds with one
    # worker, 1.54 MB with two, and 2.14 MB on the one-ulp cloud with either.
    # oracle_profile, which holds the whole budget in memory at once, peaks
    # at 11.5 MB on the fuzz cloud and 30.1 MB on the other two.
    pts = {"fuzz": random_cloud(20, 5, [53]), "ones": np.ones((20, 5)), "one_ulp": one_ulp_cloud(20, 5, 1.0)}[cloud]
    spec = AggregatorSpec("krum", f_hat=6)
    for count in (1, 2):
        use_workers(monkeypatch, count)
        peak, result = traced_peak(lambda: empirical_kappa(spec, pts, 6))
        assert not result.exhaustive and result.samples_checked == 20002
        assert peak < bound_mb * 1e6, (count, peak)


def test_sampled_audit_memory_grows_only_by_the_fast_ratios(monkeypatch):
    # n = 24, f = 7 samples at both budgets (C(24, 7) = 346,104); 180,000
    # more rows may add only their float32 fast ratio, 4 bytes per spec
    pts = random_cloud(24, 5, [73])
    for count in (1, 2):
        use_workers(monkeypatch, count)
        for specs in ([AggregatorSpec("krum", f_hat=7)],
                      [AggregatorSpec("cwtm", f_hat=7), AggregatorSpec("krum", f_hat=7, pre_nnm=True)]):
            small, big = (traced_peak(lambda: audit_profile(specs, pts, [7], budget)) for budget in (20000, 200000))
            assert [r.samples_checked for r in small[1][0] + big[1][0]] == [20002, 200002]
            assert big[0] - small[0] <= 4 * 180000 * len(specs) + 0.1e6, (count, len(specs), big[0] - small[0])


def test_audit_profile_checks_every_f():
    pts = random_cloud(8, 2, [5])
    for fs, bad in (([1, 4], 4), ([-1, 0], -1)):
        with pytest.raises(ParameterError, match=re.escape(f"f = {bad} violates 0 <= f < n/2 (n=8)")):
            audit_profile([AggregatorSpec("mean")], pts, fs)


def test_audit_profile_checks_its_integers_at_entry():
    pts = random_cloud(20, 2, [59])
    specs = [AggregatorSpec("mean")]
    bad = (({"fs": [2.5]}, "f"), ({"fs": [True]}, "f"), ({"fs": [1], "subset_budget": 10.5}, "subset_budget"),
           ({"fs": [1], "subset_budget": True}, "subset_budget"), ({"fs": [1], "seed": 1.0}, "seed"))
    for kwargs, name in bad:
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            audit_profile(specs, pts, **kwargs)
    # a negative seed is refused whether f enumerates (f = 1) or samples (f = 6)
    for f in (1, 6):
        with pytest.raises(ParameterError, match="seed = -1 violates 0 <= seed"):
            audit_profile(specs, pts, [f], seed=-1)
    # numpy integers are accepted, and the results hold Python numbers
    got = audit_profile(specs, pts, [np.int64(1), np.int32(6)], np.int64(500), np.uint8(3))
    assert got == audit_profile(specs, pts, [1, 6], 500, 3)
    assert [type(r.exhaustive) for r in got[0]] == [bool, bool]
    assert [type(r.samples_checked) for r in got[0]] == [int, int]


@pytest.mark.parametrize("size", [1, 4, 7])
def test_threshold_weights_equal_argsort_subsets_under_ties(size):
    # keys on a grid of quarters tie often, also at the size-th rank
    rng = np.random.default_rng([43, size])
    keys = rng.integers(0, 4, size=(400, 8)) / 4
    ordered = np.sort(keys, axis=1)
    tied = ordered[:, size - 1] == ordered[:, size]
    assert tied.any() and not tied.all()
    weights = np.empty_like(keys, dtype=np.float32)
    _threshold_weights(keys, ordered[:, size - 1 : size + 1], size, weights)
    want = np.zeros_like(keys, dtype=bool)
    np.put_along_axis(want, np.argsort(keys, axis=1)[:, :size], True, axis=1)
    assert np.array_equal(weights != 0, want)
    assert np.all(weights[want] == np.float32(1 / size))
    oracle = np.empty_like(keys, dtype=np.float32)
    oracle_threshold_weights(keys, ordered[:, size - 1 : size + 1], size, oracle)
    assert same_bits(weights, oracle)
    # the replay's index rows: the argsort definition itself
    subsets = _key_subsets(keys, size)
    assert subsets.dtype == np.intp
    assert np.array_equal(subsets, np.sort(np.argsort(keys, axis=1)[:, :size], axis=1))


@pytest.mark.parametrize("n", [18, 20, 24])
def test_advancing_the_generator_replays_one_row_of_the_key_draw(n):
    # each key is one 64-bit output, so row k starts at output k·n
    budget = 2 * BLOCK + 3
    want = np.random.default_rng(11).random((budget, n))
    for row in (0, BLOCK - 1, BLOCK, budget - 1):
        bit_generator = np.random.PCG64(11)
        bit_generator.advance(row * n)
        assert np.array_equal(np.random.Generator(bit_generator).random(n), want[row]), row


@pytest.mark.parametrize("n", [18, 20, 24, 16])
def test_replayed_subsets_equal_the_subsets_of_one_draw(n):
    # sampled (n >= 18): anchors first, then key rows spread over blocks: one
    # row, a run, a whole block and the last row; exhaustive (n = 16, size 9):
    # the cached rows, first, last and across two blocks; the blocks come back
    # in order, none longer than BLOCK
    if n == 16:
        size, num, seed = 9, math.comb(16, 9), None
        cached, want = _all_subsets(n, size)[0], oracle_all_subsets(n, size)
        picks = [np.array([0, 1, BLOCK - 1, BLOCK, num - 1]), np.arange(BLOCK - 5, 2 * BLOCK + 5)]
    else:
        f, budget, seed = 5, 3 * BLOCK + 7, 3
        size, num, cached = n - f, budget + 2, None
        keys = np.random.default_rng(seed).random((budget, n))
        anchors = np.array([range(size), range(f, n)], dtype=np.intp)
        want = np.vstack([anchors, np.sort(np.argsort(keys, axis=1)[:, :size], axis=1)])
        picks = [np.array([0, 1, 7, BLOCK + 1, budget + 1]), np.arange(BLOCK - 3, BLOCK + 9),
                 np.arange(2 * BLOCK + 2, 3 * BLOCK + 2), np.array([1, budget + 1])]
    for rows in picks:
        blocks = list(_subsets(n, size, num, cached, seed, rows))
        assert all(len(block) <= BLOCK for block in blocks)
        assert np.array_equal(np.concatenate(blocks), want[rows]), rows


def assert_screen_keeps_every_maximum(specs, pts, weights):
    """The screen of the transposed product [c | q]ᵀ Wᵀ keeps every subset of
    the rows of ``weights`` that attains the exact maximum, and its fast
    ratio of each row unguarded by either screen is within twice the rounding
    bound of the oracle screen's, on the row-major product W [c | q] in the
    same dtype, with the same guard and bound."""
    d = pts.shape[1]
    size = int(np.count_nonzero(weights[0]))
    subsets = np.nonzero(weights)[1].reshape(-1, size)
    outputs = [_aggregate(spec, pts) for spec in specs]
    columns, scales = _moment_columns(pts, outputs)
    moments, oracle_moments = columns.T @ weights.T, weights @ columns
    for k, (spec, output, scale) in enumerate(zip(specs, outputs, scales)):
        block, oracle_block = moments[k * (d + 1) : (k + 1) * (d + 1)], oracle_moments[:, k * (d + 1) : (k + 1) * (d + 1)]
        ratios = np.empty(len(weights), block.dtype)
        rows = _candidates(ratios, _fast_ratios(block.copy(), ratios), size, d, scale)
        exact = _gathered_ratios(output, pts, subsets)
        best = np.flatnonzero(exact == exact.max())
        assert np.isin(best, oracle_candidates(oracle_block, size, scale, GUARD, _fast_error_bound)).all()
        assert np.isin(best, rows).all(), (spec, pts.shape, size)
        oracle_ratios, oracle_var = oracle_fast_ratios(oracle_block, GUARD)
        var = block[d] - np.add.reduce(block[:d] ** 2, axis=0)
        both = np.flatnonzero(~np.isnan(ratios) & (oracle_ratios > -np.inf))
        for r, a, b, v in zip(both, ratios[both], oracle_ratios[both], np.minimum(var, oracle_var)[both]):
            bound = _fast_error_bound(max(a, b), v, size, d, scale)
            assert abs(a - b) <= 2.0 * bound, (spec, pts.shape, size, r, a, b, bound)


def mirrored(pts):
    """The first half of ``pts`` and its reflection, far from the origin:
    mirror subsets tie in exact arithmetic and round apart."""
    half = len(pts) // 2
    return np.vstack([pts[:half], -pts[half - 1 :: -1]]) + 1e6


@pytest.mark.parametrize("n", [6, 10, 16])
def test_transposed_screen_keeps_what_the_row_major_screen_keeps(n):
    # criterion 2's aggregators at every f whose exhaustive audit takes the
    # fast path, on a fuzz cloud and on its mirrored cloud
    top = -(-n // 2) - 1
    specs = [AggregatorSpec("cwtm", f_hat=top), AggregatorSpec("krum", f_hat=top),
             AggregatorSpec("krum", f_hat=top, pre_nnm=True)]
    fast = 0
    for d in (1, 5):
        pts = random_cloud(n, d, [61, n, d])
        for f in range(top + 1):
            _, weights = _all_subsets(n, n - f)
            if weights.shape[0] * (n - f) * (d + 1) > GATHER_ALL_MAX:
                fast += 1
                for cloud in (pts, mirrored(pts)):
                    assert_screen_keeps_every_maximum(specs, cloud, weights)
    assert fast == {6: 0, 10: 4, 16: 12}[n]


@pytest.mark.parametrize("n", [20, 24])
def test_transposed_screen_keeps_what_the_row_major_screen_keeps_sampled(n):
    # the whole default budget of one key draw, anchors first
    f, budget = 6, 20000
    size = n - f
    specs = [AggregatorSpec("cwtm", f_hat=f), AggregatorSpec("krum", f_hat=f),
             AggregatorSpec("krum", f_hat=f, pre_nnm=True)]
    pts = random_cloud(n, 5, [67, n])
    for seed in (0, 1, 2):
        keys = np.random.default_rng(seed).random((budget, n))
        weights = np.empty((budget + 2, n), np.float32)
        weights[:2] = _subset_weights(np.array([range(size), range(f, n)], dtype=np.intp), n)
        _threshold_weights(keys, np.sort(keys, axis=1)[:, size - 1 : size + 1], size, weights[2:])
        assert_screen_keeps_every_maximum(specs, pts, weights)


def same_bits(got, want):
    """Equal dtype, shape and bytes: NaN payloads and signed zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_fast_ratios_equal_oracle(moments, step):
    """``_fast_ratios`` of each output's ``step`` rows of a copy of the
    product ``moments``, which it consumes, writes the unconsumed oracle's
    fast ratios and returns its least variance, bit for bit.  Return the
    number of guarded (or overflowed) rows."""
    owned, guarded = moments.copy(), 0
    for lo in range(0, len(moments), step):
        got, want = np.empty(moments.shape[1], moments.dtype), np.empty(moments.shape[1], moments.dtype)
        got_var = _fast_ratios(owned[lo : lo + step], got)
        want_var = oracle_column_fast_ratios(moments[lo : lo + step], want)
        assert same_bits(got, want) and same_bits(got_var, want_var), (lo, got_var, want_var)
        guarded += int(np.count_nonzero(np.isnan(got)))
    return guarded


def criterion_specs(f_hat):
    return [AggregatorSpec("cwtm", f_hat=f_hat), AggregatorSpec("krum", f_hat=f_hat),
            AggregatorSpec("krum", f_hat=f_hat, pre_nnm=True)]


def assert_exhaustive_fast_ratios_equal_oracle(n, d, pts):
    """Every f's whole exhaustive block, scored for one spec and for three;
    return the guarded rows of the three."""
    top = -(-n // 2) - 1
    for specs in (criterion_specs(top)[1:2], criterion_specs(top)):
        columns, _ = _moment_columns(pts, [_aggregate(spec, pts) for spec in specs])
        guarded = sum(assert_fast_ratios_equal_oracle(columns.T @ _all_subsets(n, n - f)[1].T, d + 1)
                      for f in range(top + 1))
    return guarded


@pytest.mark.parametrize("n", [10, 16])
def test_fast_ratios_equal_the_unconsumed_oracle_exhaustive(n):
    for d in (1, 5):
        assert_exhaustive_fast_ratios_equal_oracle(n, d, random_cloud(n, d, [101, n, d]))


@pytest.mark.parametrize("cloud", ["one_ulp", "witness", "equal"])
def test_fast_ratios_equal_the_unconsumed_oracle_on_guarded_rows(cloud):
    n, top = 16, 7
    for d in (1, 5):
        pts = {"one_ulp": one_ulp_cloud(n, d, 3.7), "witness": lower_bound_witness(n, 2, top, d).points,
               "equal": np.full((n, d), 3.7)}[cloud]
        assert assert_exhaustive_fast_ratios_equal_oracle(n, d, pts) > 0, (cloud, d)


def test_fast_ratios_equal_the_unconsumed_oracle_on_overflow():
    # moments whose squares, sums and differences overflow to inf or are NaN
    rng = np.random.default_rng(103)
    for d in (1, 5):
        moments = rng.standard_normal((d + 1, 4096)) * 10.0 ** rng.integers(-3, 4, size=(d + 1, 4096))
        moments[d] = np.abs(moments[d])
        picks = rng.integers(0, 4096, size=(5, d + 1, 200))
        for pick, value in zip(picks, (np.inf, -np.inf, np.nan, 1e200, -1e300)):
            np.put_along_axis(moments, pick, value, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            assert 0 < assert_fast_ratios_equal_oracle(moments, d + 1) < 4096, d


@pytest.mark.parametrize("n", [20, 24])
def test_kernels_equal_the_unconsumed_oracles_sampled(n):
    # the blocks of one key draw as a run cuts them: the anchors block, a
    # whole block and a short last block, at two sizes
    budget, d = 2 * BLOCK + 3, 5
    pts = random_cloud(n, d, [107, n])
    keys = np.random.default_rng([107, n]).random((budget, n))
    for f in (4, 6):
        size = n - f
        for specs in (criterion_specs(f)[1:2], criterion_specs(f)):
            columns, _ = _moment_columns(pts, [_aggregate(spec, pts) for spec in specs])
            for lo in range(0, budget, BLOCK):
                block = keys[lo : lo + BLOCK]
                cut = np.sort(block, axis=1)[:, size - 1 : size + 1]
                got, want = np.full_like(block, np.nan, np.float32), np.empty_like(block, np.float32)
                _threshold_weights(block, cut, size, got)
                oracle_threshold_weights(block, cut, size, want)
                assert same_bits(got, want), (n, f, lo)
                if not lo:
                    anchors = _subset_weights(np.array([range(size), range(f, n)], dtype=np.intp), n)
                    got = np.vstack([anchors, got], dtype=np.float32)
                assert_fast_ratios_equal_oracle(columns.T @ got.T, d + 1)


def test_exhaustive_audit_memory_is_the_product_and_the_fast_ratios():
    # n = 16, f = 7, d = 5 scores num = C(16, 7) = 11,440 subsets in one block:
    # the forward pass holds the float32 product (k (d + 1) rows of num floats,
    # for k specs), the float32 fast ratios (k rows) and one num-byte guard
    # mask; 64 KB of slack covers the rest.  Measured peaks: 334,280 B for one
    # spec and 975,976 B for three (a float64 screen: 654,988 and 1,938,092).
    n, f, d = 16, 7, 5
    num = math.comb(n, f)
    pts = random_cloud(n, d, [109])
    for specs in (criterion_specs(f)[1:2], criterion_specs(f)):
        peak, result = traced_peak(lambda: audit_profile(specs, pts, [f]))
        assert [(r.samples_checked, r.exhaustive) for (r,) in result] == [(num, True)] * len(specs)
        k = len(specs)
        bound = k * (d + 1) * num * 4 + k * num * 4 + num + 64 * 1024
        assert peak <= bound, (k, peak, bound)


@pytest.mark.parametrize("n,size", [(6, 4), (10, 7), (16, 9), (16, 16)])
def test_all_subsets_is_one_cached_read_only_transpose(n, size):
    # the product reads W^T row by row: a row-major W would be read strided;
    # the index rows are kept in the least dtype that holds n
    cached = _all_subsets(n, size)
    subsets, weights = cached
    assert _all_subsets(n, size) is cached
    assert not weights.flags.writeable
    assert weights.T.flags.c_contiguous
    assert same_bits(weights, (_subset_weights(oracle_all_subsets(n, size), n) != 0) * np.float32(1 / size))
    assert not subsets.flags.writeable
    assert subsets.dtype == np.min_scalar_type(n)
    assert np.array_equal(subsets, oracle_all_subsets(n, size))


def cancellation_clouds():
    """Clouds that stress rounding, by name: far from the origin, with
    (near-)duplicate points, or with one huge outlier."""
    rng = np.random.default_rng(41)
    clouds = {}
    for shift in (1e6, 1e8):
        for k in range(3):
            clouds[f"shift{shift:g}-{k}"] = random_cloud(10, 5, [41, k]) + shift
            # mirror pairs of subsets tie up to a 1e-9 nudge, below the
            # rounding of the gathered mean at this offset
            half = rng.normal(size=(5, 5))
            mirror = np.vstack([half, -half[::-1]])
            mirror[0] += 1e-9 * rng.normal(size=5)
            clouds[f"mirror{shift:g}-{k}"] = mirror + shift
    for k in range(4):
        # even k: dyadic duplicates, whose gathered mean is exact (variance
        # 0); odd k: duplicates whose mean rounds (variance tiny, not 0)
        p = rng.integers(-8, 8, size=(1, 3)) / 4 if k % 2 == 0 else rng.normal(size=(1, 3)) * 3.3
        clouds[f"duplicates-{k}"] = np.vstack([np.tile(p, (7, 1)), rng.normal(size=(3, 3))])
        clouds[f"near-duplicates-{k}"] = np.vstack(
            [1e-150 * rng.normal(size=(7, 3)), p + rng.normal(size=(3, 3))]
        )
        outlier = rng.normal(size=(10, 2))
        outlier[k] = [1e10, -1e10]
        clouds[f"outlier-{k}"] = outlier
    return clouds


def gathered_variance(pts, subset):
    """The subset's variance as the oracle computes it."""
    chosen = pts[np.array([subset])]
    centers = chosen.mean(axis=1)
    return float(((chosen - centers[:, None, :]) ** 2).sum(axis=2).mean(axis=1)[0])


@pytest.mark.parametrize("name", list(cancellation_clouds()))
def test_cancellation_matches_gathered_oracle(name):
    pts = cancellation_clouds()[name]
    specs = (AggregatorSpec("mean"), AggregatorSpec("cwmed"), AggregatorSpec("cwtm", f_hat=3),
             AggregatorSpec("krum", f_hat=3), AggregatorSpec("krum", f_hat=3, pre_nnm=True))
    for spec in specs:
        for f in (1, 3, 4):
            got = assert_matches_oracle(spec, pts, f)
            if math.isinf(got.worst_ratio):
                assert gathered_variance(pts, got.worst_subset) == 0.0
            if not name.startswith("duplicates"):
                assert math.isfinite(got.worst_ratio), (name, spec, f)


def test_infinite_ratio_only_for_zero_gathered_variance():
    # The seven duplicates form the only subset of size 7 with (near) zero
    # variance, and the mean sits off them.  Only when their gathered
    # variance is exactly 0 is the ratio the marker.
    spec = AggregatorSpec("mean")
    clouds = cancellation_clouds()
    exact = empirical_kappa(spec, clouds["duplicates-0"], f=3)
    assert exact.worst_subset == tuple(range(7))
    assert gathered_variance(clouds["duplicates-0"], exact.worst_subset) == 0.0
    assert exact.worst_ratio == INFINITE_RATIO
    for name in ("duplicates-1", "near-duplicates-0"):
        got = empirical_kappa(spec, clouds[name], f=3)
        assert got.worst_subset == tuple(range(7))
        assert 0.0 < gathered_variance(clouds[name], got.worst_subset) < 1e-20
        assert 1e20 < got.worst_ratio < INFINITE_RATIO


def screen_clouds(n, d):
    """Clouds that stress the float32 screen, by name: far from the origin,
    at extreme scales, with a tight cluster, a huge outlier, exact ties,
    duplicates or one-ulp differences, mirror pairs, and both witnesses."""
    rng = np.random.default_rng([113, n, d])
    top = -(-n // 2) - 1
    fuzz = random_cloud(n, d, [113, n, d])
    cluster = rng.normal(size=(n, d))
    cluster[: n - n // 3] *= 1e-8
    outlier = rng.normal(size=(n, d))
    outlier[0] *= 1e12
    duplicates = rng.normal(size=(n, d))
    duplicates[: n // 2] = duplicates[0]
    return {
        "fuzz": fuzz,
        "offset": 1e6 + 1e-3 * rng.normal(size=(n, d)),
        "scale+150": 1e150 * fuzz,
        "scale-150": 1e-150 * fuzz,
        "scale+154": 4e153 * fuzz,          # some gathered squares overflow
        "scale-200": 1e-200 * fuzz,         # the gathered squares underflow
        "cluster": cluster,
        "outlier": outlier,
        "half_integers": rng.integers(-4, 5, size=(n, d)) / 2,
        "duplicates": duplicates,
        "one_ulp": one_ulp_cloud(n, d, 3.7),
        "mirrored": mirrored(fuzz),
        "lower_bound": lower_bound_witness(n, 1, top, d).points,
        "cwtm_break": cwtm_break_witness(n, top, top - 1, d).points,
    }


def six_rules(f_hat):
    return [AggregatorSpec("mean"), AggregatorSpec("cwmed"), AggregatorSpec("gm"),
            *criterion_specs(f_hat)]


def assert_unguarded_rows_within_the_bound(specs, pts, fs):
    """Every row the screen leaves unguarded has a fast ratio within the
    bound, at the window's top and least variance, of its gathered ratio;
    where the top is 0 (or the bound infinite) the window keeps every
    unguarded row.  Return the largest error as a share of its bound."""
    n, d = pts.shape
    outputs = [_aggregate(spec, pts) for spec in specs]
    scores, scales = audit._screen(pts, outputs, fs, 20000, 0)
    worst = 0.0
    for size, (num, cached, ratios, min_vars) in scores.items():
        for k in range(len(outputs) if ratios is not None else 0):
            fast, unguarded = ratios[k], np.flatnonzero(~np.isnan(ratios[k]))
            top = float(np.fmax.reduce(fast))
            slack = _fast_error_bound(top, min_vars[k], size, d, scales[k])
            if not (top > 0.0 and slack < math.inf):
                assert np.isin(unguarded, _candidates(fast, min_vars[k], size, d, scales[k])).all()
                continue
            lo = 0
            for subsets in _subsets(n, size, num, cached, 0, unguarded):
                rows = unguarded[lo : lo + len(subsets)]
                error = np.abs(fast[rows] - _gathered_ratios(outputs[k], pts, subsets))
                assert np.all(error <= slack), (specs[k], size, float(error.max()), slack)
                worst, lo = max(worst, float(error.max()) / slack), lo + len(subsets)
    return worst


@pytest.mark.parametrize("cloud", list(screen_clouds(6, 3)))
@pytest.mark.parametrize("n", [6, 10, 16, 20, 24])
def test_float32_screen_reports_what_the_float64_screen_reports(n, cloud):
    # every f of an exhaustive n, the two largest sampled f at n = 20 and 24,
    # all six rules: the same worst ratio and subset, bit for bit, as the
    # float64 screen, which holds every row of a budget in memory at once
    top = -(-n // 2) - 1
    pts = screen_clouds(n, 3)[cloud]
    specs = six_rules(top)
    fs = list(range(top + 1)) if n <= 16 else [top - 1, top]
    with np.errstate(over="ignore", invalid="ignore"):  # the gathered squares of scale+154
        got, want = audit_profile(specs, pts, fs), oracle_profile(specs, pts, fs)
        assert assert_unguarded_rows_within_the_bound(specs, pts, fs) <= 1.0
    assert [r.exhaustive for r in got[0]] == [n <= 16] * len(fs)
    assert repr(got) == repr(want), (n, cloud)  # NaN where the gathered squares overflow


@pytest.mark.parametrize("seed", [1, 4, 5])
def test_every_row_is_rescored_where_the_gathered_squares_may_overflow(seed):
    # at max|x| = 1e154, n·L² overflows and the gathered sums of squares may:
    # the float64 screen's window, whose bound stayed finite, missed the
    # gathered maximum on these clouds; every row is now rescored
    pts = random_cloud(16, 1, [seed])
    pts *= 1e154 / np.abs(pts).max()
    with np.errstate(over="ignore", invalid="ignore"):
        for spec in (AggregatorSpec("cwmed"), AggregatorSpec("krum", f_hat=7)):
            for f in (2, 3):
                got = empirical_kappa(spec, pts, f)
                assert repr((got.worst_ratio, got.worst_subset)) == repr(oracle_kappa(spec, pts, f)), (seed, spec, f)


@pytest.mark.parametrize("power", [-300, 300])
def test_screen_of_a_cloud_scaled_by_a_power_of_two_is_the_same(power):
    # each output's c is scaled so that max|c| lies in [1/2, 1): a cloud
    # scaled by 2^power, far outside float32's range, has the same float32
    # columns, so the same fast ratios, least variances, L and results
    pts, scaled = random_cloud(16, 5, [127]), np.ldexp(random_cloud(16, 5, [127]), power)
    specs, fs = criterion_specs(7), [3, 7]
    screens = [audit._screen(cloud, [_aggregate(spec, cloud) for spec in specs], fs, 20000, 0) for cloud in (pts, scaled)]
    (one, one_scales), (two, two_scales) = screens
    for size in one:
        assert same_bits(one[size][2], two[size][2]) and one[size][3] == two[size][3], size
    assert [length for length, _ in one_scales] == [length for length, _ in two_scales]
    assert audit_profile(specs, pts, fs) == audit_profile(specs, scaled, fs)


# ---------------------------------------------------------------------------
# witnesses

def test_lower_bound_witness_examples():
    w = lower_bound_witness(4, 1, 1)
    assert w.expected_ratio == pytest.approx(0.5)
    assert w.honest_set == (1, 2, 3)
    assert np.array_equal(w.points.ravel(), [0, 0, 0, 1])

    w = lower_bound_witness(10, 2, 3)
    assert w.expected_ratio == pytest.approx(0.6)

    degenerate = lower_bound_witness(10, 0, 0)
    assert degenerate.expected_ratio == 0.0
    assert np.all(degenerate.points == 0)

    with pytest.raises(ParameterError):
        lower_bound_witness(10, 3, 2)  # needs f <= f_hat


def test_lower_bound_witness_ratio_attained():
    for (n, f, f_hat) in [(4, 1, 1), (10, 2, 3), (16, 0, 5)]:
        w = lower_bound_witness(n, f, f_hat)
        for spec in (
            AggregatorSpec("cwtm", f_hat=f_hat),
            AggregatorSpec("cwmed"),
            AggregatorSpec("krum", f_hat=f_hat),
            AggregatorSpec("krum", f_hat=f_hat, pre_nnm=True),
        ):
            assert error_ratio(spec, w.points, w.honest_set) == pytest.approx(
                w.expected_ratio, abs=1e-12
            )


def test_cwtm_break_witness_examples():
    w = cwtm_break_witness(5, 2, 1)
    out = aggregate(AggregatorSpec("cwtm", f_hat=1), w.points)
    assert out[0] == 1 / 3
    assert np.array_equal(out, w.expected_output)
    assert math.isinf(error_ratio(AggregatorSpec("cwtm", f_hat=1), w.points, w.honest_set))

    w16 = cwtm_break_witness(16, 4, 1)
    assert aggregate(AggregatorSpec("cwtm", f_hat=1), w16.points)[0] == 3 / 14
    assert w16.expected_output[0] == (4 - 1) / (16 - 2)

    with pytest.raises(ParameterError):
        cwtm_break_witness(16, 4, 4)  # witness only exists under underestimation


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n,f,f_hat,breaks,holds", [
    (10, 3, 1, (0.2, 0.25, 0.28), (0.29,)),  # threshold 2/7
    (7, 3, 1, (0.1, 0.49), (0.51,)),         # threshold 1/2
    (16, 6, 2, (0.1, 0.49), (0.51,)),        # threshold 1/2
])
def test_krum_breaks_when_f_hat_underestimates_f_by_two(n, f, f_hat, breaks, holds, d):
    # n - f honest points at 0, one Byzantine point at t u and f - 1 at u.
    # For t < 1/2, Krum's squared-distance score picks t u over every honest
    # point exactly when t < 2 (f - f_hat - 1) / (n - f_hat - 2): the honest
    # variance is 0 and the error is not, so the ratio is infinite
    u = np.array([1.0]) if d == 1 else np.array([0.6, 0.0, 0.8])
    spec = AggregatorSpec("krum", f_hat=f_hat)
    for t, broken in [(t, True) for t in breaks] + [(t, False) for t in holds]:
        pts = np.zeros((n, d))
        pts[n - f] = t * u
        pts[n - f + 1 :] = u
        want = pts[n - f] if broken else np.zeros(d)
        assert np.array_equal(aggregate(spec, pts), want), (t, d)
        assert error_ratio(spec, pts, range(n - f)) == (math.inf if broken else 0.0), (t, d)


def test_witness_embeds_in_higher_dimension():
    w = lower_bound_witness(6, 1, 2, d=3)
    assert w.points.shape == (6, 3)
    assert np.all(w.points[:, 1:] == 0)
    spec = AggregatorSpec("cwtm", f_hat=2)
    assert error_ratio(spec, w.points, w.honest_set) == pytest.approx(w.expected_ratio, abs=1e-12)


# ---------------------------------------------------------------------------
# serialization and fuzz clouds

def test_jsonl_row_roundtrips_and_marks_infinity():
    spec = AggregatorSpec("cwtm", f_hat=1)
    w = cwtm_break_witness(5, 2, 1)
    result = empirical_kappa(spec, w.points, f=2)
    row = to_jsonl_row(spec, 5, 2, result, seed=7)
    text = json.dumps(row)
    parsed = json.loads(text)
    assert parsed["worst_ratio"] == "inf"
    assert parsed["aggregator"] == "cwtm"
    assert parsed["n"] == 5 and parsed["f"] == 2 and parsed["f_hat"] == 1
    assert parsed["exhaustive"] is True and parsed["seed"] == 7


def test_random_cloud_is_seeded_and_scaled():
    a = random_cloud(10, 3, seed=[1, 2])
    b = random_cloud(10, 3, seed=[1, 2])
    assert np.array_equal(a, b)
    assert a.shape == (10, 3)
    assert not np.array_equal(a, random_cloud(10, 3, seed=[1, 3]))


# (kind, n, d, f, value, worst_ratio, samples_checked, exhaustive) of the
# cloud np.full((n, d), value), recorded before _worst learned to score one
# subset of a cloud of one repeated point; every such audit reports the
# first subset, range(n - f)
CONSTANT_CLOUDS = [
    ("krum", 20, 5, 6, 1.0, 0.0, 20002, False),
    ("krum", 20, 5, 6, 3.7, 1.0, 20002, False),
    ("krum", 16, 2, 5, 1e-3, 1.0, 4368, True),
    ("cwtm", 20, 5, 6, 3.7, 4.0, 20002, False),
    ("cwtm", 21, 2, 4, -2.5, 0.0, 5985, True),
    ("gm", 24, 3, 5, 0.0, 0.0, 20002, False),
    ("gm", 20, 5, 6, 3.7, 1.0, 20002, False),
    ("gm", 16, 2, 5, 1e-3, 1.0, 4368, True),
]


@pytest.mark.parametrize("kind,n,d,f,value,ratio,checked,exhaustive", CONSTANT_CLOUDS)
def test_constant_cloud_audit_rescores_one_subset(kind, n, d, f, value, ratio, checked, exhaustive, monkeypatch):
    rescored, gathered = [], audit._gathered_ratios
    monkeypatch.setattr(audit, "_gathered_ratios", lambda output, pts, subsets: rescored.append(len(subsets))
                        or gathered(output, pts, subsets))
    spec, pts = AggregatorSpec(kind, f_hat=f), np.full((n, d), value)
    result = empirical_kappa(spec, pts, f)
    assert result == AuditResult(ratio, tuple(range(n - f)), checked, exhaustive)
    assert rescored == [1]
    assert result.worst_ratio == error_ratio(spec, pts, range(n - f))
    # one coordinate one ulp away: the points differ, and every candidate is rescored
    pts[n // 2, d - 1] = np.nextafter(value, np.inf)
    rescored.clear()
    empirical_kappa(spec, pts, f)
    assert sum(rescored) > BLOCK


@pytest.mark.parametrize("n,d,fs", [(16, 2, [5, 7]), (16, 5, [6]), (21, 3, [4])])
def test_guard_heavy_exhaustive_audit_equals_oracle(n, d, fs, monkeypatch):
    # every row of the one-ulp cloud is guarded and rescored, BLOCK rows at a
    # time from the cached weights; the mirrored cloud rescores its ties
    rescored, gathered = [], audit._gathered_ratios
    monkeypatch.setattr(audit, "_gathered_ratios", lambda output, pts, subsets: rescored.append(len(subsets))
                        or gathered(output, pts, subsets))
    specs = audit_specs(max(fs))
    for pts in (one_ulp_cloud(n, d, 3.7), mirrored(random_cloud(n, d, [79, n, d]))):
        got = audit_profile(specs, pts, fs)
        assert all(r.exhaustive for r in got[0])
        assert got == oracle_profile(specs, pts, fs), (n, d, fs)
    assert max(rescored) == BLOCK
