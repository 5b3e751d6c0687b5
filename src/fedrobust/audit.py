"""Empirical robustness auditing and adversarial witness instances.

The worst-case ratio between an aggregator's squared error (distance to the
mean of a candidate honest subset) and that subset's variance is the
empirical robustness coefficient.  ``INFINITE_RATIO`` marks instances where
the subset variance vanishes but the aggregator output does not match the
subset mean; no such ratio exists, which is a stronger statement than any
finite value.  The marker is only ever assigned, never produced by
arithmetic.

:func:`audit_profile` audits one cloud for several aggregators and several
f in one call; :func:`empirical_kappa` is its case of one aggregator at one
f.  Every candidate subset is scored at once with a subset-weight matrix
``W`` of shape (num, n), whose row k is 1/size on the members of subset k
and 0 elsewhere.  With the cloud centred on each aggregator output, ``c_j =
pts - output_j``, one product ``W @ [c_1 | q_1 | c_2 | q_2 | ...]`` per f,
with ``q_j = ||c_j||^2`` per row, gives each subset's mean offset ``m`` and
mean squared distance ``q`` for every aggregator, so ``err = ||m||^2`` and
``var = q - err``.  Two rules, applied to each aggregator's columns, keep
the result equal, bit for bit, to the gathered per-subset formula that
:func:`error_ratio` uses:

- the guard: subsets with ``var <= GUARD * q``, where the subtraction may
  have cancelled (including every subset of identical points), are scored
  with the gathered formula, so ``INFINITE_RATIO`` is still assigned only
  when the gathered variance is exactly 0;
- the window: every subset whose fast ratio is within the fast path's
  rounding-error bound (:func:`_fast_error_bound`) of the largest one is
  rescored with the gathered formula, and the first subset attaining the
  exact maximum is reported.

Audits of at most ``GATHER_ALL_MAX`` gathered values skip the product and
score every subset with the gathered formula.

A sampled subset holds the positions of the size smallest keys in a row of
``default_rng(seed).random((budget, n))``, drawn once per cloud.  One sort
of the rows gives every f its threshold, the size-th smallest key, and the
weights of f are written straight from ``keys <= threshold``.  A row whose
threshold ties the next key would take too many members; it is set from
its own argsort, so every subset is the one ``np.argsort(keys,
axis=1)[:, :size]`` names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from .aggregators import AggregatorSpec, _aggregate, aggregate, stack_points
from .bounds import kappa_lower_bound
from .errors import ParameterError

INFINITE_RATIO = math.inf

# Numerator at or below this is treated as zero when the denominator vanishes.
ZERO_ERROR_EPS = 1e-18

# Fast variances at or below this fraction of q are recomputed (the guard).
GUARD = 1e-5

# Up to this many gathered values (num subsets of size members, d
# coordinates plus a squared distance each) scoring every subset the gathered
# way costs less than the fast path's fixed overhead of about 30 numpy calls
# (crossover measured at 1,700-2,500 on a 2-core x86-64 machine).
GATHER_ALL_MAX = 2048

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class AuditResult:
    worst_ratio: float
    worst_subset: tuple
    samples_checked: int
    exhaustive: bool


@dataclass(frozen=True)
class WitnessInstance:
    points: np.ndarray
    honest_set: tuple          # 0-based client indices
    expected_ratio: float
    expected_output: Optional[np.ndarray]


def error_ratio(spec: AggregatorSpec, xs, honest_set) -> float:
    """Squared aggregation error over the variance of the honest subset.

    Returns 0 when both vanish and ``INFINITE_RATIO`` when only the variance
    does.
    """
    pts = stack_points(xs)
    subset = np.asarray(sorted(honest_set), dtype=np.intp)
    if subset.size == 0 or subset.min() < 0 or subset.max() >= pts.shape[0]:
        raise ParameterError("honest_set must be a nonempty subset of client indices")
    if np.unique(subset).size != subset.size:
        raise ParameterError("honest_set contains repeated indices")
    output = aggregate(spec, pts)
    return float(_gathered_ratios(output, pts, subset[None, :])[0])


def _gathered_ratios(output: np.ndarray, pts: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Exact ratios of the subsets in the rows of the (num, size) index array
    ``subsets``, each computed from its gathered points.  A row's value does
    not depend on which other rows are passed with it."""
    size = subsets.shape[1]
    chosen = pts[subsets]                       # (num, size, d)
    centers = chosen.sum(axis=1) / size         # the arithmetic of .mean(axis=1)
    err = ((output - centers) ** 2).sum(axis=1)
    var = ((chosen - centers[:, None, :]) ** 2).sum(axis=2).sum(axis=1) / size
    zero = var == 0.0
    if not zero.any():
        return err / var
    ratios = np.empty(subsets.shape[0])
    np.divide(err, var, out=ratios, where=~zero)
    ratios[zero] = np.where(err[zero] <= ZERO_ERROR_EPS, 0.0, INFINITE_RATIO)
    return ratios


def _subset_weights(subsets: np.ndarray, n: int) -> np.ndarray:
    """Weight matrix of the (num, size) index array ``subsets``: row k is
    1/size on the members of subset k and 0 elsewhere."""
    weights = np.zeros((subsets.shape[0], n))
    np.put_along_axis(weights, subsets, 1.0 / subsets.shape[1], axis=1)
    return weights


@lru_cache(maxsize=128)
def _all_subsets(n: int, size: int) -> np.ndarray:
    """Read-only weight matrix of every size-subset of range(n), in
    lexicographic order."""
    subsets = np.array(list(combinations(range(n), size)), dtype=np.intp)
    weights = _subset_weights(subsets, n)
    weights.flags.writeable = False
    return weights


def _threshold_weights(keys: np.ndarray, cut: np.ndarray, size: int, out: np.ndarray) -> None:
    """Write to ``out`` the weight matrix of the subsets
    ``np.argsort(keys, axis=1)[:, :size]``, given the size-th and
    (size + 1)-th smallest key of each row as the columns of ``cut``.

    Row k's members are its keys at or below its size-th smallest.  Where
    that key ties the next one, that rule takes too many members, so the row
    is set from its own argsort and every row is the argsort's subset.
    """
    np.multiply(keys <= cut[:, :1], 1.0 / size, out=out)
    tied = np.flatnonzero(cut[:, 0] == cut[:, 1])
    if tied.size:
        out[tied] = _subset_weights(np.argsort(keys[tied], axis=1)[:, :size], keys.shape[1])


def _fast_error_bound(ratio: float, var: float, size: int, d: int, length: float) -> float:
    """Bound on the difference between the fast ratio and the gathered ratio
    of a subset with fast ratio at most ``ratio`` and variance at least
    ``var``.

    Let B = (size + d + 4)·eps bound the relative rounding of a weighted sum
    of size terms of d-term squared norms.  A mean of size rows rounds to
    within (size + 2)·eps times the largest row norm: the gathered mean at
    the scale of the points, the fast one at the scale of c.  So with
    ``length`` L >= max|x_i| + max|c_i|, to first order over both paths,

        |d err| <= 2B·L·sqrt(err) + 2B·err
        |d var| <= B·q + |d err| + 2B·var + B²L²

    (B²L² covers the gathered path squaring offsets from a rounded mean).
    With q = err + var and err = r·var this gives

        |d r| <= B·[5r + 3r² + 2(1 + r)·L·sqrt(r/var) + r·B·L²/var],

    increasing in r and decreasing in var; it is doubled for the terms of
    second order.  The guard keeps var > GUARD·q, so the relative error of
    var, which the first-order step assumes small, is at most about
    3B/GUARD ~ (size + d)·eps/GUARD ~ 1e-9 at n = 16, d = 5.
    """
    b = (size + d + 4) * _EPS
    spread = length * math.sqrt(ratio / var)
    return 2.0 * b * (5 * ratio + 3 * ratio * ratio + 2 * (1 + ratio) * spread
                      + ratio * b * length * length / var)


def _candidates(moments: np.ndarray, size: int, length: float) -> np.ndarray:
    """Subsets that the fast path cannot rule out as the first holder of the
    largest exact ratio: the guarded ones and the window.  ``moments`` is
    one output's (num, d + 1) block [m | q] of the product, and ``length``
    bounds max|x_i| + max|c_i|."""
    d = moments.shape[1] - 1
    q = moments[:, d]
    # column by column: a reduction over the strided (num, d) view is slower
    err = moments[:, 0] * moments[:, 0]
    for j in range(1, d):
        err += moments[:, j] * moments[:, j]
    var = q - err
    fast = var > GUARD * q                      # false for NaN as well
    ratios = np.divide(err, var, out=np.full(q.shape, -np.inf), where=fast)
    candidates = ~fast
    top = float(ratios.max())
    if top > -np.inf:
        slack = _fast_error_bound(top, float(var.min(where=fast, initial=np.inf)), size, d, length)
        # negated so that a NaN bound (from overflowing inputs) keeps every row
        candidates |= ~(ratios < top - 2.0 * slack)
    return np.flatnonzero(candidates)


def _moment_columns(pts: np.ndarray, outputs: list):
    """The (n, k (d + 1)) matrix [c_1 | q_1 | ... | c_k | q_k] of the k
    outputs, with c_j = pts - outputs[j] and q_j its squared row norms, and
    for each output a bound on max|x_i| + max|c_i|."""
    n, d = pts.shape
    columns = np.empty((n, len(outputs) * (d + 1)))
    lengths = []
    for k, output in enumerate(outputs):
        block = columns[:, k * (d + 1) : (k + 1) * (d + 1)]
        c = np.subtract(pts, output, out=block[:, :d])
        sq_norms = np.add.reduce(c * c, axis=1, out=block[:, d])
        # |x_i| <= |c_i| + |output|
        lengths.append(2.0 * math.sqrt(sq_norms.max()) + math.sqrt(output @ output))
    return columns, lengths


def _worst(output: np.ndarray, pts: np.ndarray, subsets: np.ndarray):
    """The largest exact ratio over the subsets in the rows of the index
    array ``subsets`` and the first subset attaining it."""
    exact = _gathered_ratios(output, pts, subsets)
    k = int(np.argmax(exact))
    return float(exact[k]), tuple(subsets[k].tolist())


def audit_profile(specs, xs, fs, subset_budget: int = 20000, seed: int = 0) -> list:
    """:func:`empirical_kappa` of every spec in the sequence ``specs`` at
    every f in the sequence ``fs`` on one cloud: ``result[i][j]`` equals
    ``empirical_kappa(specs[i], xs, fs[j], subset_budget, seed)``, bit for
    bit.

    The cloud is validated once and aggregated once per spec, and every f
    is checked before any audit runs.  For each f one product of the subset
    weights with ``[c_1 | q_1 | c_2 | q_2 | ...]`` scores the subsets for
    every spec.  The sampled subsets of every f come from one key draw and
    one sort of its rows.
    """
    pts = stack_points(xs)
    n, d = pts.shape
    for f in fs:
        if not 0 <= f < n / 2:
            raise ParameterError(f"require 0 <= f < n/2, got f={f} with n={n}")
    if subset_budget < 1:
        raise ParameterError(f"subset_budget must be >= 1, got {subset_budget}")
    outputs = [_aggregate(spec, pts) for spec in specs]
    sampled = [n - f for f in fs if math.comb(n, f) > subset_budget]
    if sampled:
        keys = np.random.default_rng(seed).random((subset_budget, n))
        # the keys are sorted in the buffer that then holds each f's weights
        buffer = np.empty((subset_budget + 2, n))
        ordered = buffer[2:]
        np.copyto(ordered, keys)
        ordered.sort(axis=1)
        cuts = {size: ordered[:, size - 1 : size + 1].copy() for size in sampled}
    columns = None
    results = [[] for _ in specs]
    for f in fs:
        size = n - f
        exhaustive = size not in sampled
        if exhaustive:
            weights = _all_subsets(n, size)
        else:
            weights = buffer
            weights[:2] = _subset_weights(np.array([range(size), range(f, n)], dtype=np.intp), n)
            _threshold_weights(keys, cuts[size], size, weights[2:])
        num = weights.shape[0]
        if num * size * (d + 1) <= GATHER_ALL_MAX:
            rows = [slice(None)] * len(specs)
        else:
            if columns is None:
                columns, lengths = _moment_columns(pts, outputs)
            moments = weights @ columns         # (num, k (d + 1))
            rows = [_candidates(moments[:, k * (d + 1) : (k + 1) * (d + 1)], size, length)
                    for k, length in enumerate(lengths)]
        for audits, output, r in zip(results, outputs, rows):
            ratio, subset = _worst(output, pts, np.nonzero(weights[r])[1].reshape(-1, size))
            audits.append(AuditResult(ratio, subset, num, exhaustive))
    return results


def empirical_kappa(
    spec: AggregatorSpec,
    xs,
    f: int,
    subset_budget: int = 20000,
    seed: int = 0,
) -> AuditResult:
    """Maximize :func:`error_ratio` over honest subsets of size n - f.

    Enumerates every subset when C(n, f) fits in ``subset_budget``; otherwise
    checks ``subset_budget`` seeded uniform samples plus the two deterministic
    subsets {first n-f} and {last n-f} and reports ``exhaustive=False``.
    This is :func:`audit_profile` of one spec at one f.
    """
    return audit_profile((spec,), xs, (f,), subset_budget, seed)[0][0]


def lower_bound_witness(n: int, f: int, f_hat: int, d: int = 1) -> WitnessInstance:
    """Instance on which every reasonable aggregator with robustness degree
    f_hat attains ratio exactly f_hat/(n - f - f_hat).

    The first n - f_hat points are zero and the rest are the first basis
    vector; zero variance on the all-zeros subset forces the aggregator
    output to zero, while the audited honest set {f, ..., n-1} mixes in the
    nonzero points.
    """
    expected_ratio = kappa_lower_bound(n, f, f_hat)
    points = np.zeros((n, d))
    points[n - f_hat :, 0] = 1.0
    return WitnessInstance(
        points=points,
        honest_set=tuple(range(f, n)),
        expected_ratio=expected_ratio,
        expected_output=np.zeros(d),
    )


def cwtm_break_witness(n: int, f: int, f_hat: int, d: int = 1) -> WitnessInstance:
    """Instance showing a trimmed mean configured for f_hat < f Byzantine
    clients admits no finite robustness coefficient.

    The n - f honest points are zero with zero variance, yet trimming only
    f_hat per side leaves f - f_hat of the Byzantine ones in the average, so
    the output (f - f_hat)/(n - 2 f_hat) is pulled off the honest mean.
    """
    if not 0 <= f_hat < f < n / 2:
        raise ParameterError(
            f"witness needs underestimation 0 <= f_hat < f < n/2, got f={f}, f_hat={f_hat}, n={n}"
        )
    points = np.zeros((n, d))
    points[n - f :, 0] = 1.0
    expected_output = np.zeros(d)
    expected_output[0] = (f - f_hat) / (n - 2 * f_hat)
    return WitnessInstance(
        points=points,
        honest_set=tuple(range(n - f)),
        expected_ratio=INFINITE_RATIO,
        expected_output=expected_output,
    )


def random_cloud(n: int, d: int, seed) -> np.ndarray:
    """Fuzz instance: standard normal cloud scaled by a random radius in
    [0.1, 10] (exercises scaling equivariance while staying conditioned)."""
    rng = np.random.default_rng(seed)
    radius = rng.uniform(0.1, 10.0)
    return radius * rng.standard_normal((n, d))


def to_jsonl_row(spec: AggregatorSpec, n: int, f: int, result: AuditResult, seed: int) -> dict:
    """Serializable summary of one audit (infinite marker becomes "inf")."""
    ratio = result.worst_ratio
    return {
        "aggregator": spec.name,
        "n": n,
        "f": f,
        "f_hat": spec.f_hat,
        "worst_ratio": "inf" if math.isinf(ratio) else ratio,
        "exhaustive": result.exhaustive,
        "seed": seed,
    }
