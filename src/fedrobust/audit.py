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
f.  Subsets are scored with a weight matrix ``W``, whose row k is 1/size on
the members of subset k and 0 elsewhere.  With ``c_j = pts - output_j`` and
``q_j = ||c_j||^2`` per row, the product ``[c_1 | q_1 | c_2 | q_2 |
...]^T @ W^T`` gives, in d + 1 rows per aggregator, each subset's mean
offset ``m`` and mean squared distance ``q``, so ``err = ||m||^2`` and
``var = q - err``.  Each moment is one contiguous row, and the exhaustive
``W`` is cached as the transpose of a C-contiguous matrix, so the product
reads ``W^T`` row by row.
Two rules keep the result equal, bit for bit, to the gathered per-subset
formula that :func:`error_ratio` uses:

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

A sampled subset is ``np.argsort(keys, axis=1)[:, :size]`` for a row of the
keys ``default_rng(seed).random((budget, n))``.  The keys are drawn, sorted
for each f's threshold, turned into weights and scored ``BLOCK`` rows at a
time (a row whose threshold key ties takes that argsort).  With two usable
CPUs the calling thread scores the first half of the blocks and a helper
thread the rest, each from the seed's generator advanced to its first key
into its own reused buffer; drawing and sorting run in parallel, and every
step that allocates holds one lock.  Each block is scored as in one serial
pass, so no result depends on the CPU count.  Only each row's fast ratio
outlives its block, so the window is taken over the whole draw.  Its rows
are re-drawn from the seed's generator, advanced to each block's first
window row, and take that argsort itself.  An exhaustive audit's rows are
read from index rows cached with its weights.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from .aggregators import AggregatorSpec, _aggregate, stack_points
from .bounds import kappa_lower_bound
from .errors import check, clients_error, count_error

INFINITE_RATIO = math.inf

# Subsets an audit checks by default: every one if C(n, f) fits, else this many samples.
SUBSET_BUDGET = 20000

# Numerator at or below this is treated as zero when the denominator vanishes.
ZERO_ERROR_EPS = 1e-18

# Fast variances at or below this fraction of q are recomputed (the guard).
GUARD = 1e-5

# Up to this many gathered values (num subsets of size members, d + 1 values
# each) scoring every subset the gathered way costs less than the fast path's
# fixed overhead (crossover 1,500-2,600 on a 2-core x86-64 machine: d = 2-3
# scores faster from 1,500, d = 1 and d = 5-15 still gather faster at 2,500).
GATHER_ALL_MAX = 2048

# Rows of keys drawn, scored or re-drawn, and of candidates rescored, at a time.
# Time of a sampled audit at n = 20-24, d = 5 relative to 2,048, medians of 30 on
# a 2-core x86-64 machine: 1,024 0.99-1.08x, 4,096 0.98-1.06x (256: 1.30x, 512: 1.1x)
BLOCK = 2048

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
    members = sorted(honest_set)
    check(clients_error("honest_set", members, len(pts)) or count_error("f_hat", spec.f_hat, n=len(pts)))
    return float(_gathered_ratios(_aggregate(spec, pts), pts, np.array([members], dtype=np.intp))[0])


def _gathered_ratios(output: np.ndarray, pts: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Exact ratios of the subsets in the rows of the (num, size) index array
    ``subsets``, each computed from its gathered points.  A row's value does
    not depend on which other rows are passed with it."""
    size = subsets.shape[1]
    chosen = pts[subsets]                       # (num, size, d)
    centers = np.add.reduce(chosen, axis=1) / size  # .mean(axis=1), as .sum without its wrapper
    err = np.add.reduce((output - centers) ** 2, axis=1)
    chosen -= centers[:, None, :]               # in place: one (num, size, d) temporary
    var = np.add.reduce(np.add.reduce(np.square(chosen, out=chosen), axis=2), axis=1) / size
    zero = var == 0.0
    if not np.logical_or.reduce(zero):
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
def _all_subsets(n: int, size: int):
    """Every size-subset of range(n), in lexicographic order, as read-only
    index rows of the least dtype that holds n, and their read-only weight
    matrix: the transpose of a C-contiguous (n, num) matrix, so that
    ``weights.T`` is read row by row."""
    subsets = np.array(list(combinations(range(n), size)), dtype=np.intp)
    weights = np.zeros((n, len(subsets)))     # built transposed: no second copy
    np.put_along_axis(weights, subsets.T, 1.0 / size, axis=0)
    subsets = subsets.astype(np.min_scalar_type(n))  # the freed intp rows raise glibc's mmap threshold
    subsets.flags.writeable = weights.flags.writeable = False
    return subsets, weights.T


def _anchors(n: int, size: int) -> np.ndarray:
    """Rows 0 and 1 of a sampled audit: the first and the last size clients."""
    return np.array([range(size), range(n - size, n)], dtype=np.intp)


def _key_subsets(keys: np.ndarray, size: int) -> np.ndarray:
    """Ascending index rows of the sampled subsets of the rows of ``keys``."""
    return np.sort(np.argsort(keys, axis=1)[:, :size], axis=1)


def _threshold_weights(keys: np.ndarray, cut: np.ndarray, size: int, out: np.ndarray) -> None:
    """Write to ``out`` the weights of :func:`_key_subsets`, given each row's
    size-th and (size + 1)-th smallest keys as ``cut``: its keys up to the
    size-th smallest, or its own subset where that key ties the next one."""
    np.multiply(keys <= cut[:, :1], 1.0 / size, out=out)
    tied = np.flatnonzero(cut[:, 0] == cut[:, 1])
    if tied.size:
        out[tied] = _subset_weights(_key_subsets(keys[tied], size), keys.shape[1])


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


def _fast_ratios(moments: np.ndarray, out: np.ndarray) -> float:
    """Write to ``out`` each subset's fast ratio from one output's rows [m; q] of
    the product, NaN where the guard holds; return the least fast variance."""
    d = moments.shape[0] - 1
    q = moments[d]
    err = np.add.reduce(moments[:d] * moments[:d], axis=0)  # row by row, in order of j
    var = q - err
    np.copyto(var, np.nan, where=var <= GUARD * q)  # the guard: NaN var, as for overflowed rows
    np.divide(err, var, out=out)
    return float(np.fmin.reduce(var, initial=np.inf))


def _candidates(ratios: np.ndarray, min_var: float, size: int, d: int, length: float) -> np.ndarray:
    """Rows, from one output's fast ratios of all rows, that may first hold the largest
    exact ratio: the guarded ones and the window.  ``length`` >= max|x_i| + max|c_i|."""
    top = float(np.fmax.reduce(ratios))         # NaN only if every row is guarded
    slack = _fast_error_bound(top, min_var, size, d, length)
    # negated so that the guarded rows, and every row under a NaN bound (from
    # overflowing inputs, or with no fast row), are kept
    return np.flatnonzero(~(ratios < top - 2.0 * slack))


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
        lengths.append(2.0 * math.sqrt(np.maximum.reduce(sq_norms)) + math.sqrt(output @ output))
    return columns, lengths


def _subsets(n: int, size: int, num: int, cached, seed: int, rows):
    """Yield the index rows of the ascending audit ``rows`` (all ``num`` if
    None: few enough to gather at once), at most ``BLOCK`` at a time: the
    ``cached`` rows, else the anchors (rows 0 and 1), then key row j (row
    j + 2) re-drawn from ``default_rng(seed)`` advanced to output j·n (a key
    is one 64-bit output), as one span per block of the forward draw."""
    if cached is not None:
        yield from [cached] if rows is None else (cached[rows[lo : lo + BLOCK]] for lo in range(0, len(rows), BLOCK))
        return
    rows = np.arange(num) if rows is None else rows
    anchors = int(np.searchsorted(rows, 2))
    if anchors:
        yield _anchors(n, size)[rows[:anchors]]
    rows = rows[anchors:] - 2
    bit_generator = np.random.PCG64(seed)
    rng, at, lo = np.random.Generator(bit_generator), 0, 0
    while lo < len(rows):  # one span per block of the forward draw, found in plain Python
        first = int(rows[lo])
        hi = int(np.searchsorted(rows, first - first % BLOCK + BLOCK))
        bit_generator.advance((first - at) * n)
        at = int(rows[hi - 1]) + 1
        yield _key_subsets(rng.random((at - first, n))[rows[lo:hi] - first], size)
        lo = hi


def _worst(output: np.ndarray, pts: np.ndarray, blocks):
    """The largest exact ratio (NaN first, as in ``np.argmax``) and the first
    subset attaining it, over the (k, size) index rows of each of ``blocks``
    in turn."""
    best = -math.inf, ()
    for subsets in blocks:
        exact = _gathered_ratios(output, pts, subsets)
        k = int(exact.argmax())
        if exact[k] > best[0] or (math.isnan(exact[k]) and not math.isnan(best[0])):
            best = float(exact[k]), tuple(subsets[k].tolist())
    return best


def _workers(blocks: int) -> int:
    """Threads that score a sampled draw of ``blocks`` blocks: one per usable
    CPU, at most 2, as a third key buffer would break the memory bound."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(2, cpus, blocks)


def _score(columns: np.ndarray, score, lo: int, weights: np.ndarray) -> None:
    """Write each output's fast ratio of the block ``weights`` to rows lo, ...
    of the size's ``score`` and lower the output's least fast variance."""
    _, _, ratios, min_vars = score
    step = len(columns.T) // len(min_vars)      # d + 1 rows per output
    moments = columns.T @ weights.T             # (k (d + 1), rows)
    for k in range(len(min_vars)):
        min_vars[k] = min(min_vars[k], _fast_ratios(moments[k * step : (k + 1) * step], ratios[k, lo : lo + len(weights)]))


def _score_keys(errors: list, lock, columns, scores, sizes, rng, buffer, cuts, start: int, stop: int) -> None:
    """Score key rows [start, stop) for each size, drawn by ``rng`` into ``buffer``
    (anchors, sorted keys then weights, keys) and cut into ``cuts``.  Every array
    is allocated under ``lock``: thread timing moves the peak by a few objects."""
    n = buffer.shape[1]
    try:
        for lo in range(start, stop, BLOCK):
            b = min(BLOCK, stop - lo)
            keys = rng.random(out=buffer[-b:])
            ordered = buffer[2 : b + 2]
            np.copyto(ordered, keys)
            ordered.sort(axis=1)
            for cut, size in zip(cuts, sizes):
                np.copyto(cut[:b], ordered[:, size - 1 : size + 1])
            for cut, size in zip(cuts, sizes):
                with lock:
                    _threshold_weights(keys, cut[:b], size, ordered)
                    if not lo:
                        buffer[:2] = _subset_weights(_anchors(n, size), n)
                    _score(columns, scores[size], lo + 2 if lo else 0, buffer[2 if lo else 0 : b + 2])
    except BaseException as error:  # noqa: BLE001 - raised by _screen once every run has ended
        errors.append(error)


def _screen(pts: np.ndarray, outputs: list, fs, budget: int, seed: int):
    """The forward pass over every block of weights.  Return, per size n - f,
    ``(num, cached, ratios, min_vars)``: its row count and cached rows, each
    output's fast ratio of every row (None when every row is to be gathered)
    and each output's least fast variance; and the outputs' length bounds.

    An exhaustive f is one block; the sampled f share one key draw, split
    into ``_workers`` runs.  Only the fast ratios outlive a block, and the key
    buffers are freed on return, before any row is rescored."""
    n, d = pts.shape
    scores, sampled, columns, lengths = {}, [], None, None
    for f in fs:
        size = n - f
        cached, weights = _all_subsets(n, size) if math.comb(n, f) <= budget else (None, None)
        num = budget + 2 if cached is None else len(cached)
        fast = num * size * (d + 1) > GATHER_ALL_MAX
        scores[size] = (num, cached, np.empty((len(outputs), num)) if fast else None, [math.inf] * len(outputs))
        if fast and lengths is None:
            columns, lengths = _moment_columns(pts, outputs)
        if fast and cached is not None:
            _score(columns, scores[size], 0, weights)
        elif fast and size not in sampled:
            sampled.append(size)
    if not sampled:
        return scores, lengths
    blocks = -(-budget // BLOCK)
    workers = _workers(blocks)
    edges = [min(BLOCK * -(-blocks * i // workers), budget) for i in range(workers + 1)]
    runs = []
    for start, stop in zip(edges, edges[1:]):
        bit_generator = np.random.PCG64(seed)
        bit_generator.advance(start * n)         # a key is one 64-bit output
        rows = min(BLOCK, stop - start)
        runs.append((np.random.Generator(bit_generator), np.empty((2 * rows + 2, n)),
                     np.empty((len(sampled), rows, 2)), start, stop))
    lock, errors = threading.Lock(), []
    helpers = [threading.Thread(target=_score_keys, args=(errors, lock, columns, scores, sampled, *run))
               for run in runs[1:]]
    for helper in helpers:
        helper.start()
    try:
        _score_keys(errors, lock, columns, scores, sampled, *runs[0])
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return scores, lengths


def audit_profile(specs, xs, fs, subset_budget: int = SUBSET_BUDGET, seed: int = 0) -> list:
    """:func:`empirical_kappa` of every spec in the sequence ``specs`` at
    every f in the sequence ``fs`` on one cloud, bit for bit: ``result[i][j]``
    is ``empirical_kappa(specs[i], xs, fs[j], subset_budget, seed)``.

    The cloud is validated once and aggregated once per spec, and every
    argument is checked before any audit runs.  One product ``[c_1 | q_1 |
    c_2 | q_2 | ...]^T @ W^T`` of each block W of weights scores it for every spec.
    """
    pts = stack_points(xs)
    n, d = pts.shape
    for f in fs:
        check(count_error("f", f, n=n))
    check(count_error("subset_budget", subset_budget, lo=1) or count_error("seed", seed))
    for spec in specs:
        check(count_error("f_hat", spec.f_hat, n=n))
    subset_budget = int(subset_budget)          # so that the results hold Python numbers
    outputs = [_aggregate(spec, pts) for spec in specs]
    scores, lengths = _screen(pts, outputs, fs, subset_budget, seed)
    results = {}
    for size, (num, cached, ratios, min_vars) in scores.items():
        results[size] = audits = []
        for k, output in enumerate(outputs):
            rows = None if ratios is None else _candidates(ratios[k], min_vars[k], size, d, lengths[k])
            # When every point of the cloud has the same bits, every subset gathers the
            # same rows and has the same ratio, so the first one stands for all.  Only a
            # candidate set of more than one block is checked for it: every fast variance
            # of such a cloud is guarded, so all its rows are candidates.
            if rows is not None and len(rows) > BLOCK and pts.tobytes() == pts[:1].tobytes() * n:
                rows = rows[:1]
            subsets = _subsets(n, size, num, cached, seed, rows)
            audits.append(AuditResult(*_worst(output, pts, subsets), num, num <= subset_budget))
    return [[results[n - f][k] for f in fs] for k in range(len(specs))]


def empirical_kappa(spec: AggregatorSpec, xs, f: int, subset_budget: int = SUBSET_BUDGET, seed: int = 0) -> AuditResult:
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
    return WitnessInstance(points=points, honest_set=tuple(range(f, n)), expected_ratio=expected_ratio,
                           expected_output=np.zeros(d))


def cwtm_break_witness(n: int, f: int, f_hat: int, d: int = 1) -> WitnessInstance:
    """Instance showing a trimmed mean configured for f_hat < f Byzantine
    clients admits no finite robustness coefficient.

    The n - f honest points are zero with zero variance, yet trimming only
    f_hat per side leaves f - f_hat of the Byzantine ones in the average, so
    the output (f - f_hat)/(n - 2 f_hat) is pulled off the honest mean.
    """
    check(count_error("n", n) or count_error("f_hat", f_hat) or count_error("f", f, lo=f_hat + 1, n=n))
    points = np.zeros((n, d))
    points[n - f :, 0] = 1.0
    expected_output = np.zeros(d)
    expected_output[0] = (f - f_hat) / (n - 2 * f_hat)
    return WitnessInstance(points=points, honest_set=tuple(range(n - f)), expected_ratio=INFINITE_RATIO,
                           expected_output=expected_output)


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
