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

The product and the fast ratios (the screen) are float32: each ``c_j`` is
computed in float64 and scaled by a power of two so that ``max|c_j|`` lies in
[1/2, 1), which is exact and keeps every moment in float32's range, then
``[c_j | q_j]`` is rounded to float32, as are the weights.  The screen is
only a filter: every reported ratio is rescored in float64 from gathered
points.  The forward pass allocates only each block's product, and a byte
per row for the guard: the fast ratios are computed in the product's own
rows, and sampled weights straight from their keys.  Two rules keep the
result equal, bit for bit, to the gathered per-subset formula that
:func:`error_ratio` uses:

- the guard: subsets with ``var <= GUARD * q``, where the subtraction may
  have cancelled (including every subset of identical points), are scored
  with the gathered formula, so ``INFINITE_RATIO`` is still assigned only
  when the gathered variance is exactly 0;
- the window: every subset whose fast ratio is within the rounding-error
  bound of the float32 screen and the float64 gathered formula
  (:func:`_fast_error_bound`) of the largest one is rescored with the
  gathered formula, and the first subset attaining the exact maximum is
  reported.

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

# Fast variances at or below this fraction of q are recomputed (the guard); it
# keeps the float32 screen's relative error of var small (see _fast_error_bound).
GUARD = 1e-3

# Up to this many gathered values (num subsets of size members, d + 1 values
# each) every subset is scored the gathered way.  The crossover depends on the
# shape.  Time of the fast path over gathering every subset, per audit of the
# benchmark's audit_exhaustive clouds (two runs of 21 alternating reps on a
# 2-core x86-64 machine, float32 screen), by values (n, d, f): 1,440 (16, 5, 1)
# 1.49-1.51x, 1,680 (10, 1, 3) 1.75-1.78x, 2,160 (10, 5, 2) 1.32-1.37x,
# 2,520 (10, 1, 4) 1.55-1.58x, 3,360 (16, 1, 2) 1.49-1.61x, 5,040 (10, 5, 3)
# 0.85-0.90x, 7,560 (10, 5, 4) 0.60-0.65x, 10,080 (16, 5, 2) 0.55-0.59x,
# 14,560 (16, 1, 3) 0.76-1.13x.
GATHER_ALL_MAX = 2048

# Rows of keys drawn, scored or re-drawn, and of candidates rescored, at a time.
# Time of a sampled audit at n = 20-24, d = 5 relative to 2,048, medians of 30 on
# a 2-core x86-64 machine: 1,024 0.99-1.08x, 4,096 0.98-1.06x (256: 1.30x, 512: 1.1x)
BLOCK = 2048

_EPS = float(np.finfo(np.float64).eps)
_EPS32 = float(np.finfo(np.float32).eps)
_TINY32 = float(np.finfo(np.float32).tiny)
_TINY64 = float(np.finfo(np.float64).tiny)


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
    index rows of the least dtype that holds n, and their read-only float32
    weight matrix: the transpose of a C-contiguous (n, num) matrix, so that
    ``weights.T`` is read row by row."""
    subsets = np.array(list(combinations(range(n), size)), dtype=np.intp)
    weights = np.zeros((n, len(subsets)), dtype=np.float32)  # built transposed: no second copy
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
    size-th smallest, or its own subset where that key ties the next one.
    The weights are 1/size rounded to the dtype of ``out``."""
    np.less_equal(keys, cut[:, :1], out=out)
    np.multiply(out, 1.0 / size, out=out)       # in the dtype of out
    tied = np.flatnonzero(cut[:, 0] == cut[:, 1])
    if tied.size:
        out[tied] = _subset_weights(_key_subsets(keys[tied], size), keys.shape[1])


def _fast_error_bound(ratio: float, var: float, size: int, d: int, scale) -> float:
    """Bound on the difference between the float32 fast ratio and the
    float64 gathered ratio of a subset with fast ratio at most ``ratio`` and
    fast variance at least ``var``.  ``scale`` is the output's ``(L, tiny)``
    of :func:`_moment_columns`: L >= max|x_i| + max|c_i|, infinite where the
    gathered sums of squares may overflow (then every row is rescored), and
    float64's least normal number, both,
    like ``var``, in the scaled units of the output's moment columns.  The
    bound is the sum of a screen term and a gathered term, each to first
    order, and doubled.

    The screen (Higham 2002, ch. 3, at eps = 2u, the float32 eps): the
    scaled c_i and q_i and the weight 1/size are each rounded once to
    float32, and each moment sums size nonzero products (zero weights add
    exactly), so each member's term of m carries a relative error of at most
    (size + 2)·eps and of q at most (size + 3)·eps; a product or cast that
    underflows adds at most eta, float32's least normal number.  As q is a
    weighted sum of non-negative terms, |dq| <= (size + 3)·eps·q + 2·size·eta.
    By Cauchy-Schwarz on the weighted sum of each subset's members,
    sum_j (sum_i w|c_ij|)² <= sum_i w·||c_i||² = q, so
    ||dm|| <= (size + 2)·eps·sqrt(q) + 2·size·sqrt(d)·eta: the subset's own q,
    not the cloud's L, sets the scale, so this term does not grow with the
    cloud's distance from the origin (c is formed in float64).  Squaring and
    summing m adds d·eps·err + d·eta, and the subtraction eps·var.  With
    q = (1 + r)·var, err = r·var and B = (size + d + 5)·eps,

        |dr| <= (1 + r)·|d err|/var + r·|dq|/var + r·eps
             <= B·[2(1 + r)·sqrt(r(1 + r)) + r(1 + r)] + (1 + r)·U,
        U = eta·[4·size·sqrt(d·r/var) + (2·size + d)/var],

    and the relative error of var is at most rho = 3B(1 + r) + U.  Doubling
    covers the terms of second order while rho <= 1/2, as 1/(1 - rho) <= 2;
    otherwise the bound is infinite and every row is rescored.  The guard
    keeps 1 + r below about 1/GUARD, so rho <= 3B/GUARD + U: about 0.01 at
    size 16 and d = 5, and at most 1/2 up to size + d + 5 of about 1,400.

    The gathered path, in float64: with B64 = (size + d + 4)·eps64, a mean of
    size rows rounds to within (size + 2)·eps64 times the largest row norm, at
    the scale of the points, so to first order

        |d err| <= 2·B64·L·sqrt(err) + 2·B64·err
        |d var| <= B64·q + |d err| + 2·B64·var + B64²L²

    (B64²L² covers squaring offsets from a rounded mean), which gives

        |dr| <= B64·[5r + 3r² + 2(1 + r)·L·sqrt(r/var) + r·B64·L²/var]
                + (1 + r)·tiny·[(d + 1)/var + 3·sqrt(d/var)],

    the last term for the mean, the squares and the mean of squares that
    underflow.  Doubled, this term also covers the float64 rounding of c
    before it is scaled.  Both terms increase in r and decrease in var.
    """
    length, tiny = scale
    r1 = 1.0 + ratio
    root = math.sqrt(ratio / var)
    b = (size + d + 5) * _EPS32
    under = _TINY32 * (4 * size * math.sqrt(d) * root + (2 * size + d) / var)
    if not 3.0 * b * r1 + under <= 0.5:        # NaN too
        return math.inf
    screen = b * (2 * r1 * math.sqrt(ratio * r1) + ratio * r1) + r1 * under
    b64 = (size + d + 4) * _EPS
    gathered = (b64 * (5 * ratio + 3 * ratio * ratio + 2 * r1 * length * root + ratio * b64 * length * length / var)
                + r1 * tiny * ((d + 1) / var + 3 * math.sqrt(d / var)))
    return 2.0 * (screen + gathered)


def _fast_ratios(moments: np.ndarray, out: np.ndarray) -> float:
    """Write to ``out`` each subset's fast ratio from one output's rows [m; q] of
    the product, NaN where the guard holds; return the least fast variance.
    ``moments`` is consumed: its rows are overwritten with m², var and GUARD·q."""
    d = moments.shape[0] - 1
    m, q = moments[:d], moments[d]
    err = np.add.reduce(np.multiply(m, m, out=m), axis=0, out=out)  # row by row, in order of j
    var = np.subtract(q, err, out=moments[0])
    np.copyto(var, np.nan, where=var <= np.multiply(q, GUARD, out=q))  # the guard: NaN var, as for overflowed rows
    np.divide(err, var, out=out)
    return float(np.fmin.reduce(var, initial=np.inf))


def _candidates(ratios: np.ndarray, min_var: float, size: int, d: int, scale) -> np.ndarray:
    """Rows, from one output's fast ratios of all rows, that may first hold the largest
    exact ratio: the guarded ones and the window.  ``scale`` is the output's ``(L, tiny)``."""
    top = float(np.fmax.reduce(ratios))         # NaN only if every row is guarded
    threshold = top - 2.0 * _fast_error_bound(top, min_var, size, d, scale)
    if not threshold > 0.0:                     # every fast ratio is >= 0; a NaN keeps every row
        return np.arange(len(ratios))
    # compared in float32: rounding the threshold drops no row at or above it;
    # negated, so that the guarded rows are kept
    return np.flatnonzero(~(ratios < threshold))


def _ldexp(x: float, k: int) -> float:
    """x·2^k, infinite where it overflows."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.inf


def _moment_columns(pts: np.ndarray, outputs: list):
    """The float32 (n, k (d + 1)) matrix [c_1 | q_1 | ... | c_k | q_k] of the k
    outputs, with c_j = pts - outputs[j] scaled by the power of two that puts
    max|c_j| in [1/2, 1) (1 if it is 0 or not finite) and q_j its squared row
    norms, and for each output its ``(L, tiny)`` in its scaled units: a bound
    L >= max|x_i| + max|c_i|, infinite where n·L² overflows in float64, and
    float64's least normal number."""
    n, d = pts.shape
    columns = np.empty((n, len(outputs) * (d + 1)), dtype=np.float32)
    scales = []
    for k, output in enumerate(outputs):
        c = pts - output
        largest = float(np.maximum.reduce(np.abs(c), axis=None))
        shift = -math.frexp(largest)[1]
        np.ldexp(c, shift, out=c)               # exact, unless scaling down makes an entry subnormal
        columns[:, k * (d + 1) : k * (d + 1) + d] = c
        columns[:, k * (d + 1) + d] = np.add.reduce(c * c, axis=1)
        # |x_i| <= |c_i| + |output| and |c_i| <= sqrt(d)·max|c|, in the points' units
        length = 2.0 * math.sqrt(d) * largest + math.sqrt(output @ output)
        # the gathered path sums at most n squares of at most L² each
        scales.append((_ldexp(length, shift) if n * length * length < math.inf else math.inf, _ldexp(_TINY64, 2 * shift)))
    return columns, scales


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


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, else the CPU count)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _workers(blocks: int) -> int:
    """Threads that score a sampled draw of ``blocks`` blocks: one per usable
    CPU, at most 2, as a third key buffer would break the memory bound."""
    return min(2, usable_cpus(), blocks)


def _score(columns: np.ndarray, score, lo: int, weights: np.ndarray) -> None:
    """Write each output's fast ratio of the block ``weights`` to rows lo, ...
    of the size's ``score`` and lower the output's least fast variance.  The
    product is allocated here, and :func:`_fast_ratios` consumes it."""
    _, _, ratios, min_vars = score
    step = len(columns.T) // len(min_vars)      # d + 1 rows per output
    moments = columns.T @ weights.T             # (k (d + 1), rows)
    for k in range(len(min_vars)):
        min_vars[k] = min(min_vars[k], _fast_ratios(moments[k * step : (k + 1) * step], ratios[k, lo : lo + len(weights)]))


def _score_keys(errors: list, lock, columns, scores, sizes, rng, buffer, cuts, start: int, stop: int) -> None:
    """Score key rows [start, stop) for each size, drawn by ``rng`` into ``buffer``
    (anchors and sorted keys, which the float32 weights then overwrite; keys)
    and cut into ``cuts``.  Every array is allocated under ``lock``: thread
    timing moves the peak by a few objects."""
    n = buffer.shape[1]
    weights = buffer.view(np.float32).reshape(-1, n)  # row j in the first half of float64 row j // 2
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
                    _threshold_weights(keys, cut[:b], size, weights[2 : b + 2])
                    if not lo:
                        weights[:2] = _subset_weights(_anchors(n, size), n)
                    _score(columns, scores[size], lo + 2 if lo else 0, weights[2 if lo else 0 : b + 2])
    except BaseException as error:  # noqa: BLE001 - raised by _screen once every run has ended
        errors.append(error)


def _screen(pts: np.ndarray, outputs: list, fs, budget: int, seed: int):
    """The forward pass over every block of weights.  Return, per size n - f,
    ``(num, cached, ratios, min_vars)``: its row count and cached rows, each
    output's fast ratio of every row (None when every row is to be gathered)
    and each output's least fast variance; and the outputs' scales.

    An exhaustive f is one block; the sampled f share one key draw, split
    into ``_workers`` runs.  Only the fast ratios outlive a block, and the key
    buffers are freed on return, before any row is rescored."""
    n, d = pts.shape
    scores, sampled, columns, scales = {}, [], None, None
    for f in fs:
        size = n - f
        cached, weights = _all_subsets(n, size) if math.comb(n, f) <= budget else (None, None)
        num = budget + 2 if cached is None else len(cached)
        fast = num * size * (d + 1) > GATHER_ALL_MAX
        scores[size] = (num, cached, np.empty((len(outputs), num), np.float32) if fast else None, [math.inf] * len(outputs))
        if fast and scales is None:
            columns, scales = _moment_columns(pts, outputs)
        if fast and cached is not None:
            _score(columns, scores[size], 0, weights)
        elif fast and size not in sampled:
            sampled.append(size)
    if not sampled:
        return scores, scales
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
    return scores, scales


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
    scores, scales = _screen(pts, outputs, fs, subset_budget, seed)
    results = {}
    for size, (num, cached, ratios, min_vars) in scores.items():
        results[size] = audits = []
        for k, output in enumerate(outputs):
            rows = None if ratios is None else _candidates(ratios[k], min_vars[k], size, d, scales[k])
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
