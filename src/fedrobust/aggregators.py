"""Robust aggregation rules.

Every rule is a pure function mapping n client vectors (rows of an (n, d)
array) to a single vector in R^d.  ``AggregatorSpec`` names a rule plus its
robustness degree ``f_hat`` (the number of Byzantine clients the rule is
configured to tolerate), and :func:`aggregate` is the one entry point that
runs it.  The geometric-median solver :func:`weiszfeld` stays public as well,
because its ``WeiszfeldResult`` carries the solver diagnostics.

Both also take an (R, n, d) stack of R clouds of the same shape and return
R results along the leading axis; each cloud's result has the bits it has
alone, so a batch of runs can aggregate all of its clouds in one call.  The
geometric median of a stack takes one Kuhn test over the stack, then each
cloud that fails it is solved on its own.

Scalar inputs are accepted as a length-n sequence of numbers and treated as
n points in R^1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
from numpy._core.multiarray import c_einsum  # what np.einsum runs unoptimized: same bits, 1.7 not 2.5 us
from numpy.linalg import _umath_linalg  # numpy.linalg.solve's gesv gufunc: same bits, 1.9 not 5.9 us a 5x5 step

from .errors import DimensionError, check, count_error, flag_error, kind_error, normalize, real_error, rule_errors

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class AggregatorSpec:
    """Which rule to apply and with what parameters; :func:`aggregate`
    defines each rule and option."""

    kind: str
    f_hat: int = 0
    pre_nnm: bool = False
    gm_tolerance: float = 1e-9
    gm_max_iters: int = 500

    @staticmethod
    def field_errors(values: dict) -> dict:
        return rule_errors(values, {
            "kind": partial(kind_error, kinds=KINDS), "f_hat": count_error, "pre_nnm": flag_error,
            "gm_tolerance": partial(real_error, positive=True), "gm_max_iters": partial(count_error, lo=1)})

    def __post_init__(self):
        check(*self.field_errors(vars(self)).values())
        normalize(self, f_hat=int, pre_nnm=bool, gm_tolerance=float, gm_max_iters=int)

    @property
    def name(self) -> str:
        return f"{self.kind}_nnm" if self.pre_nnm else self.kind


class WeiszfeldResult(NamedTuple):
    point: np.ndarray
    displacement: float  # final per-step displacement achieved
    iterations: int


def _finite(pts: np.ndarray) -> np.ndarray:
    """``pts``, unless it is empty or holds a NaN or an infinity."""
    if pts.size == 0:
        raise DimensionError("need at least one input vector")
    if not np.isfinite(pts).all():
        raise ValueError("input vectors must be finite (no NaN/Inf)")
    return pts


def stack_points(xs) -> np.ndarray:
    """Validate and stack inputs into an (n, d) float64 matrix.

    A 1-d sequence of length n is read as n scalar points (d = 1).
    """
    pts = np.asarray(xs, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    elif pts.ndim != 2 and pts.size:  # an empty array is reported as empty, whatever its shape
        raise DimensionError(f"inputs must stack to an (n, d) matrix, got shape {pts.shape}")
    return _finite(pts)


def _clouds(xs) -> np.ndarray:
    """:func:`stack_points` of one cloud, or an (R, n, d) stack of R clouds
    validated the same way."""
    pts = np.asarray(xs, dtype=np.float64)
    return _finite(pts) if pts.ndim == 3 else stack_points(pts)


def _rows(pts: np.ndarray, index: np.ndarray) -> np.ndarray:
    """A copy of row ``index[r]`` of cloud r of an (R, n, d) stack, where
    ``index`` may hold more axes; one cloud's rows are its own ``take``."""
    count, n, d = pts.shape
    first = np.arange(0, count * n, n).reshape((-1,) + (1,) * (index.ndim - 1))  # each cloud's first row
    return pts.reshape(-1, d).take(index + first, axis=0)


def _cwtm(pts: np.ndarray, f_hat: int) -> np.ndarray:
    if f_hat == 0:
        return pts.mean(axis=-2)
    n = pts.shape[-2]
    ordered = np.sort(pts, axis=-2)
    return ordered[..., f_hat : n - f_hat, :].mean(axis=-2)


def _kuhn(diff: np.ndarray, merge: float = 0.0) -> np.ndarray:
    """Kuhn's test (see :func:`weiszfeld`) at a point x, given the offsets
    x_i - x of every row i along the first axis of ``diff`` and their
    coordinates along the last; middle axes hold more points x.

    Rows no farther than ``merge`` from x count as m rows at x, and R is the
    length of the sum of the unit vectors to the others.  R must fall short
    of m by more than a bound on its rounding error, so a tie fails.  Each
    offset is divided by its largest component before its length, so
    nothing overflows or underflows to a false zero length.
    """
    n, d = diff.shape[0], diff.shape[-1]
    span = np.maximum.reduce(np.abs(diff), axis=-1)
    at = span == 0.0  # the rows at x when merge is 0
    v = diff / np.where(at, 1.0, span)[..., None]
    length = np.sqrt(np.add.reduce(v * v, axis=-1))  # in [1, sqrt(d)], or 0 where span is
    if merge:
        at = span <= merge / np.maximum(length, 1.0)
    length[at] = np.inf  # the rows at x add nothing to R
    pull = np.add.reduce(v / length[..., None], axis=0)
    r = np.sqrt(np.add.reduce(pull * pull, axis=-1))
    return r < np.add.reduce(at, axis=0) - n * (n + 2 * d + 6) * _EPS


def _offsets(y: np.ndarray, z: np.ndarray):
    """The offsets y_i - z and their lengths."""
    diff = y - z
    return diff, np.sqrt(np.add.reduce(diff * diff, axis=1))


def _solve(pts: np.ndarray, half: np.ndarray, tol: float, max_iters: int, eye: np.ndarray, merge: float, slack: float):
    """(point, displacement, iterations) of :func:`weiszfeld` for one (n, d)
    cloud that fails Kuhn's test, given ``half = 0.5 * pts``, the identity,
    ``merge`` and ``slack``; call it with invalid, overflow and divide
    ignored, as a singular H is then read from its all-NaN solution."""
    n, d = pts.shape
    ordered = np.sort(pts, axis=0)
    center = 0.5 * ordered[(n - 1) // 2] + 0.5 * ordered[n // 2]  # the coordinate-wise median
    half = half - 0.5 * center  # (x_i - center) / 2 cannot overflow
    scale = math.ldexp(1.0, min(math.frexp(float(np.maximum.reduce(np.abs(half), axis=None)))[1], 1023))
    # y_i = (x_i - center) / (2 * scale) has coordinates in (-1, 1); lengths
    # in y are lengths in x divided by 2 * scale
    y = half / scale
    tol_y = tol / scale / 2.0
    z, diff, dist = np.zeros(d), y, np.sqrt(np.add.reduce(y * y, axis=1))  # the offsets y_i - z at z = 0
    step = 0.0
    for iteration in range(1, max_iters + 1):
        newton, lengths = False, dist.tolist()  # min and max of a list are cheaper
        if min(lengths) <= merge:  # rows at the iterate: the Vardi-Zhang step
            at = dist <= merge
            m = int(np.add.reduce(at))
            weights = 1.0 / dist[~at]
            pull = np.add.reduce(diff[~at] * weights[:, None], axis=0)
            r = math.sqrt(pull @ pull)
            if r <= m:
                return center + scale * (2.0 * z), 0.0, iteration
            s = (1.0 - m / r) / np.add.reduce(weights) * pull
        else:
            weights = 1.0 / dist
            column = weights[:, None]
            u = diff * column
            pull = np.add.reduce(u, axis=0)
            total = np.add.reduce(weights)
            hessian = total * eye - (u * column).T @ u  # u.T * weights, in the same memory order
            s = _umath_linalg.solve1(hessian, pull, signature="dd->d")  # all NaN for a singular H
            newton = math.hypot(*s.tolist()) <= max(lengths)  # False for inf or NaN
            if newton:
                moved, ss = z + s, float(s @ s)
                new_diff, new_dist = _offsets(y, moved)
                # f(z + s) - f(z) term by term as (d'^2 - d^2)/(d' + d), with
                # d'^2 - d^2 = s.s - 2 (y_i - z).s, keeps its precision next
                # to the minimum, where f is flat to rounding
                terms = (ss - 2.0 * (diff @ s)) / (dist + new_dist)
                newton = np.add.reduce(terms) < slack * np.add.reduce(np.abs(terms))
            if not newton:
                k = int(np.argmin(dist))
                if _kuhn(y - y[k], merge):
                    return pts[k], 0.0, iteration
                s = pull / total
        if not newton:
            moved, ss = z + s, float(s @ s)
            new_diff, new_dist = _offsets(y, moved)
        step = math.sqrt(ss)
        z, diff, dist = moved, new_diff, new_dist
        if step < tol_y:
            break
    return center + scale * (2.0 * z), step * 2.0 * scale, iteration


def weiszfeld(xs, tol: float = 1e-9, max_iters: int = 500) -> WeiszfeldResult:
    """Geometric median: Kuhn's exact data-point test, then a safeguarded
    Newton iteration on f(z) = sum_i ||z - x_i|| with Weiszfeld's step as its
    fallback.

    Kuhn's test comes first: coincident rows form one point x_j of
    multiplicity m_j, and R_j is the length of the sum of the unit vectors
    from x_j to every other row.  If R_j < m_j (strictly; a tie, such as
    either central point of an even 1-d cloud, fails), x_j is the unique
    geometric median and is returned exactly as ``WeiszfeldResult(x_j, 0.0,
    0)``: ``iterations == 0`` means no iteration ran.

    Otherwise the solver works on the cloud shifted by its coordinate-wise
    median and divided by a power of two, so the scaling is exact and no
    distance overflows, and starts from that median.  Each iteration forms
    the weights w_i = 1/d_i, the unit vectors u_i = (x_i - z)/d_i, the pull
    p = sum_i u_i and the Hessian H = sum_i w_i (I - u_i u_i^T).  It takes
    the Newton step H^-1 p, from one d x d solve by LAPACK's gesv through
    numpy's gufunc (the one ``numpy.linalg.solve`` calls: the same bits), if
    that is finite, no longer than the largest d_i (the median lies in the
    convex hull) and lowers f by more than the rounding error of the change.
    Otherwise it returns the nearest row if Kuhn's test passes there, and
    else takes Weiszfeld's step p / sum_i w_i, which always descends; this
    covers d = 1, collinear clouds and a singular H, whose solve gives NaN.
    The solve costs O(d^3), so for d well above n an iteration costs more
    than Weiszfeld's O(n d).

    Rows nearer the iterate than the rounding error of distances in the
    scaled cloud count as m rows at the iterate.  There the step is that of
    Vardi & Zhang (PNAS 2000): Weiszfeld's step over the other rows,
    shortened by the factor 1 - m/||p||; if ||p|| <= m those rows are a
    median and the solver stops.
    Otherwise it stops when a step is shorter than ``tol`` or after
    ``max_iters`` steps, an integer >= 1.  ``displacement`` is the last
    step's length, 0.0 after a stop at a row.

    An (R, n, d) stack of clouds takes one Kuhn test over the whole stack;
    then each cloud that fails it is solved on its own, so each point has
    the bits of its cloud's solve alone.  ``point`` is then (R, d),
    ``iterations`` the most iterations any cloud took and ``displacement``
    the largest last step.
    """
    pts = _clouds(xs)
    check(real_error("tol", tol, positive=True) or count_error("max_iters", max_iters, lo=1))
    stack = pts if pts.ndim == 3 else pts[None]
    _, n, d = stack.shape
    half = 0.5 * stack  # offsets between halved rows cannot overflow
    passed = _kuhn(half.transpose(1, 0, 2)[:, :, None, :] - half)  # [i, r, j] = (x_ri - x_rj) / 2
    point = np.empty((len(stack), d))
    displacement, iterations = [0.0] * len(stack), [0] * len(stack)
    # The solver's rows and iterates have coordinates in (-1, 1), so a
    # distance there is rounded by a few d ulps of 1 and rows nearer the
    # iterate than merge cannot be told from it.
    merge, slack, eye = n * d * _EPS, -2 * (n + d) * _EPS, np.eye(d)  # slack: the rounding allowance of a change in f
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):  # as numpy.linalg.solve sets it
        for cloud, row in enumerate(passed.tolist()):
            if True in row:  # the first row that passes
                point[cloud] = stack[cloud, row.index(True)]
            else:
                point[cloud], displacement[cloud], iterations[cloud] = _solve(
                    stack[cloud], half[cloud], tol, max_iters, eye, merge, slack)
    if pts.ndim == 2:
        return WeiszfeldResult(point[0], displacement[0], iterations[0])
    return WeiszfeldResult(point, max(displacement), max(iterations))


def _sq_distance_matrix(pts: np.ndarray) -> np.ndarray:
    diff = pts[..., :, None, :] - pts[..., None, :, :]
    return c_einsum("...ijk,...ijk->...ij", diff, diff)


def _neighbor_indices(d2: np.ndarray, f_hat: int) -> np.ndarray:
    """Indices of the n - f_hat nearest neighbours of each point, self
    included, given the squared distance matrix ``d2`` (stable sort)."""
    return d2.argsort(axis=-1, kind="stable")[..., : d2.shape[-1] - f_hat]


def _krum_index(pts: np.ndarray, f_hat: int):
    d2 = _sq_distance_matrix(pts)
    # a sorted row lists a point's distances nearest first, the terms a stable
    # argsort gathers in its order, so no sum changes
    d2.sort(axis=-1)
    return np.add.reduce(d2[..., : pts.shape[-2] - f_hat], axis=-1).argmin(axis=-1)


def _nnm(pts: np.ndarray, f_hat: int) -> np.ndarray:
    neighbors = _neighbor_indices(_sq_distance_matrix(pts), f_hat)
    mixed = pts.take(neighbors, axis=0) if pts.ndim == 2 else _rows(pts, neighbors)
    return np.add.reduce(mixed, axis=-2) / neighbors.shape[-1]  # what .mean(axis=-2) computes


def _krum(pts: np.ndarray, f_hat: int) -> np.ndarray:
    index = _krum_index(pts, f_hat)
    return pts.take(index, axis=0) if pts.ndim == 2 else _rows(pts, index)


# each rule's kernel, after any mixing; each finds its helpers by name, so a tracer can wrap them
_KERNELS = {
    "mean": lambda spec, pts: pts.mean(axis=-2),
    "cwtm": lambda spec, pts: _cwtm(pts, spec.f_hat),
    # np.median's values, from one sort: the mean of the one or two middle order statistics
    "cwmed": lambda spec, pts: np.sort(pts, axis=-2)[..., (pts.shape[-2] - 1) // 2 : pts.shape[-2] // 2 + 1, :].mean(-2),
    "gm": lambda spec, pts: weiszfeld(pts, spec.gm_tolerance, spec.gm_max_iters).point,
    "krum": lambda spec, pts: _krum(pts, spec.f_hat),
}
KINDS = tuple(_KERNELS)


def aggregate(spec: AggregatorSpec, xs) -> np.ndarray:
    """Apply the rule named by ``spec`` to the n points ``xs``, or to each
    cloud of an (R, n, d) stack, giving an (R, d) array.

    - mean: the coordinate-wise arithmetic mean.
    - cwtm: per coordinate, drop the f_hat smallest and f_hat largest values
      and average the n - 2*f_hat left.
    - cwmed: the coordinate-wise median, the midpoint of the two central
      values for even n.
    - gm: the geometric median by :func:`weiszfeld`, with the spec's
      ``gm_tolerance`` and ``gm_max_iters``.  An input point whose
      multiplicity strictly exceeds the pull of the other points (Kuhn's
      test; a tie does not count) is returned exactly, with no iteration.
      Otherwise a Newton iteration runs, with Weiszfeld's step as its
      fallback wherever the Newton step does not descend.  A stack takes
      one Kuhn test, then each cloud's own solve, in one call.
    - krum: the input point with the smallest summed squared distance to
      its n - f_hat nearest neighbours, added nearest first; ties go to the
      lowest index.
    - ``pre_nnm`` (nearest-neighbour mixing): first replace each point by
      the mean of its n - f_hat nearest neighbours, itself included, with a
      stable tie-break, then apply the rule to the mixed points.

    Every kernel works along the trailing (n, d) axes, so each cloud of a
    stack meets the float operations it meets alone, in the same order.
    Every rule needs 0 <= f_hat < n/2.  The input is
    validated once, here.  GM goes through the module-level
    :func:`weiszfeld`, so its iteration count stays observable there, at
    the cost of a second validation next to the solve.
    """
    pts = _clouds(xs)
    check(count_error("f_hat", spec.f_hat, n=pts.shape[-2]))
    return _aggregate(spec, pts)


def _aggregate(spec: AggregatorSpec, pts: np.ndarray) -> np.ndarray:
    """:func:`aggregate` of an (n, d) matrix or (R, n, d) stack that has
    already been validated, with ``spec`` checked against its n."""
    one = pts.ndim == 3 and len(pts) == 1  # a stack of one costs what its cloud costs
    cloud = pts[0] if one else pts
    out = _KERNELS[spec.kind](spec, _nnm(cloud, spec.f_hat) if spec.pre_nnm else cloud)
    return out[None] if one else out
