"""Robust aggregation rules.

Every rule is a pure function mapping n client vectors (rows of an (n, d)
array) to a single vector in R^d.  ``AggregatorSpec`` names a rule plus its
robustness degree ``f_hat`` (the number of Byzantine clients the rule is
configured to tolerate) and is dispatched through :func:`aggregate`.

Scalar inputs are accepted as a length-n sequence of numbers and treated as
n points in R^1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, ParameterError

KINDS = ("mean", "cwtm", "cwmed", "gm", "krum")


@dataclass(frozen=True)
class AggregatorSpec:
    """Which rule to apply and with what parameters.

    ``pre_nnm=True`` turns the rule into the composite that first replaces
    every point by the mean of its n - f_hat nearest neighbours and then
    applies the named rule to the mixed points.  ``krum_squared`` selects
    squared Euclidean distances for the Krum score (the default); the
    unsquared variant is exposed for comparison.
    """

    kind: str
    f_hat: int = 0
    pre_nnm: bool = False
    gm_tolerance: float = 1e-9
    gm_max_iters: int = 500
    krum_squared: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"kind must be one of {list(KINDS)}, got {self.kind!r}")
        if self.f_hat < 0:
            raise ParameterError("f_hat must be >= 0")
        if self.gm_tolerance <= 0 or self.gm_max_iters <= 0:
            raise ParameterError("gm_tolerance and gm_max_iters must be positive")

    @property
    def name(self) -> str:
        return f"{self.kind}_nnm" if self.pre_nnm else self.kind


class WeiszfeldResult(NamedTuple):
    point: np.ndarray
    displacement: float  # final per-step displacement achieved
    iterations: int


def stack_points(xs) -> np.ndarray:
    """Validate and stack inputs into an (n, d) float64 matrix.

    A 1-d sequence of length n is read as n scalar points (d = 1).
    """
    pts = np.asarray(xs, dtype=np.float64)
    if pts.size == 0:
        raise DimensionError("need at least one input vector")
    if pts.ndim == 1:
        pts = pts[:, None]
    elif pts.ndim != 2:
        raise DimensionError(f"inputs must stack to an (n, d) matrix, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("input vectors must be finite (no NaN/Inf)")
    return pts


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


def _cwtm(pts: np.ndarray, f_hat: int) -> np.ndarray:
    if f_hat == 0:
        return pts.mean(axis=0)
    n = pts.shape[0]
    ordered = np.sort(pts, axis=0)
    return ordered[f_hat : n - f_hat].mean(axis=0)


def cwmed(xs) -> np.ndarray:
    """Coordinate-wise median (midpoint of the two central order statistics
    for even counts)."""
    return np.median(stack_points(xs), axis=0)


def weiszfeld(xs, tol: float = 1e-9, max_iters: int = 500) -> WeiszfeldResult:
    """Iteratively reweighted solver for the geometric median.

    Starts from the coordinate-wise median and stops when the per-step
    displacement falls below ``tol`` or after ``max_iters`` steps.  When the
    iterate coincides with an input point the singular 1/distance weight is
    avoided by perturbing the iterate by tol times the data scale; this also
    lets the iteration escape a non-optimal anchor point.
    """
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


def geometric_median(xs, tol: float = 1e-9, max_iters: int = 500) -> np.ndarray:
    """Approximate minimizer of sum_k ||v - x_k|| (see :func:`weiszfeld`)."""
    return weiszfeld(xs, tol, max_iters).point


def _sq_distance_matrix(pts: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - pts[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _neighbor_indices(d2: np.ndarray, f_hat: int) -> np.ndarray:
    """Indices of the n - f_hat nearest neighbours of each point, given the
    squared distance matrix ``d2``.

    The point itself is always included (distance zero); ties are broken
    toward the lowest index via a stable sort.
    """
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, : d2.shape[0] - f_hat]


def krum_index(xs, f_hat: int, squared: bool = True) -> int:
    """Index of the point with the smallest summed distance to its
    n - f_hat nearest neighbours (ties to the lowest index)."""
    pts = stack_points(xs)
    _check_f_hat(pts.shape[0], f_hat)
    return _krum_index(pts, f_hat, squared)


def _krum_index(pts: np.ndarray, f_hat: int, squared: bool) -> int:
    d2 = _sq_distance_matrix(pts)
    neighbors = _neighbor_indices(d2, f_hat)
    scores_matrix = d2 if squared else np.sqrt(d2)
    scores = np.take_along_axis(scores_matrix, neighbors, axis=1).sum(axis=1)
    return int(np.argmin(scores))


def krum(xs, f_hat: int, squared: bool = True) -> np.ndarray:
    """Krum selection rule: returns the input point chosen by
    :func:`krum_index`."""
    pts = stack_points(xs)
    _check_f_hat(pts.shape[0], f_hat)
    return pts[_krum_index(pts, f_hat, squared)].copy()


def nnm(xs, f_hat: int) -> np.ndarray:
    """Nearest-neighbour mixing: replaces each point by the mean of its
    n - f_hat nearest neighbours (self included).  Returns an (n, d) matrix."""
    pts = stack_points(xs)
    _check_f_hat(pts.shape[0], f_hat)
    return _nnm(pts, f_hat)


def _nnm(pts: np.ndarray, f_hat: int) -> np.ndarray:
    return pts[_neighbor_indices(_sq_distance_matrix(pts), f_hat)].mean(axis=1)


def aggregate(spec: AggregatorSpec, xs) -> np.ndarray:
    """Dispatch ``xs`` through the rule named by ``spec``.

    For ``pre_nnm`` specs the points are first nearest-neighbour mixed with
    the same f_hat, then the inner rule runs on the mixed points.  The input
    is validated once, here, and the rules run on the validated array; GM
    goes through the public :func:`weiszfeld`, so its iteration count stays
    observable there, at the cost of a second validation next to the solve.
    """
    pts = stack_points(xs)
    if spec.kind in ("cwtm", "krum") or spec.pre_nnm:
        _check_f_hat(pts.shape[0], spec.f_hat)
    if spec.pre_nnm:
        pts = _nnm(pts, spec.f_hat)
    if spec.kind == "mean":
        return pts.mean(axis=0)
    if spec.kind == "cwtm":
        return _cwtm(pts, spec.f_hat)
    if spec.kind == "cwmed":
        return np.median(pts, axis=0)
    if spec.kind == "gm":
        return weiszfeld(pts, spec.gm_tolerance, spec.gm_max_iters).point
    if spec.kind == "krum":
        return pts[_krum_index(pts, spec.f_hat, spec.krum_squared)].copy()
    raise ParameterError(f"unknown aggregator kind {spec.kind!r}")
