"""Robust aggregation rules.

Every rule is a pure function mapping n client vectors (rows of an (n, d)
array) to a single vector in R^d.  ``AggregatorSpec`` names a rule plus its
robustness degree ``f_hat`` (the number of Byzantine clients the rule is
configured to tolerate), and :func:`aggregate` is the one entry point that
runs it.  The geometric-median solver :func:`weiszfeld` stays public as well,
because its ``WeiszfeldResult`` carries the solver diagnostics.

Scalar inputs are accepted as a length-n sequence of numbers and treated as
n points in R^1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ParameterError

KINDS = ("mean", "cwtm", "cwmed", "gm", "krum")


@dataclass(frozen=True)
class AggregatorSpec:
    """Which rule to apply and with what parameters; :func:`aggregate`
    defines each rule and option.  ``krum_squared=False`` is kept for
    comparison."""

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


def _cwtm(pts: np.ndarray, f_hat: int) -> np.ndarray:
    if f_hat == 0:
        return pts.mean(axis=0)
    n = pts.shape[0]
    ordered = np.sort(pts, axis=0)
    return ordered[f_hat : n - f_hat].mean(axis=0)


def _data_point_median(pts: np.ndarray) -> np.ndarray | None:
    """The input row that passes Kuhn's test (see :func:`weiszfeld`), or None.

    R_j must fall short of m_j by more than a bound on its rounding error,
    so a tie fails.  Differences are taken between halved rows and divided
    by their largest component before their lengths, so nothing overflows
    or underflows to a false zero length.
    """
    n, d = pts.shape
    half = 0.5 * pts
    diff = half[None, :, :] - half[:, None, :]  # diff[j, i] = (x_i - x_j) / 2
    span = np.maximum.reduce(np.abs(diff), axis=2)
    same = span == 0.0
    span[same] = 1.0
    v = diff / span[:, :, None]
    length = np.sqrt(np.add.reduce(v * v, axis=2))  # in [1, sqrt(d)]
    length[same] = 1.0  # v is zero there, so coincident rows add nothing
    pull = np.add.reduce(v / length[:, :, None], axis=1)
    r = np.sqrt(np.add.reduce(pull * pull, axis=1))
    margin = n * (n + 2 * d + 6) * np.finfo(np.float64).eps
    hits = np.flatnonzero(r < np.add.reduce(same, axis=1) - margin)
    return pts[hits[0]].copy() if hits.size else None


def weiszfeld(xs, tol: float = 1e-9, max_iters: int = 500) -> WeiszfeldResult:
    """Geometric median: an exact data-point test, then Weiszfeld's
    iteratively reweighted solver.

    Kuhn's test comes first: coincident rows form one point x_j of
    multiplicity m_j, and R_j is the length of the sum of the unit vectors
    from x_j to every other row.  If R_j < m_j (strictly; a tie, such as
    either central point of an even 1-d cloud, fails), x_j is the unique
    geometric median and is returned exactly as ``WeiszfeldResult(x_j, 0.0,
    0)``: ``iterations == 0`` means no iteration ran.

    Otherwise the solver starts from the coordinate-wise median and stops
    when the per-step displacement falls below ``tol`` or after
    ``max_iters`` steps.  When the iterate coincides with an input point the
    singular 1/distance weight is avoided by perturbing the iterate by tol
    times the data scale; this also lets the iteration escape a non-optimal
    anchor point.
    """
    pts = stack_points(xs)
    if tol <= 0:
        raise ParameterError("tol must be positive")
    anchor = _data_point_median(pts)
    if anchor is not None:
        return WeiszfeldResult(anchor, 0.0, 0)
    n, d = pts.shape
    z = np.median(pts, axis=0)
    scale = max(1.0, float(np.abs(pts).max()))
    nudge = tol * scale / np.sqrt(d)
    displacement = 0.0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        diff = pts - z
        dist = np.sqrt(np.add.reduce(diff * diff, axis=1))
        if np.minimum.reduce(dist) == 0.0:
            if np.maximum.reduce(dist) == 0.0:
                return WeiszfeldResult(z, 0.0, iterations)  # every point equals z
            z = z + nudge
            diff = pts - z
            dist = np.sqrt(np.add.reduce(diff * diff, axis=1))
        weights = 1.0 / np.maximum(dist, 1e-300)
        z_new = weights @ pts / np.add.reduce(weights)
        step = z_new - z
        displacement = math.sqrt(step @ step)
        z = z_new
        if displacement < tol:
            break
    return WeiszfeldResult(z, displacement, iterations)


def _sq_distance_matrix(pts: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - pts[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _neighbor_indices(d2: np.ndarray, f_hat: int) -> np.ndarray:
    """Indices of the n - f_hat nearest neighbours of each point, self
    included, given the squared distance matrix ``d2`` (stable sort)."""
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, : d2.shape[0] - f_hat]


def _krum_index(pts: np.ndarray, f_hat: int, squared: bool) -> int:
    d2 = _sq_distance_matrix(pts)
    neighbors = _neighbor_indices(d2, f_hat)
    scores_matrix = d2 if squared else np.sqrt(d2)
    scores = np.take_along_axis(scores_matrix, neighbors, axis=1).sum(axis=1)
    return int(np.argmin(scores))


def _nnm(pts: np.ndarray, f_hat: int) -> np.ndarray:
    return pts[_neighbor_indices(_sq_distance_matrix(pts), f_hat)].mean(axis=1)


def aggregate(spec: AggregatorSpec, xs) -> np.ndarray:
    """Apply the rule named by ``spec`` to the n points ``xs``.

    - mean: the coordinate-wise arithmetic mean.
    - cwtm: per coordinate, drop the f_hat smallest and f_hat largest values
      and average the n - 2*f_hat left.
    - cwmed: the coordinate-wise median, the midpoint of the two central
      values for even n.
    - gm: the geometric median by :func:`weiszfeld`, with the spec's
      ``gm_tolerance`` and ``gm_max_iters``.  An input point whose
      multiplicity strictly exceeds the pull of the other points (Kuhn's
      test; a tie does not count) is returned exactly, with no iteration.
    - krum: the input point with the smallest summed distance to its
      n - f_hat nearest neighbours; squared distances unless
      ``krum_squared`` is false; ties go to the lowest index.
    - ``pre_nnm`` (nearest-neighbour mixing): first replace each point by
      the mean of its n - f_hat nearest neighbours, itself included, with a
      stable tie-break, then apply the rule to the mixed points.

    cwtm, krum and ``pre_nnm`` need 0 <= f_hat < n/2.  The input is
    validated once, here.  GM goes through the module-level
    :func:`weiszfeld`, so its iteration count stays observable there, at
    the cost of a second validation next to the solve.
    """
    pts = stack_points(xs)
    n = pts.shape[0]
    if (spec.kind in ("cwtm", "krum") or spec.pre_nnm) and not 0 <= spec.f_hat < n / 2:
        raise ParameterError(f"require 0 <= f_hat < n/2, got f_hat={spec.f_hat} with n={n}")
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
    # krum, the one kind left: AggregatorSpec admits no other
    return pts[_krum_index(pts, spec.f_hat, spec.krum_squared)].copy()
