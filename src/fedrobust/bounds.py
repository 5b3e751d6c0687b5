"""Closed-form robustness coefficients and convergence bound calculators.

These are the reference values the audit and simulation results are checked
against.  All formulas are evaluated in plain 64-bit arithmetic with no
rearrangement.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, check, count_error, kind_error, regime_error


def stepsize_constant(kappa: float) -> float:
    """c' = max(4*sqrt(2), sqrt(384*kappa)), the constant shared by the
    stepsize rules and the convergence ceilings."""
    return max(4.0 * math.sqrt(2.0), math.sqrt(384.0 * kappa))  # math.sqrt: np.sqrt's value at a tenth of the cost


GUARANTEED_KINDS = ("gm", "cwtm", "cwmed", "krum", "krum_nnm")  # the aggregator names kappa_guarantee knows


def kappa_guarantee(aggregator: str, n: int, f: int, f_hat: int) -> float:
    """Best known robustness coefficient for (aggregator, regime).

    Known regimes: exact estimation (f == f_hat) for gm/cwtm/cwmed/krum,
    the no-Byzantine case (f == 0) for gm/cwtm/cwmed, and any f <= f_hat for
    the nearest-neighbour-mixed Krum composite ("krum_nnm").
    """
    check(kind_error("aggregator", aggregator, GUARANTEED_KINDS) or count_error("n", n)
          or count_error("f", f, n=n) or count_error("f_hat", f_hat, n=n))
    if aggregator == "krum_nnm":
        return kappa_composite_chain(n, f, f_hat).ceiling
    if f == 0:
        if aggregator == "gm":
            return 1.0
        if aggregator == "cwtm":
            return f_hat / (n - f_hat)
        if aggregator == "cwmed":
            half = (n - 1) // 2
            return half / (n - half)
        if aggregator == "krum":
            raise ParameterError("no known coefficient for krum at f=0 with f_hat > 0")
    if f == f_hat:
        if aggregator in ("gm", "cwmed"):
            return 4.0 * ((n - f_hat) / (n - 2 * f_hat)) ** 2
        if aggregator == "cwtm":
            return (6.0 * f_hat / (n - 2 * f_hat)) * ((n - f_hat) / (n - 2 * f_hat))
        if aggregator == "krum":
            return 6.0 * (n - f_hat) / (n - 2 * f_hat)
    raise ParameterError(f"no known coefficient for aggregator {aggregator!r} with f={f}, f_hat={f_hat}")


def kappa_lower_bound(n: int, f: int, f_hat: int) -> float:
    """No aggregator of robustness degree f_hat beats f_hat/(n - f - f_hat)."""
    check(regime_error(n, f, f_hat))
    return f_hat / (n - f - f_hat)


class CompositeChain(NamedTuple):
    krum_kappa: float
    boosted_kappa: float
    ceiling: float


def kappa_composite_chain(n: int, f: int, f_hat: int) -> CompositeChain:
    """Three-stage coefficient chain for Krum boosted by nearest-neighbour
    mixing: the Krum coefficient, the mixed improvement, and the closed-form
    ceiling the improvement always stays under."""
    check(regime_error(n, f, f_hat))
    krum_kappa = 6.0 * (n - f) / (n - f - f_hat)
    boosted = 12.0 * f_hat * (krum_kappa + 1.0) / (n - f)
    ceiling = 84.0 * f_hat / (n - f - f_hat)
    assert boosted <= ceiling + 1e-12, "composite chain inconsistency"
    return CompositeChain(krum_kappa, boosted, ceiling)


def convergence_floor(n: int, f: int, f_hat: int, G: float, mu: float) -> tuple[float, float]:
    """Asymptotic floors (gradient metric, loss gap) that no run with an
    f_hat-degree aggregator can beat on worst-case problems."""
    check(regime_error(n, f, f_hat))
    if mu <= 0:
        raise ParameterError("mu must be positive")
    if G < 0:
        raise ParameterError("G must be >= 0")
    grad_floor = f_hat * G * G / (n - f - f_hat)
    gap_floor = f_hat * G * G / (2.0 * mu * (n - f - f_hat))
    return grad_floor, gap_floor


def grad_ceiling(kappa: float, L: float, H: int, T: int, loss_gap0: float, G: float) -> float:
    """Guaranteed bound on the T-round average squared gradient norm under
    the cube-root stepsize rule."""
    if T < 1:
        raise ParameterError(f"T must be >= 1, got {T}")
    c = stepsize_constant(kappa)
    return (16.0 * c * L * H * loss_gap0 + G * G) / T ** (2.0 / 3.0) + 90.0 * kappa * G * G


def gap_ceiling(
    kappa: float, L: float, mu: float, H: int, T: int, beta: float, loss_gap0: float, G: float
) -> float:
    """Guaranteed bound on the final loss gap under the power-law stepsize
    rule with exponent beta in (0, 1)."""
    if not 0 < beta < 1:
        raise ParameterError("beta must lie in (0, 1)")
    if mu <= 0:
        raise ParameterError("mu must be positive")
    if T < 1:
        raise ParameterError(f"T must be >= 1, got {T}")
    c = stepsize_constant(kappa)
    transient = np.exp(-mu * T ** beta / (8.0 * c * L)) * loss_gap0
    return float(transient + G * G / (2.0 * mu * T ** (2.0 - 2.0 * beta)) + 45.0 * kappa * G * G / mu)

