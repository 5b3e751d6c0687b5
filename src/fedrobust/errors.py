"""Shared exception types, and the one home of every parameter rule.

Each rule is one function that returns its message, or None when the value
keeps it: the library raises the message through :func:`check`, and the CLI
collects every message of a config, so a rule reads the same wherever it is
checked.  ``name`` is the parameter as the caller spells it: ``"f"``, or a
config path such as ``"grid.f"``, whose last part the rule names.

- :func:`count_error`, an integer (a bool is not one) >= lo, and < n/2 when
  n is given: ``f must be an integer, got True``, ``seed = -1 violates
  0 <= seed``, ``grid.f = 10 violates 0 <= f < n/2 (n=20)``.
- :func:`regime_error`, 0 <= f <= f_hat < n/2: the count rule on n, f and
  f_hat, then ``require 0 <= f <= f_hat < n/2, got f=3, f_hat=2, n=10``.
- :func:`kind_error`: ``kind must be one of ['mean', 'gm'], got 'median'``.
- :func:`clients_error`, distinct client indices in [0, n): ``honest_set
  indices must be integers, got (0, 1.5)``, ``honest_set must hold 8
  distinct indices in [0, 10)``.
- :func:`real_error`, a finite real number (a bool is not one), positive or
  >= lo if asked: ``gamma must be a real number, got '1'``, ``gamma must be
  positive``, ``kappa = -1.0 violates 0 <= kappa``, ``scale must be finite``.
"""

import math
import numbers
import sys

import numpy as np


class DimensionError(ValueError):
    """Empty input, mixed dimensions, or a shape that cannot be interpreted."""


class ParameterError(ValueError):
    """A parameter violates its documented range (e.g. f_hat >= n/2)."""


class ConstructionError(ValueError):
    """A problem family cannot be built from the given parameters."""


class ConfigError(ValueError):
    """Invalid experiment configuration; carries every validation error found."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def check(message) -> None:
    """Raise ParameterError with ``message`` unless it is None."""
    if message is not None:
        raise ParameterError(message)


def is_integer(value) -> bool:  # Python and numpy integers, but not a bool
    return type(value) is int or (isinstance(value, (int, np.integer)) and not isinstance(value, bool))


def _violation(name: str, value, lo, rest: str = "") -> str:
    return f"{name} = {value!r} violates {lo} <= {name.rpartition('.')[2]}{rest}"


def count_error(name: str, value, lo: int = 0, n=None, numpy: bool = True):
    """The count rule, where a numpy integer counts unless ``numpy`` is false
    (RunConfig's T, H and seed, which its digest writes as JSON).

    The minority rule f_hat < n/2 has two scopes: RunConfig and the CLI hold
    every aggregator to it, while ``aggregate``, ``error_ratio`` and
    ``audit_profile`` hold only cwtm, krum and ``pre_nnm`` to it
    (``aggregators.check_f_hat``) and take mean, cwmed and gm at any f_hat."""
    if type(value) is not int:
        if not (is_integer(value) and (numpy or isinstance(value, int))):
            return f"{name} must be an integer, got {value!r}"
        value = int(value)  # so that 2 * value cannot overflow
    if not lo <= value or (n is not None and not 2 * value < n):
        return _violation(name, value, lo, "" if n is None else f" < n/2 (n={n})")
    return None


def regime_error(n, f, f_hat):
    """The regime 0 <= f <= f_hat < n/2 of the analysis."""
    error = count_error("n", n) or count_error("f", f, n=n) or count_error("f_hat", f_hat, n=n)
    if error is None and f > f_hat:
        return f"require 0 <= f <= f_hat < n/2, got f={f}, f_hat={f_hat}, n={n}"
    return error


def kind_error(name: str, value, kinds: tuple):
    if value not in kinds:
        return f"{name} must be one of {list(kinds)}, got {value!r}"
    return None


def clients_error(name: str, clients, n: int, size=None):
    """The client-set rule: ``size`` clients if it is given, else at least one."""
    if not all(map(is_integer, clients)):
        return f"{name} indices must be integers, got {clients!r}"
    wanted = len(clients) if size is None else size
    if not 0 < len(clients) == wanted == len(set(clients)) or not all(0 <= k < n for k in clients):
        return f"{name} must hold {'one or more' if size is None else size} distinct indices in [0, {n})"
    return None


def real_error(name: str, value, positive: bool = False, lo=None):
    """The real rule; NaN keeps no bound, and an integer too large for a float is not finite."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):  # float: no ABC check
        return f"{name} must be a real number, got {value!r}"
    if positive and not value > 0:
        return f"{name} must be positive"
    if lo is not None and not value >= lo:
        return _violation(name, value, lo)
    if not (abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)):
        return f"{name} must be finite"
    return None
