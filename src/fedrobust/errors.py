"""Shared exception types, and the one home of every parameter rule.

Each rule is one function that returns its message, or None when the value
keeps it: the library raises the message through :func:`check`, and the CLI
collects every message of a config, so a rule reads the same wherever it is
checked.  ``name`` is the parameter as the caller spells it: ``"f"``, or a
config path such as ``"grid.f"``, whose last part the rule names.

A config target's rules are one function, field values -> message by
field (:func:`rule_errors`): the ``field_errors`` of each dataclass, and
``problems.parameter_errors``.  The target raises the first message; the CLI
records each as ``section.field ...``.

- :func:`count_error`, an integer (a bool is not one) >= lo, and < n/2 when
  n is given: ``f must be an integer, got True``, ``seed = -1 violates
  0 <= seed``, ``grid.f = 10 violates 0 <= f < n/2 (n=20)``.
- :func:`regime_error`, 0 <= f <= f_hat < n/2: the count rule on n, f and
  f_hat, then ``require 0 <= f <= f_hat < n/2, got f=3, f_hat=2, n=10``.
- :func:`kind_error`: ``kind must be one of ['mean', 'gm'], got 'median'``.
- :func:`clients_error`, distinct client indices in [0, n): ``honest_set
  indices must be integers, got (0, 1.5)``, ``honest_set must hold 8
  distinct indices in [0, 10)``.
- :func:`real_error`, a finite real number (a bool is not one), and, if
  asked, > 0, >= lo, or in the open interval (0, below): ``gamma must be a
  real number, got '1'``, ``gamma must be positive``, ``kappa = -1.0
  violates 0 <= kappa``, ``beta must lie in (0, 1)``, ``scale must be
  finite``.
- :func:`reals_error`, the real rule on each entry of a vector (one number
  is one entry): ``w0[1] must be a real number, got None``.
- :func:`flag_error`, a Python or numpy bool: ``pre_nnm must be a boolean,
  got 'no'``.
- :func:`dimension_error`, d entries, or one that is repeated over d: ``w0
  must have dimension 3``, ``engine.w0 must have dimension 3 or 1``.

Where a checked value is kept, the library keeps a real number as a Python
float, a count as a Python int and a flag as a Python bool (:func:`normalize`),
so that a config digest reads one spelling of each value: ``G=1`` and
``G=1.0`` give one digest.
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


def check(*messages) -> None:
    """Raise ParameterError with the first of ``messages`` that is not None."""
    for message in messages:
        if message is not None:
            raise ParameterError(message)


def normalize(instance, **kinds) -> None:
    """Keep each named field of the frozen dataclass ``instance`` as ``kind(value)``:
    a checked real as a float, a count as an int, a flag as a bool."""
    for name, kind in kinds.items():
        object.__setattr__(instance, name, kind(getattr(instance, name)))


def is_integer(value) -> bool:  # Python and numpy integers, but not a bool
    return type(value) is int or (isinstance(value, (int, np.integer)) and not isinstance(value, bool))


def _violation(name: str, value, lo, rest: str = "") -> str:
    return f"{name} = {value!r} violates {lo} <= {name.rpartition('.')[2]}{rest}"


def count_error(name: str, value, lo: int = 0, n=None):
    """The count rule; a numpy integer counts.  The minority rule f, f_hat <
    n/2 has one scope: every entry point holds every aggregator to it."""
    if type(value) is not int:
        if not is_integer(value):
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


def real_error(name: str, value, positive: bool = False, lo=None, below=None):
    """The real rule; NaN keeps no bound, and an integer too large for a float is not finite."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):  # float: no ABC check
        return f"{name} must be a real number, got {value!r}"
    if positive and not value > 0:
        return f"{name} must be positive"
    if lo is not None and not value >= lo:
        return _violation(name, value, lo)
    if not (abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)):
        return f"{name} must be finite"
    if below is not None and not 0 < value < below:
        return f"{name} must lie in (0, {below})"
    return None


def reals_error(name: str, values):
    """The real rule on each entry (one number is one): the first broken one's, as ``name[i]``."""
    values = values.tolist() if isinstance(values, np.ndarray) else values
    entries = values if isinstance(values, (list, tuple)) or np.ndim(values) else (values,)
    return next(filter(None, (real_error(f"{name}[{i}]", v) for i, v in enumerate(entries))), None)


def flag_error(name: str, value):
    if not isinstance(value, (bool, np.bool_)):
        return f"{name} must be a boolean, got {value!r}"
    return None


def dimension_error(name: str, vector, d: int, repeated: bool = False):
    """The dimension rule on a vector of reals, or None: d entries (one number is one), or one if ``repeated``."""
    kept = vector is None or np.atleast_1d(vector).shape in ((d,), (1,) if repeated else (d,))
    return None if kept else f"{name} must have dimension {d}" + (" or 1" if repeated and d > 1 else "")


def rule_errors(values: dict, rules: dict) -> dict:
    """The message of each rule in ``rules`` (field -> rule(field, value))
    that its field's value in ``values`` breaks, by field."""
    return {name: error for name, value in values.items() if name in rules and (error := rules[name](name, value))}
