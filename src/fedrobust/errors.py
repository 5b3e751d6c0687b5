"""Shared exception types, and the type checks behind the ParameterError
messages of more than one module."""

import math
import numbers

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


def is_integer(value) -> bool:  # Python and numpy integers, but not a bool
    return type(value) is int or (isinstance(value, (int, np.integer)) and not isinstance(value, bool))


def check_integers(**values) -> None:
    """Raise ParameterError naming the first of ``values`` (name -> value)
    that is not an integer."""
    for name, value in values.items():
        if not is_integer(value):
            raise ParameterError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value, positive: bool = False) -> None:
    """Raise ParameterError naming ``name`` unless ``value`` is a finite real
    number (a bool is not one), and positive if asked; NaN then fails as
    not positive."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):  # float: no ABC check
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    if positive and not value > 0:
        raise ParameterError(f"{name} must be positive")
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite")
