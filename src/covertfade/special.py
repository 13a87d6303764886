"""Gamma-family special functions.

Thin scalar wrappers over ``math.lgamma`` and ``scipy.special`` that reject
arguments outside the mathematical domain with a DomainError (instead of
scipy's silent NaN) and return Python floats.
"""

import math

from scipy import special as _sp

from .errors import DomainError

__all__ = ["ln_gamma", "reg_lower_gamma", "reg_upper_gamma", "digamma"]


def _check_positive(name, value):
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be a finite positive real, got {value!r}")


def _check_gamma_args(a, x):
    _check_positive("a", a)
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x >= 0):
        raise DomainError(f"x must be a finite nonnegative real, got {x!r}")


def ln_gamma(a: float) -> float:
    """Natural log of the complete gamma function, ln Gamma(a), a > 0."""
    _check_positive("a", a)
    return math.lgamma(a)


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a)."""
    _check_gamma_args(a, x)
    return float(_sp.gammainc(a, x))


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    _check_gamma_args(a, x)
    return float(_sp.gammaincc(a, x))


def digamma(x: float) -> float:
    """Digamma function psi(x) = d/dx ln Gamma(x), x > 0."""
    _check_positive("x", x)
    return float(_sp.digamma(x))
