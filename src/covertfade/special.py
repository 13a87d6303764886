"""Gamma-family special functions.

Thin scalar wrappers over ``math.lgamma`` and scipy's compiled ``cython_special``
kernels that reject arguments outside the mathematical domain with a DomainError
(instead of scipy's silent NaN), take any real scalar (numpy's included) at
double precision, and return Python floats.
"""

import math

from scipy.special import cython_special as _cs

from .params import check_value

__all__ = ["ln_gamma", "reg_lower_gamma", "reg_upper_gamma", "digamma"]


def ln_gamma(a: float) -> float:
    """Natural log of the complete gamma function, ln Gamma(a), a > 0."""
    check_value("a", a, "positive")
    return math.lgamma(a)


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a)."""
    check_value("a", a, "positive")
    check_value("x", x, "nonnegative")
    return _cs.gammainc(float(a), float(x))


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    check_value("a", a, "positive")
    check_value("x", x, "nonnegative")
    return _cs.gammaincc(float(a), float(x))


def digamma(x: float) -> float:
    """Digamma function psi(x) = d/dx ln Gamma(x), x > 0."""
    check_value("x", x, "positive")
    return _cs.psi(float(x))
