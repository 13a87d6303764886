"""Gamma-family special functions.

Thin scalar wrappers over ``math.lgamma`` and scipy's compiled ``cython_special``
kernels that reject arguments outside the mathematical domain with a DomainError
(instead of scipy's silent NaN), take any real scalar (numpy's included) at
double precision, and return Python floats.
"""

import math
import numbers

from scipy.special import cython_special as _cs

from .errors import DomainError

__all__ = ["ln_gamma", "reg_lower_gamma", "reg_upper_gamma", "digamma"]


# numbers.Real admits numpy's scalars too.  The built-in types are tested
# first because on the hot path the ABC check alone would double a call's cost.
def _check_positive(name, value):
    if not ((isinstance(value, (int, float)) or isinstance(value, numbers.Real))
            and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be a finite positive real, got {value!r}")


def _check_gamma_args(a, x):
    _check_positive("a", a)
    if not ((isinstance(x, (int, float)) or isinstance(x, numbers.Real))
            and math.isfinite(x) and x >= 0):
        raise DomainError(f"x must be a finite nonnegative real, got {x!r}")


def ln_gamma(a: float) -> float:
    """Natural log of the complete gamma function, ln Gamma(a), a > 0."""
    _check_positive("a", a)
    return math.lgamma(a)


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a)."""
    _check_gamma_args(a, x)
    return _cs.gammainc(float(a), float(x))


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    _check_gamma_args(a, x)
    return _cs.gammaincc(float(a), float(x))


def digamma(x: float) -> float:
    """Digamma function psi(x) = d/dx ln Gamma(x), x > 0."""
    _check_positive("x", x)
    return _cs.psi(float(x))
