"""Gamma-family special functions, and the library's one route to scipy.

Scalar wrappers over ``math.lgamma`` and scipy's ``gammainc``, ``gammaincc``
and ``psi`` ufuncs that reject arguments outside the mathematical domain with
a DomainError (instead of scipy's silent NaN), take any real scalar (numpy's
included) at double precision, and return Python floats.  ``detection`` calls
the ufuncs on arrays; every incomplete gamma first passes ``gamma_shape``.
"""

import math

from scipy.special import gammainc, gammaincc, psi

from .errors import DomainError
from .params import check_value

__all__ = ["ln_gamma", "reg_lower_gamma", "reg_upper_gamma", "digamma"]

# scipy's incomplete gamma gives NaN at some arguments from a shape of about 3e305;
# an int, so that the count 10**305, read exactly from "1e305", is not above it
_SHAPE_MAX = 10**305


def gamma_shape(name, a):
    """``a``, a real shape that scipy's incomplete gammas serve; else a DomainError
    naming it ``name``: an int in all its digits, so that it reads as above the
    limit, any other real (numpy's with no overflow warning) by its float's repr."""
    if (a if type(a) is int else float(a)) > _SHAPE_MAX:
        from decimal import Context, Decimal  # loaded here, on the error path alone
        got = f"{Decimal(a).normalize(Context(prec=400)):e}" if type(a) is int else repr(float(a))
        raise DomainError(f"{name}={got} is above {_SHAPE_MAX:g},"
                          " beyond which the incomplete gamma functions fail")
    return a


def ln_gamma(a: float) -> float:
    """Natural log of the complete gamma function, ln Gamma(a), a > 0."""
    check_value("a", a, "positive")
    return math.lgamma(a)


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a)."""
    a = gamma_shape("a", check_value("a", a, "positive"))
    check_value("x", x, "nonnegative")
    return float(gammainc(float(a), float(x)))


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    a = gamma_shape("a", check_value("a", a, "positive"))
    check_value("x", x, "nonnegative")
    return float(gammaincc(float(a), float(x)))


def digamma(x: float) -> float:
    """Digamma function psi(x) = d/dx ln Gamma(x), x > 0."""
    check_value("x", x, "positive")
    return float(psi(float(x)))
