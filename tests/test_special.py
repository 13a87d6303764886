import math

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from covertfade.errors import DomainError
from covertfade.special import digamma, ln_gamma, reg_lower_gamma, reg_upper_gamma

EULER_GAMMA = 0.5772156649015329


class TestLnGamma:
    def test_gamma_one(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_five_is_factorial(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_against_integer_product_oracle(self):
        # ln 49! accumulated as an exact-integer product
        oracle = math.log(math.prod(range(1, 50)))
        assert ln_gamma(50.0) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            ln_gamma(bad)


class TestRegLowerGamma:
    def test_exponential_cdf_case(self):
        assert reg_lower_gamma(1.0, 2.0) == pytest.approx(-math.expm1(-2.0), rel=1e-13)

    @pytest.mark.parametrize("a", [1.0, 3.5, 50.0, 200.0])
    def test_zero_argument(self, a):
        assert reg_lower_gamma(a, 0.0) == 0.0

    def test_against_quadrature_oracle(self):
        oracle, _ = integrate.quad(
            lambda t: math.exp(-t) * t**49, 0.0, 50.0, epsabs=1e-13, epsrel=1e-13
        )
        oracle /= math.factorial(49)
        assert reg_lower_gamma(50.0, 50.0) == pytest.approx(oracle, abs=1e-10)

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            reg_lower_gamma(2.0, -0.5)


class TestRegUpperGamma:
    def test_exponential_tail(self):
        assert reg_upper_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_zero_argument(self):
        assert reg_upper_gamma(3.0, 0.0) == 1.0

    def test_against_quadrature_oracle(self):
        lower, _ = integrate.quad(
            lambda t: math.exp(-t) * t**49, 0.0, 60.0, epsabs=1e-13, epsrel=1e-13
        )
        oracle = 1.0 - lower / math.factorial(49)
        assert reg_upper_gamma(50.0, 60.0) == pytest.approx(oracle, abs=1e-10)


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_at_two(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)

    def test_finite_difference_oracle(self):
        h = 1e-6
        fd = (ln_gamma(50.0 + h) - ln_gamma(50.0 - h)) / (2.0 * h)
        assert digamma(50.0) == pytest.approx(fd, abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(-3.0)


class TestIdentities:
    @pytest.mark.parametrize("a", [1.0, 2.0, 5.0, 50.0, 100.0, 500.0])
    @pytest.mark.parametrize("factor", [0.1, 1.0, 10.0])
    def test_complement_identity(self, a, factor):
        x = factor * a
        total = reg_lower_gamma(a, x) + reg_upper_gamma(a, x)
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("a", [1.0, 2.0, 5.0, 50.0, 100.0, 500.0])
    def test_monotone_in_x(self, a):
        xs = [0.0, 0.1 * a, 0.5 * a, a, 2.0 * a, 10.0 * a]
        values = [reg_lower_gamma(a, x) for x in xs]
        assert all(b >= a_ for a_, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    @pytest.mark.parametrize("x", [1.0, 2.5, 10.0, 50.0, 200.0, 900.0])
    def test_digamma_recurrence(self, x):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-10)

    @pytest.mark.parametrize("x", [1.5, 5.0, 50.0, 500.0])
    def test_digamma_is_lngamma_derivative(self, x):
        h = 1e-6 * max(1.0, x / 10.0)
        fd = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h)
        assert digamma(x) == pytest.approx(fd, abs=1e-5)


class TestNumpyScalars:
    @pytest.mark.parametrize("kind", [np.int64, np.float32, np.float64])
    def test_accepted_like_python_floats(self, kind):
        assert reg_lower_gamma(kind(5), kind(1)) == reg_lower_gamma(5.0, 1.0)
        assert reg_upper_gamma(kind(5), kind(1)) == reg_upper_gamma(5.0, 1.0)
        assert ln_gamma(kind(5)) == ln_gamma(5.0)
        assert digamma(kind(5)) == digamma(5.0)

    @pytest.mark.parametrize(
        "bad", [np.float64("nan"), np.float32("inf"), np.float64("-inf"), np.int64(-1)],
        ids=["float64-nan", "float32-inf", "float64-neg-inf", "int64-negative"],
    )
    def test_bad_values_still_rejected(self, bad):
        with pytest.raises(DomainError):
            reg_lower_gamma(bad, 1.0)
        with pytest.raises(DomainError):
            reg_upper_gamma(2.0, bad)
        with pytest.raises(DomainError):
            digamma(bad)


class TestMatchesScipyUfuncs:
    """The shim calls scipy's compiled scalar kernels; they must give exactly
    the values of the vectorized ufuncs the rest of the code uses."""

    SHAPES = [1.0, 50.0, 75.0, 114.0, 200.0, 400.0, 500.0]
    FACTORS = np.geomspace(1e-3, 30.0, 41)

    @pytest.mark.parametrize("a", SHAPES)
    def test_bit_identical(self, a):
        for x in self.FACTORS * a:
            x = float(x)
            assert reg_lower_gamma(a, x) == float(sp.gammainc(a, x))
            assert reg_upper_gamma(a, x) == float(sp.gammaincc(a, x))
            assert digamma(x) == float(sp.digamma(x))
        assert digamma(a) == float(sp.digamma(a))


class TestMpmathOracle:
    """Spot checks against mpmath's arbitrary-precision gamma routines, an
    oracle that shares no code with scipy.special."""

    SHAPES = [1.0, 50.0, 75.0, 100.0, 200.0, 500.0]
    FACTORS = np.geomspace(1e-3, 30.0, 9)

    @pytest.mark.parametrize("a", SHAPES)
    def test_incomplete_gamma(self, a):
        for factor in self.FACTORS:
            x = float(factor * a)
            with mpmath.workdps(30):
                lower = float(mpmath.gammainc(a, 0, x, regularized=True))
                upper = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
            assert reg_lower_gamma(a, x) == pytest.approx(lower, abs=1e-12)
            assert reg_upper_gamma(a, x) == pytest.approx(upper, abs=1e-12)

    @pytest.mark.parametrize("x", SHAPES + [1.5, 2.5, 9.75])
    def test_digamma(self, x):
        with mpmath.workdps(30):
            oracle = float(mpmath.digamma(x))
        assert digamma(x) == pytest.approx(oracle, abs=1e-12)
