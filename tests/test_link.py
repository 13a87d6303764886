import math
import warnings

import numpy as np
import pytest

from conftest import throughput_derivative_sign
from covertfade.errors import DomainError, NumericError
from covertfade.link import (
    covert_connection_prob,
    estimation_error_var,
    snr_bob,
    throughput,
)
from covertfade.params import SystemParams

# Pilot power that makes beta_b = sigma_b2 / (sigma_b2 + p_t) vanish: the
# perfect-CSI limit.
PERFECT_P_T = 1e300


def link(p_d=0.05, rate=1.0, n_t=1, p_t=1.0, sigma_b2=0.01, n_d=50,
         sigma_w2=0.05, epsilon=0.05):
    return SystemParams(
        sigma_b2=sigma_b2, rate=rate, n_t=n_t, p_t=p_t, p_d=p_d, n_d=n_d,
        sigma_w2=sigma_w2, epsilon=epsilon,
    )


def p_t_for(beta_b, sigma_b2=0.01):
    """Single-pilot power giving the error variance ``beta_b``."""
    return sigma_b2 * (1.0 - beta_b) / beta_b


class TestEstimationModel:
    def test_reference_setup(self):
        assert estimation_error_var(link()) == pytest.approx(0.01 / 1.01, rel=1e-14)

    def test_perfect_estimation_limit(self):
        assert estimation_error_var(link(p_t=1e9)) < 1e-10

    def test_depends_only_on_pilot_energy(self):
        a = estimation_error_var(link(n_t=1, p_t=1.0))
        b = estimation_error_var(link(n_t=4, p_t=0.25))
        assert a == pytest.approx(b, rel=1e-14)

    def test_invalid_beta_rejected(self):
        # sigma_b2 / (sigma_b2 + p_t) rounds to 1.0
        with pytest.raises(DomainError):
            estimation_error_var(link(sigma_b2=1e300, p_t=1e-300))


class TestConnectionProbability:
    def test_perfect_csi_limit(self):
        p = covert_connection_prob(link(p_d=0.05, p_t=PERFECT_P_T))
        assert p == pytest.approx(math.exp(-0.01 * 1.0 / 0.05), rel=1e-10)

    def test_zero_rate_limit(self):
        l = link(p_d=0.05, rate=1e-12)
        assert covert_connection_prob(l) == pytest.approx(1.0, abs=1e-9)

    def test_no_power_is_outage(self):
        assert covert_connection_prob(link(p_d=0.0)) == 0.0

    def test_underflowing_received_power_is_outage(self):
        # (1 - beta_b) p_d rounds to 0 for a subnormal p_d once beta_b > 0.5:
        # the exponent's limit is -inf, so P_cc is 0
        l = link(p_d=5e-324, sigma_b2=1.0, p_t=0.5)
        assert (1.0 - estimation_error_var(l)) * l.p_d == 0.0
        assert covert_connection_prob(l) == 0.0
        assert throughput(l) == 0.0

    def test_underflowing_exponent_numerator_and_denominator_raise(self):
        # beta_b 0.5 and sigma_b2 (2^0.5 - 1) below half the least subnormal:
        # the exponent is 0/0 in doubles
        l = link(p_d=5e-324, sigma_b2=5e-324, p_t=5e-324, rate=0.5)
        with pytest.raises(NumericError, match="0/0"):
            covert_connection_prob(l)

    def test_monte_carlo_oracle(self):
        l = link(p_d=0.05)
        beta_b = estimation_error_var(l)
        rng = np.random.default_rng(201)
        n = 1_000_000
        h_hat2 = rng.exponential(1.0 - beta_b, n)
        h_tilde2 = rng.exponential(beta_b, n)
        gamma_b = h_hat2 * l.p_d / (h_tilde2 * l.p_d + l.sigma_b2)
        empirical = float(np.mean(np.log2(1.0 + gamma_b) > l.rate))
        assert covert_connection_prob(l) == pytest.approx(empirical, abs=0.002)


class TestSnr:
    def test_zero_estimate(self):
        assert snr_bob(0.0, 0.3, link()) == 0.0

    def test_perfect_estimate(self):
        l = link(p_d=0.05)
        assert snr_bob(1.0, 0.0, l) == pytest.approx(0.05 / 0.01, rel=1e-14)

    def test_arithmetic(self):
        l = link(p_d=0.05)
        assert snr_bob(1.0, 0.01, l) == pytest.approx(0.05 / 0.0105, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            snr_bob(-1.0, 0.0, link())
        with pytest.raises(DomainError):
            snr_bob(np.array([1.0, 0.5]), np.array([0.1, -1e-300]), link())

    def test_elementwise_over_arrays(self):
        l = link(p_d=0.05)
        h_hat2 = np.array([0.0, 1.0, 1.0, 2.5])
        h_tilde2 = np.array([0.3, 0.0, 0.01, 0.2])
        expected = [snr_bob(a, b, l) for a, b in zip(h_hat2, h_tilde2)]
        assert np.array_equal(snr_bob(h_hat2, h_tilde2, l), expected)

    def test_in_place_into_its_inputs(self):
        l = link(p_d=0.05)
        h_hat2, h_tilde2 = np.array([0.0, 1.0, 2.5]), np.array([0.3, 0.01, 0.2])
        expected = snr_bob(h_hat2, h_tilde2, l)
        assert snr_bob(h_hat2, h_tilde2, l, out=h_hat2, work=h_tilde2) is h_hat2
        assert np.array_equal(h_hat2, expected)

    def test_snr_beyond_the_largest_double_is_inf(self):
        # a subnormal noise variance: the SNR overflows, which is a connection, not an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert snr_bob(1.0, 0.0, link(sigma_b2=1e-320)) == math.inf
            got = snr_bob(np.array([0.0, 1.0]), np.array([0.0, 0.0]), link(sigma_b2=1e-320))
        assert got.tolist() == [0.0, math.inf]


class TestThroughput:
    def test_zero_connection(self):
        assert throughput(link(p_d=0.0, n_d=50)) == 0.0
        # 2^R - 1 overflows, so P_cc is 0, while n_d * R overflows to inf
        assert throughput(link(rate=1e300, n_d=10**9)) == 0.0

    def test_counts_data_symbols_only(self):
        l = link(p_d=1e12, rate=1.0, p_t=PERFECT_P_T, n_d=50)  # P_cc -> prefactor only
        assert throughput(l) == pytest.approx(50.0, rel=1e-9)

    def test_scales_with_symbols_and_rate(self):
        l = link(p_d=0.05, rate=2.0, n_d=25)
        p = covert_connection_prob(l)
        assert throughput(l) == pytest.approx(25 * 2.0 * p, rel=1e-14)


class TestInvariants:
    def test_pcc_increasing_in_power(self):
        values = [
            covert_connection_prob(link(p_d=p))
            for p in (0.001, 0.01, 0.05, 0.2, 1.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_pcc_decreasing_in_error_and_rate(self):
        by_beta = [
            covert_connection_prob(link(p_d=0.05, p_t=p_t_for(b)))
            for b in (0.001, 0.01, 0.1, 0.5)
        ]
        assert all(b < a for a, b in zip(by_beta, by_beta[1:]))
        by_rate = [
            covert_connection_prob(link(p_d=0.05, rate=r))
            for r in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b < a for a, b in zip(by_rate, by_rate[1:]))

    def test_constraint_riding_throughput_decreasing_in_n(self):
        # strict covertness keeps the sign condition valid from n = 1 up
        l = link(p_d=0.0, sigma_w2=0.05, epsilon=0.01)
        for n in range(1, 201):
            sign = throughput_derivative_sign(n, l)
            assert sign < 0, f"derivative sign flipped at n_d={n}"

    def test_snr_draws_reproduce_pcc(self):
        l = link(p_d=0.03)
        beta_b = estimation_error_var(l)
        rng = np.random.default_rng(202)
        n = 400_000
        h_hat2 = rng.exponential(1.0 - beta_b, n)
        h_tilde2 = rng.exponential(beta_b, n)
        snr = h_hat2 * l.p_d / (h_tilde2 * l.p_d + l.sigma_b2)
        # spot-check the scalar operation agrees with the vectorized draw
        assert snr_bob(h_hat2[0], h_tilde2[0], l) == pytest.approx(snr[0], rel=1e-12)
        empirical = float(np.mean(np.log2(1.0 + snr) > l.rate))
        p = covert_connection_prob(l)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(empirical - p) <= 3.0 * se
