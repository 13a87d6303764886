"""Receiver-side analytics for the scenario in ``SystemParams``: pilot-based
LMMSE estimation quality, effective SNR under channel uncertainty, connection
(non-outage) probability at a fixed rate, and per-slot throughput."""

import math

import numpy as np

from .errors import DomainError
from .params import SystemParams, check_value, overflow_check
from .special import ln_gamma, digamma

__all__ = [
    "estimation_error_var",
    "covert_connection_prob",
    "snr_bob",
    "throughput",
    "throughput_derivative_sign",
]


def estimation_error_var(params: SystemParams) -> float:
    """LMMSE error variance beta_b from the pilot budget n_t * p_t; the
    estimate's variance is 1 - beta_b."""
    return check_value("beta_b", params.sigma_b2 / (params.sigma_b2 + params.n_t * params.p_t),
                       "fractions")


def _rate_factor(rate: float) -> float:
    # 2^R - 1, via exp for non-integer rates
    return math.expm1(rate * math.log(2.0))


def covert_connection_prob(params: SystemParams) -> float:
    """Probability the receiver decodes a rate-R message despite estimation
    error; 0 when no data power is spent."""
    beta_b = estimation_error_var(params)
    if params.p_d == 0:
        return 0.0
    g = _rate_factor(params.rate)
    ok = 1.0 - beta_b
    prefactor = ok / (ok + beta_b * g)
    return prefactor * math.exp(-params.sigma_b2 * g / (ok * params.p_d))


def snr_bob(h_hat2, h_tilde2, params: SystemParams):
    """Effective SNR with the estimation error acting as extra noise,
    elementwise over arrays of squared magnitudes."""
    if np.any(h_hat2 < 0) or np.any(h_tilde2 < 0):
        raise DomainError("squared magnitudes must be nonnegative")
    with overflow_check(f"p_d={params.p_d!r} overflows Bob's received power"):
        return h_hat2 * params.p_d / (h_tilde2 * params.p_d + params.sigma_b2)


def throughput(params: SystemParams) -> float:
    """Expected reliably delivered bits per slot, counting data symbols only."""
    return params.n_d * params.rate * covert_connection_prob(params)


def throughput_derivative_sign(n_d: float, params: SystemParams) -> float:
    """Sign of d/dN of N * R * P_cc when the data power rides the linearized
    covertness constraint (treating N as continuous).

    The derivative equals a strictly positive prefactor times
    ``e^N Gamma(N) - A N^(N+1) (ln N - psi(N))`` with
    ``A = sigma_b2 (2^R - 1) / (sigma_w2 (1 - beta_b) epsilon)``; both sides
    are compared in log space since N^N overflows long before N = 200.
    """
    a = params.sigma_b2 * _rate_factor(params.rate) / (
        params.sigma_w2 * (1.0 - estimation_error_var(params)) * params.epsilon
    )
    n = float(n_d)
    # ln N - psi(N) > 0 for every N >= 1
    log_neg = math.log(a) + (n + 1.0) * math.log(n) + math.log(
        math.log(n) - digamma(n)
    )
    log_pos = n + ln_gamma(n)
    if log_pos == log_neg:
        return 0.0
    return 1.0 if log_pos > log_neg else -1.0
