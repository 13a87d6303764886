"""Receiver-side analytics for the scenario in ``SystemParams``: pilot-based
LMMSE estimation quality, effective SNR under channel uncertainty, connection
(non-outage) probability at a fixed rate, and per-slot throughput."""

import math

import numpy as np

from .errors import DomainError, NumericError
from .params import SystemParams, check_value, overflow_check

__all__ = [
    "estimation_error_var",
    "covert_connection_prob",
    "snr_bob",
    "throughput",
    "throughput_at",
]


def estimation_error_var(params: SystemParams) -> float:
    """LMMSE error variance beta_b from the pilot budget n_t * p_t; the
    estimate's variance is 1 - beta_b."""
    return check_value("beta_b", params.sigma_b2 / (params.sigma_b2 + params.n_t * params.p_t),
                       "fractions")


def _connection_prob(p_d: float, params: SystemParams) -> float:
    beta_b = estimation_error_var(params)
    if p_d == 0:
        return 0.0
    try:
        g = math.expm1(params.rate * math.log(2.0))  # 2^R - 1, via exp for non-integer rates
    except OverflowError:  # 2^R - 1 beyond the largest double: P_cc is at its limit 0
        return 0.0
    ok = 1.0 - beta_b
    prefactor = ok / (ok + beta_b * g)
    if ok * p_d == 0.0:  # the received data power underflows: P_cc is at its limit 0
        if params.sigma_b2 * g == 0.0:
            raise NumericError(f"P_cc's exponent is 0/0 in doubles (p_d={p_d!r}, "
                               f"beta_b={beta_b!r})")
        return 0.0
    return prefactor * math.exp(-params.sigma_b2 * g / (ok * p_d))


def covert_connection_prob(params: SystemParams) -> float:
    """Probability the receiver decodes a rate-R message despite estimation
    error; 0 when no data power is spent."""
    return _connection_prob(params.p_d, params)


def snr_bob(h_hat2, h_tilde2, params: SystemParams, out=None, work=None):
    """Effective SNR with the estimation error acting as extra noise,
    elementwise over arrays of squared magnitudes.  ``out`` (which may be
    h_hat2) receives the SNR and ``work`` (which may be h_tilde2) the noise
    power, each allocated if None.  A received power beyond the largest
    double is a DomainError; an SNR beyond it is inf."""
    if np.any(h_hat2 < 0) or np.any(h_tilde2 < 0):
        raise DomainError("squared magnitudes must be nonnegative")
    with overflow_check(f"p_d={params.p_d!r} overflows Bob's received power"):
        signal = np.multiply(h_hat2, params.p_d, out=out)
        noise = np.multiply(h_tilde2, params.p_d, out=work)
        noise += params.sigma_b2
    with np.errstate(over="ignore"):  # a tiny noise power: the slot connects
        return np.divide(signal, noise, out=out)


def throughput_at(n_d: int, p_d: float, params: SystemParams) -> float:
    """``throughput`` at the design (n_d, p_d), unchecked and without a copy."""
    p_cc = _connection_prob(p_d, params)
    return n_d * params.rate * p_cc if p_cc else 0.0  # 0, not inf * 0, past n_d * rate's range


def throughput(params: SystemParams) -> float:
    """Expected reliably delivered bits per slot, counting data symbols only."""
    return throughput_at(params.n_d, params.p_d, params)

