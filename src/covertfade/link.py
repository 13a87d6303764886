"""Receiver-side analytics: pilot-based LMMSE estimation quality, effective
SNR under channel uncertainty, connection (non-outage) probability at a fixed
rate, and per-slot throughput."""

import math
from dataclasses import dataclass

from .errors import DomainError
from .params import check_fields
from .special import ln_gamma, digamma

__all__ = [
    "LinkParams",
    "EstimationModel",
    "estimation_model",
    "covert_connection_prob",
    "snr_bob",
    "throughput",
    "throughput_derivative_sign",
]


@dataclass(frozen=True)
class LinkParams:
    """Legitimate-link scenario: noise variance, rate, pilot and data setup."""

    sigma_b2: float
    rate: float
    n_t: int = 1
    p_t: float = 1.0
    p_d: float = 0.0
    n_d: int = 1

    def __post_init__(self):
        check_fields(
            self,
            positive=("sigma_b2", "rate", "p_t"),
            nonnegative=("p_d",),
            counts=("n_t", "n_d"),
        )


@dataclass(frozen=True)
class EstimationModel:
    """LMMSE decomposition variances: error variance beta_b and estimate
    variance 1 - beta_b."""

    beta_b: float

    def __post_init__(self):
        check_fields(self, fractions=("beta_b",))

    @property
    def estimate_var(self) -> float:
        return 1.0 - self.beta_b


def estimation_model(l: LinkParams) -> EstimationModel:
    """Channel estimation error variance from the pilot budget n_t * p_t."""
    return EstimationModel(beta_b=l.sigma_b2 / (l.sigma_b2 + l.n_t * l.p_t))


def _rate_factor(rate: float) -> float:
    # 2^R - 1, via exp for non-integer rates
    return math.expm1(rate * math.log(2.0))


def covert_connection_prob(l: LinkParams, e: EstimationModel) -> float:
    """Probability the receiver decodes a rate-R message despite estimation
    error; 0 when no data power is spent."""
    if l.p_d == 0:
        return 0.0
    g = _rate_factor(l.rate)
    ok = e.estimate_var
    prefactor = ok / (ok + e.beta_b * g)
    return prefactor * math.exp(-l.sigma_b2 * g / (ok * l.p_d))


def snr_bob(h_hat2: float, h_tilde2: float, l: LinkParams) -> float:
    """Effective SNR with the estimation error acting as extra noise."""
    if h_hat2 < 0 or h_tilde2 < 0:
        raise DomainError("squared magnitudes must be nonnegative")
    return h_hat2 * l.p_d / (h_tilde2 * l.p_d + l.sigma_b2)


def throughput(n_d: int, l: LinkParams, e: EstimationModel) -> float:
    """Expected reliably delivered bits per slot, counting data symbols only."""
    if n_d < 1:
        raise DomainError("n_d must be >= 1")
    return n_d * l.rate * covert_connection_prob(l, e)


def throughput_derivative_sign(n_d: float, l: LinkParams, e: EstimationModel,
                               sigma_w2: float, epsilon: float) -> float:
    """Sign of d/dN of N * R * P_cc when the data power rides the linearized
    covertness constraint (treating N as continuous).

    The derivative equals a strictly positive prefactor times
    ``e^N Gamma(N) - A N^(N+1) (ln N - psi(N))`` with
    ``A = sigma_b2 (2^R - 1) / (sigma_w2 (1 - beta_b) epsilon)``; both sides
    are compared in log space since N^N overflows long before N = 200.
    """
    a = l.sigma_b2 * _rate_factor(l.rate) / (sigma_w2 * e.estimate_var * epsilon)
    n = float(n_d)
    # ln N - psi(N) > 0 for every N >= 1
    log_neg = math.log(a) + (n + 1.0) * math.log(n) + math.log(
        math.log(n) - digamma(n)
    )
    log_pos = n + ln_gamma(n)
    if log_pos == log_neg:
        return 0.0
    return 1.0 if log_pos > log_neg else -1.0
