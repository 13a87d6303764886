"""Radiometer detection analysis at the adversary.

Closed-form false-alarm / missed-detection probabilities of the average-power
test, the optimal threshold and minimum total error under perfect channel
knowledge, the distribution-knowledge-only threshold found by numeric argmin,
expectations over the Rayleigh fading gain, and the low-power linear
approximation of the minimum total error.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from .errors import DegenerateHypothesesError, DomainError, NumericError
from .params import check_fields
from .special import ln_gamma, reg_lower_gamma, reg_upper_gamma

__all__ = [
    "WillieParams",
    "DetectionReport",
    "p_fa",
    "p_md",
    "detection_report",
    "csi_threshold",
    "optimal_threshold_csi",
    "zeta_star_csi",
    "zeta_linear_csi",
    "threshold_cdi_approx",
    "expected_zeta_cdi",
    "threshold_cdi_exact",
    "zeta_star_cdi",
    "expected_zeta_star_csi",
    "expected_p_fa_csi",
]

# Exponential tail of the fading gain beyond this point is < 1e-13 and the
# integrands are bounded by 2, so truncating the expectation here keeps the
# quadrature error within the 1e-8 budget.
_GAIN_CUTOFF = 30.0
_QUAD_OPTS = dict(epsabs=1e-10, epsrel=1e-10, limit=200)


@dataclass(frozen=True)
class WillieParams:
    """Adversary-side scenario: noise variance, observation length, and the
    transmit power / channel gain of the hypothesis under test."""

    sigma_w2: float
    n_d: int
    p_d: float = 0.0
    h_w2: float = None

    def __post_init__(self):
        check_fields(
            self,
            positive=("sigma_w2",),
            counts=("n_d",),
            nonnegative=("p_d",) if self.h_w2 is None else ("p_d", "h_w2"),
        )


@dataclass(frozen=True)
class DetectionReport:
    threshold: float
    p_fa: float
    p_md: float

    @property
    def zeta(self) -> float:
        return self.p_fa + self.p_md


def _check_threshold(lam):
    if not (math.isfinite(lam) and lam > 0):
        raise DomainError(f"threshold must be positive and finite, got {lam!r}")


def p_fa(lam: float, w: WillieParams) -> float:
    """False-alarm probability of the radiometer at threshold ``lam``."""
    _check_threshold(lam)
    return reg_upper_gamma(w.n_d, w.n_d * lam / w.sigma_w2)


def p_md(lam: float, w: WillieParams) -> float:
    """Missed-detection probability at threshold ``lam``; needs h_w2 and p_d."""
    _check_threshold(lam)
    if w.h_w2 is None:
        raise DomainError("p_md requires h_w2")
    return reg_lower_gamma(w.n_d, w.n_d * lam / (w.h_w2 * w.p_d + w.sigma_w2))


def detection_report(lam: float, w: WillieParams) -> DetectionReport:
    return DetectionReport(threshold=lam, p_fa=p_fa(lam, w), p_md=p_md(lam, w))


def csi_threshold(s, sigma_w2):
    """Error-minimizing threshold at received signal power ``s`` = |h_w|^2 P_D,
    elementwise over arrays.

    Where s = 0 the hypotheses coincide and every threshold is equally good;
    the noise floor sigma_w2 is returned there.
    """
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = sigma_w2 * (s + sigma_w2) / s * np.log1p(s / sigma_w2)
    return np.where(s > 0, lam, sigma_w2)


def optimal_threshold_csi(w: WillieParams) -> float:
    """Error-minimizing radiometer threshold given the true channel gain."""
    if w.h_w2 is None or w.h_w2 * w.p_d == 0:
        raise DegenerateHypothesesError(
            "h_w2 * p_d = 0: hypotheses coincide, threshold is not unique"
        )
    return float(csi_threshold(w.h_w2 * w.p_d, w.sigma_w2))


def _zeta_star_csi_raw(gain_power: float, sigma_w2: float, n_d: int) -> float:
    # Minimum total error for received signal power gain_power = |h_w|^2 P_D.
    if gain_power == 0.0:
        return 1.0
    snr = gain_power / sigma_w2
    log_term = math.log1p(snr)
    arg_fa = n_d * (1.0 + 1.0 / snr) * log_term
    arg_md = n_d * (1.0 / snr) * log_term
    return 1.0 - reg_lower_gamma(n_d, arg_fa) + reg_lower_gamma(n_d, arg_md)


def zeta_star_csi(w: WillieParams) -> float:
    """Minimum total detection error under perfect channel knowledge.

    The zero-power limit (either p_d = 0 or h_w2 = 0) returns 1.
    """
    if w.h_w2 is None:
        raise DomainError("zeta_star_csi requires h_w2")
    return _zeta_star_csi_raw(w.h_w2 * w.p_d, w.sigma_w2, w.n_d)


def zeta_linear_csi(w: WillieParams) -> float:
    """First-order (low-power) approximation of zeta_star_csi.

    Not clamped: values below 0 indicate the approximation has left its
    validity region and are returned as-is.
    """
    if w.h_w2 is None:
        raise DomainError("zeta_linear_csi requires h_w2")
    n = w.n_d
    slope = math.exp(n * math.log(n) - n - ln_gamma(n)) / w.sigma_w2
    return 1.0 - w.h_w2 * slope * w.p_d


def threshold_cdi_approx(sigma_w2: float) -> float:
    """Low-power closed-form threshold when only the fading law is known."""
    if sigma_w2 <= 0:
        raise DomainError("sigma_w2 must be positive")
    return sigma_w2


def _quad(func, lo, hi):
    value, abserr, info, *rest = integrate.quad(func, lo, hi, full_output=1, **_QUAD_OPTS)
    if rest:
        raise NumericError(f"quadrature failed on ({lo}, {hi}): {rest[0]}")
    if abserr > 1e-8:
        raise NumericError(f"quadrature error {abserr:g} above tolerance on ({lo}, {hi})")
    return value


def expected_zeta_cdi(lam: float, w: WillieParams) -> float:
    """Total detection error at fixed threshold, averaged over the fading gain."""
    _check_threshold(lam)
    if w.p_d == 0:
        return 1.0
    fa = p_fa(lam, w)
    md = _quad(
        lambda g: math.exp(-g)
        * reg_lower_gamma(w.n_d, w.n_d * lam / (g * w.p_d + w.sigma_w2)),
        0.0,
        _GAIN_CUTOFF,
    )
    return fa + md


def threshold_cdi_exact(w: WillieParams) -> float:
    """Threshold minimizing the fading-averaged total error (numeric argmin)."""
    if w.p_d <= 0:
        raise DomainError("threshold_cdi_exact requires p_d > 0")
    lo = 0.1 * w.sigma_w2
    snr = w.p_d / w.sigma_w2
    hi = w.sigma_w2 * (1.0 + snr) * (1.0 + math.log1p(snr))
    objective = lambda lam: expected_zeta_cdi(lam, w)
    for _ in range(40):
        res = optimize.minimize_scalar(
            objective, bounds=(lo, hi), method="bounded", options={"xatol": 1e-8 * hi}
        )
        if not res.success:
            raise NumericError(f"threshold minimization failed: {res.message}")
        if res.x < hi - 0.01 * (hi - lo):
            return float(res.x)
        hi *= 2.0  # minimum sat on the bracket edge; widen and retry
    raise NumericError("could not bracket an interior minimum for the threshold")


def zeta_star_cdi(w: WillieParams) -> float:
    """Minimum fading-averaged total error with distribution knowledge only."""
    if w.p_d == 0:
        return 1.0
    return expected_zeta_cdi(threshold_cdi_exact(w), w)


def expected_zeta_star_csi(w: WillieParams) -> float:
    """Fading-gain average of the perfect-knowledge minimum error."""
    if w.p_d == 0:
        return 1.0
    return _quad(
        lambda g: math.exp(-g) * _zeta_star_csi_raw(g * w.p_d, w.sigma_w2, w.n_d),
        0.0,
        _GAIN_CUTOFF,
    )


def expected_p_fa_csi(w: WillieParams) -> float:
    """False-alarm probability at the gain-dependent optimal threshold,
    averaged over the fading gain; the noise floor is the threshold at p_d = 0."""
    if w.p_d == 0:
        return p_fa(w.sigma_w2, w)
    return _quad(
        lambda g: math.exp(-g) * p_fa(float(csi_threshold(g * w.p_d, w.sigma_w2)), w),
        0.0,
        _GAIN_CUTOFF,
    )
