"""Radiometer detection analysis at the adversary.

Closed-form false-alarm / missed-detection probabilities of the average-power
test, the optimal threshold and minimum total error under perfect channel
knowledge, the distribution-knowledge-only threshold at the sign change of
its averaged error's slope, expectations over the Rayleigh fading gain, and
the low-power linear approximation of the minimum total error.

Fading averages run in the SNR x = g p_d / sigma_w2, with density
e^(-x/a)/a for the mean SNR a = p_d / sigma_w2, on one composite 16-node
Gauss-Legendre rule: a panel on [0, lo], then log-spaced panels up to 40a,
where lo is a tenth of the smaller of a and the knee 1/sqrt(n_d) of the
error curve.  The CSI averages share one node set for every a in [1e-8,
1e8], on which the two gamma terms of zeta*_n are tabulated once per n_d in
a bounded cache, so each average is a weighted dot product; other a get a
rule of their own.  The log panels of a rule are built once per (n_d, a),
in a cache of a few entries, and each threshold of the fixed-threshold
average only adds panel edges around its missed-detection step: the Newton
steps of its argmin and the average at the root share one set of panels.
Below a mean SNR of 1e-300 the averages are their zero-power limits; a
non-finite table entry or average raises NumericError.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DegenerateHypothesesError, NumericError
from .params import check_fields, check_value
from .solver import newton_bracket
from .special import ln_gamma, reg_lower_gamma, reg_upper_gamma

__all__ = [
    "WillieParams",
    "p_fa",
    "p_md",
    "csi_threshold",
    "optimal_threshold_csi",
    "zeta_star_csi",
    "zeta_linear_csi",
    "low_power_scale",
    "threshold_cdi_approx",
    "expected_zeta_cdi",
    "threshold_cdi_exact",
    "zeta_star_cdi",
    "expected_zeta_star_csi",
    "csi_average_and_slope",
    "expected_p_fa_csi",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANELS_PER_DECADE = 3
# Log panels of the cached CSI node set: they cover the rule of every mean
# SNR a in [1e-8, 1e8] (for n_d <= 1e16).
_TABLE_SPAN = (1e-9, 4e9)
_TABLE_CACHE = 128  # n_d values; the default design range needs 51
_CUTS_CACHE = 4  # (lo, hi) pairs; one serves a whole CDI argmin and its average
# Offsets, in units of 1/sqrt(n_d) in ln(1 + x), of the panel edges around the
# missed-detection step of a fixed-threshold average.
_STEP_OFFSETS = np.array([-8.0, -2.0, 0.0, 2.0, 8.0])
_STEP_OFFSETS.flags.writeable = False
# Below this mean SNR the first-order term of every average is < 1e-140.
_SNR_FLOOR = 1e-300
_X_MAX = 1e300  # cap on the top panel edge
_LN_MAX = math.log(np.finfo(float).max)  # ln of the largest double; its exp is finite


@dataclass(frozen=True)
class WillieParams:
    """Adversary-side scenario: noise variance, observation length, and the
    transmit power / channel gain of the hypothesis under test.  Whatever reads
    only sigma_w2, n_d and p_d (``p_fa``, the fading averages, the CDI argmin)
    takes a ``SystemParams`` too: it validates those fields alike."""

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


def p_fa(lam: float, w: WillieParams) -> float:
    """False-alarm probability of the radiometer at threshold ``lam``; its
    limit 0 where the gamma argument overflows."""
    check_value("threshold", lam, "positive")
    x = w.n_d * (float(lam) / w.sigma_w2)  # inf where it overflows: no numpy warning
    return reg_upper_gamma(w.n_d, x) if x < math.inf else 0.0


def p_md(lam: float, w: WillieParams) -> float:
    """Missed-detection probability at threshold ``lam``; needs h_w2 and p_d.
    Its limit 1 where the gamma argument overflows."""
    check_value("threshold", lam, "positive")
    check_value("h_w2", w.h_w2, "nonnegative")
    x = w.n_d * (float(lam) / (w.h_w2 * w.p_d + w.sigma_w2))  # inf where it overflows
    return reg_lower_gamma(w.n_d, x) if x < math.inf else 1.0


def csi_threshold(s, sigma_w2):
    """Error-minimizing threshold at received signal power ``s`` = |h_w|^2 P_D,
    elementwise over arrays.

    Where s = 0 the hypotheses coincide and every threshold is equally good;
    the noise floor sigma_w2 is returned there.  It is also returned where
    sigma_w2 (s + sigma_w2) / s overflows: s is then far below the last bit of
    sigma_w2, and the threshold sigma_w2 + s/2 + O(s^2) rounds to sigma_w2.
    """
    s = np.asarray(s, dtype=float)
    with np.errstate(all="ignore"):
        lam = sigma_w2 * (s + sigma_w2) / s * np.log1p(s / sigma_w2)
    keep = (s > 0) & (np.isfinite(lam) | (s >= np.finfo(float).eps * sigma_w2))
    return np.where(keep, lam, sigma_w2)


def optimal_threshold_csi(w: WillieParams) -> float:
    """Error-minimizing radiometer threshold given the true channel gain."""
    if w.h_w2 is None or w.h_w2 * w.p_d == 0:
        raise DegenerateHypothesesError(
            "h_w2 * p_d = 0: hypotheses coincide, threshold is not unique"
        )
    return float(csi_threshold(w.h_w2 * w.p_d, w.sigma_w2))


def _csi_terms(x, n_d):
    """False-alarm and missed-detection probabilities at the error-minimizing
    threshold, at SNRs x > 0 (arrays); their sum is zeta*_n(x)."""
    log_term = np.log1p(x)
    md_arg = n_d * (log_term / x)
    fa = special.gammaincc(n_d, md_arg + n_d * log_term)
    md = special.gammainc(n_d, md_arg)
    if not (np.isfinite(fa).all() and np.isfinite(md).all()):
        raise NumericError(f"non-finite error probability at n_d={n_d}")
    return fa, md


def zeta_star_csi(w: WillieParams) -> float:
    """Minimum total detection error under perfect channel knowledge.

    The zero-power limit (either p_d = 0 or h_w2 = 0) returns 1.
    """
    check_value("h_w2", w.h_w2, "nonnegative")
    if w.h_w2 * w.p_d == 0:
        return 1.0
    fa, md = _csi_terms(np.array([w.h_w2 * w.p_d / w.sigma_w2]), w.n_d)
    return float(fa[0] + md[0])


def low_power_scale(n_d: int) -> float:
    """Gamma(N) / (N^N e^-N), the inverse low-power slope of zeta_star_csi."""
    return math.exp(ln_gamma(n_d) - n_d * math.log(n_d) + n_d)


def zeta_linear_csi(w: WillieParams) -> float:
    """First-order (low-power) approximation of zeta_star_csi.

    Not clamped: values below 0 indicate the approximation has left its
    validity region and are returned as-is.
    """
    check_value("h_w2", w.h_w2, "nonnegative")
    slope = 1.0 / (low_power_scale(w.n_d) * w.sigma_w2)
    return 1.0 - w.h_w2 * slope * w.p_d


def threshold_cdi_approx(sigma_w2: float) -> float:
    """Low-power closed-form threshold when only the fading law is known."""
    return check_value("sigma_w2", sigma_w2, "positive")


@functools.lru_cache(maxsize=_CUTS_CACHE)
def _cuts(lo, hi):
    """0 and the log-spaced panel cuts from lo to hi, read-only."""
    panels = max(1, math.ceil(_PANELS_PER_DECADE * (math.log10(hi) - math.log10(lo))))
    cuts = np.concatenate(([0.0], np.geomspace(lo, hi, panels + 1)))
    cuts.flags.writeable = False
    return cuts


def _rule(lo, hi, edges=()):
    """Nodes and weights of the composite 16-node Gauss-Legendre rule on
    [0, lo] and log-spaced panels from lo to hi, split again at ``edges``."""
    cuts = np.unique(np.concatenate((_cuts(lo, hi), edges)))
    half = np.diff(cuts)[:, None] / 2.0
    mid = (cuts[:-1] + cuts[1:])[:, None] / 2.0
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def _span(a, n_d):
    """Ends of the log panels for mean SNR a: a tenth of the smaller of a and
    the knee 1/sqrt(n_d), and 40a, beyond which the weight is < 5e-18."""
    return 0.1 * min(a, n_d ** -0.5), min(40.0 * a, _X_MAX)


@functools.cache
def _table_rule():
    return _rule(*_TABLE_SPAN)


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _csi_table(n_d):
    """The two terms of zeta*_n on the cached node set, read-only."""
    terms = _csi_terms(_table_rule()[0], n_d)
    for t in terms:
        t.flags.writeable = False
    return terms


def _average(weights, values, a):
    """Sum of weights * values / a: the fading average once ``weights`` carry
    the rule's weights times e^(-x/a); non-finite raises NumericError."""
    value = float(weights @ values) / a
    if not math.isfinite(value):
        raise NumericError(f"non-finite fading average {value!r} at mean SNR {a!r}")
    return value


def _csi_averages(n_d, a, slope=False):
    """Fading averages of the false-alarm and missed-detection terms of
    zeta*_n at mean SNR a = p_d / sigma_w2 >= _SNR_FLOOR; with ``slope``, their
    sum and its derivative in ln a (the weights times x/a - 1)."""
    lo, hi = _span(a, n_d)
    if _TABLE_SPAN[0] <= lo and hi <= _TABLE_SPAN[1]:
        x, weights = _table_rule()
        fa, md = _csi_table(n_d)
    else:
        x, weights = _rule(lo, hi)
        fa, md = _csi_terms(x, n_d)
    k = weights * np.exp(-x / a)
    averages = _average(k, fa, a), _average(k, md, a)
    return (sum(averages), _average(k * (x / a - 1.0), fa + md, a)) if slope else averages


def _cdi_rule(lam, w: WillieParams):
    """Nodes x of the fixed-threshold average at ``lam``, weights times e^(-x/a), a."""
    a = w.p_d / w.sigma_w2
    lo, hi = _span(a, w.n_d)
    # The missed-detection probability steps down at x = lam / sigma_w2 - 1,
    # over about 1/sqrt(n_d) in ln(1 + x).
    step = math.log(lam) - math.log(w.sigma_w2) + _STEP_OFFSETS / math.sqrt(w.n_d)
    step = step[(math.log1p(lo) < step) & (step < math.log1p(hi))]
    x, weights = _rule(lo, hi, np.expm1(step))
    return x, weights * np.exp(-x / a), a


def expected_zeta_cdi(lam: float, w: WillieParams) -> float:
    """Total detection error at fixed threshold, averaged over the fading gain."""
    check_value("threshold", lam, "positive")
    if w.p_d / w.sigma_w2 < _SNR_FLOOR:
        return 1.0
    x, k, a = _cdi_rule(lam, w)
    arg = w.n_d * (float(lam) / w.sigma_w2)  # inf where it overflows: no numpy warning
    md = special.gammainc(w.n_d, arg / (1.0 + x))
    return p_fa(lam, w) + _average(k, md, a)


def _cdi_slope(u, w: WillieParams):
    """A function with the sign of d/du expected_zeta_cdi at lam = sigma_w2 e^u,
    and its u-derivative.  That slope is E_x[h(y / (1 + x))] - h(y) at
    y = n_d lam / sigma_w2, with h(y) = y f(y) for f the Gamma(n_d, 1) density
    and d/du h = (n_d - y) h.  Up to a common factor h = e^(n_d (t - e^t + 1))
    at t = ln(y / n_d); the log of the ratio of the two terms, returned here,
    is near linear about the root, and -inf where E_x underflows."""
    x, k, a = _cdi_rule(math.exp(min(math.log(w.sigma_w2) + u, _LN_MAX)), w)
    t = np.minimum(u - np.log1p(x), 50.0)  # clipped where h underflows anyway
    e_t = np.expm1(t)
    h = np.exp(w.n_d * np.maximum(t - e_t, -1e3 / w.n_d))
    mean = _average(k, h, a)
    if mean == 0.0:
        return -math.inf, 0.0
    e = math.expm1(min(u, 700.0))
    return (math.log(mean) + w.n_d * (e - u),
            _average(k, -w.n_d * (e_t * h), a) / mean + w.n_d * e)


def threshold_cdi_exact(w: WillieParams) -> float:
    """Threshold minimizing the fading-averaged total error, where its slope
    changes sign (``solver.newton_bracket``).

    At p_d = 0 the hypotheses coincide and every threshold is equally good;
    the noise floor sigma_w2, its low-power limit, is returned there and
    wherever the averaged error is its zero-power limit (below the SNR floor).
    The search runs in u = ln(lam / sigma_w2) on a bracket fixed in advance,
    to 1e-8 relative in lam (below the largest double), from u = 0.
    """
    if w.p_d / w.sigma_w2 < _SNR_FLOOR:
        return w.sigma_w2
    # Below the noise floor the averaged error only falls: a Gamma density at
    # lam < sigma_w2 shrinks as its scale grows past sigma_w2, so there the
    # missed-detection rate rises more slowly than the false-alarm rate drops.
    # Above, the argmin lies below lam = sigma_w2 (1 + a)(1 + ln(1 + a)) at
    # mean SNR a (at every n_d 1-5000 and p_d / sigma_w2 2e-5-2e9 tried);
    # ln(1 + a) is taken as a difference of logs so that a may overflow.
    ln_s = math.log(w.sigma_w2)
    ln_1pa = math.log(w.sigma_w2 + w.p_d) - ln_s
    hi = min(ln_1pa + math.log1p(ln_1pa), _LN_MAX - ln_s)
    slope = lambda u: _cdi_slope(u, w)
    u = newton_bracket(slope, 0.0, hi, 0.0, *slope(0.0), 1e-8)
    return math.exp(min(ln_s + u, _LN_MAX))


def zeta_star_cdi(w: WillieParams) -> float:
    """Minimum fading-averaged total error with distribution knowledge only."""
    return expected_zeta_cdi(threshold_cdi_exact(w), w)


def expected_zeta_star_csi(w: WillieParams) -> float:
    """Fading-gain average of the perfect-knowledge minimum error."""
    a = w.p_d / w.sigma_w2
    return 1.0 if a < _SNR_FLOOR else sum(_csi_averages(w.n_d, a))


def csi_average_and_slope(n_d: int, a: float):
    """expected_zeta_star_csi at mean SNR a = p_d / sigma_w2, for a checked
    count, and its derivative in ln p_d."""
    return (1.0, 0.0) if a < _SNR_FLOOR else _csi_averages(n_d, a, slope=True)


def expected_p_fa_csi(w: WillieParams) -> float:
    """False-alarm probability at the gain-dependent optimal threshold,
    averaged over the fading gain; the noise floor is the threshold at zero
    power."""
    if w.p_d / w.sigma_w2 < _SNR_FLOOR:
        return p_fa(w.sigma_w2, w)
    return _csi_averages(w.n_d, w.p_d / w.sigma_w2)[0]
