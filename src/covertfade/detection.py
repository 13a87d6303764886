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
rule of their own.

The fixed-threshold (CDI) averages run over a grid of points at once
(``cdi_grid``; ``expected_zeta_cdi`` and ``zeta_star_cdi`` are one-point
calls of it, and ``threshold_cdi_exact`` runs the argmin of a one-point
grid).  Each point's log panels are built once per call, a row of cuts per
point, and each threshold only adds panel edges around its missed-detection
step.  The argmins run Newton in lockstep, one ``solver.newton_steps`` core
per point: a round takes the rows of the points still open, adds each one's
step edges, sorts each row, and sums each point's nodes in order with one
reduction per point, so a point's values are those of its one-point call.
Each point's Newton starts at a closed-form estimate of its root
(``_argmin_start``), so most points take three rounds.  The average at the
roots is one more such rule: its missed-detection term is taken by parts
against the bump z f(z) of the Gamma(n_d, 1) density f, so a point takes one
incomplete gamma beside its false-alarm rate, each taken for a whole block
in one call.  Below a mean SNR of 1e-300 every average is its zero-power
limit, and a CDI point there builds no rule; a non-finite table entry or
average raises NumericError.  Every incomplete gamma is ``special``'s, behind
its shape check: a count above 1e305, where scipy's fail, raises a
DomainError wherever one is taken, so not at zero power.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHypothesesError, DomainError, NumericError
from .params import check_fields, check_value
from .solver import newton_lockstep
from .special import gamma_shape, gammainc, gammaincc

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
    "cdi_grid",
    "expected_zeta_star_csi",
    "csi_average_and_slope",
    "expected_p_fa_csi",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANELS_PER_DECADE = 3
# Log panels of the cached CSI node set: they span the rule of every mean SNR
# a in [1e-8, 1e8] while the knee 1/sqrt(n_d) is >= 1e-8.  That bounds the span,
# not the digits: from about n_d 1e16 the gamma arguments of zeta*_n near the
# knee differ from n_d by less than their last bits carry.
_TABLE_SPAN = (1e-9, 4e9)
_TABLE_CACHE = 128  # n_d values; the default design range needs 51
# Offsets, in units of 1/sqrt(n_d) in ln(1 + x), of the panel edges around the
# missed-detection step of a fixed-threshold average.
_STEP_OFFSETS = np.array([-8.0, -2.0, 0.0, 2.0, 8.0])
_STEP_OFFSETS.flags.writeable = False
# Points per lockstep block: a block's rule holds 256 points' nodes, under
# 1 MB at a few hundred nodes a point and 30 MB at the widest span (1e300 / lo).
_GRID_BLOCK = 256
# B_2k / (2k (2k - 1)), k = 1..5: the Stirling series of ln Gamma(n) less
# (n - 1/2) ln n - n + ln(2 pi) / 2.  From _EXACT_BELOW on, its first omitted
# term is below 1e-17.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
_EXACT_BELOW = 20
# 1/k!, k = 2..7: the series of e^t - 1 - t, used below |t| = _SERIES_BELOW
_TAYLOR = tuple(1 / math.factorial(k) for k in range(2, 8))
_SERIES_BELOW = 1e-2
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
    limit 0 where the gamma argument overflows (to inf: no numpy warning)."""
    check_value("threshold", lam, "positive")
    return float(gammaincc(gamma_shape("n_d", w.n_d), w.n_d * (float(lam) / w.sigma_w2)))


def p_md(lam: float, w: WillieParams) -> float:
    """Missed-detection probability at threshold ``lam``; needs h_w2 and p_d.
    Its limit 1 where the gamma argument overflows."""
    check_value("threshold", lam, "positive")
    check_value("h_w2", w.h_w2, "nonnegative")
    x = w.n_d * (float(lam) / (w.h_w2 * w.p_d + w.sigma_w2))
    return float(gammainc(gamma_shape("n_d", w.n_d), x))


def csi_threshold(s, sigma_w2, out=None, work=None):
    """Error-minimizing threshold at received signal power ``s`` = |h_w|^2 P_D,
    elementwise over arrays.  ``out`` receives the thresholds and ``work`` the
    logarithm below; each is a float array of s's shape other than s,
    allocated if None.

    The threshold sigma_w2 (s + sigma_w2) / s log1p(s / sigma_w2) is formed in
    place; where every s > 0 and every threshold is finite that is all.
    Otherwise, where s = 0 the hypotheses coincide and every threshold is
    equally good; the noise floor sigma_w2 is returned there.  It is also
    returned where the formula overflows below s = eps sigma_w2: s is then far
    below the last bit of sigma_w2, and the threshold sigma_w2 + s/2 + O(s^2)
    rounds to sigma_w2.  Where it overflows at larger s (s / sigma_w2 or
    sigma_w2 (s + sigma_w2) beyond the largest double), the threshold is
    sigma_w2 (1 + sigma_w2 / s) ln(1 + s / sigma_w2), the logarithm taken as
    ln s - ln sigma_w2 + log1p(sigma_w2 / s) where s / sigma_w2 overflows.
    """
    check_value("sigma_w2", sigma_w2, "positive")
    s = np.asarray(s, dtype=float)
    lam = np.empty_like(s) if out is None else out
    with np.errstate(all="ignore"):
        log = np.divide(s, sigma_w2, out=np.empty_like(s) if work is None else work)
        np.log1p(log, out=log)
        np.add(s, sigma_w2, out=lam)
        lam *= sigma_w2
        lam /= s
        lam *= log
        if s.size == 0 or (s.min() > 0 and lam.max() < math.inf):
            return lam
        big = s >= np.finfo(float).eps * sigma_w2
        log = np.where(np.isinf(log), np.log(s) - math.log(sigma_w2) + np.log1p(sigma_w2 / s), log)
        np.copyto(lam, sigma_w2 * (1.0 + sigma_w2 / s) * log,
                  where=big & ~np.isfinite(lam) & (s < math.inf))
        np.copyto(lam, sigma_w2, where=~((s > 0) & (np.isfinite(lam) | big)))
    return lam


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
    gamma_shape("n_d", n_d)
    log_term = np.log1p(x)
    md_arg = n_d * (log_term / x)
    fa = gammaincc(n_d, md_arg + n_d * log_term)
    md = gammainc(n_d, md_arg)
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
    """Gamma(N) / (N^N e^-N), the inverse low-power slope of zeta_star_csi:
    e^-c(N) at the log peak c (``_ln_peak``), since ln Gamma(N) - N ln N + N
    cancels digits and exp(N) overflows."""
    return math.exp(-_ln_peak(n_d))


@functools.cache
def _ln_peak_exact(n):
    """c(n) (``_ln_peak``) of an integer n >= 1, in 40-digit arithmetic."""
    import decimal  # loaded at the first such count, not at CLI start

    with decimal.localcontext() as ctx:
        ctx.prec = 40
        d = decimal.Decimal(n)
        return float(d * d.ln() - d - decimal.Decimal(math.factorial(n - 1)).ln())


def _ln_peak(n):
    """c(n) = n ln n - n - ln Gamma(n) = -ln low_power_scale(n), the log of
    the peak h(n) of h(z) = z f(z) for f the Gamma(n, 1) density, to about
    an ulp: exact below ``_EXACT_BELOW``, and from there on
    ln(n / 2 pi) / 2 less the Stirling series, which cancels no digits."""
    if n < _EXACT_BELOW:
        return _ln_peak_exact(int(n))
    n = float(n)
    r = 1.0 / (n * n)
    series = _STIRLING[-1]
    for coef in _STIRLING[-2::-1]:
        series = coef + r * series
    return 0.5 * math.log(n / math.tau) - series / n


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


def _panel_cuts(spans):
    """A row per (lo, hi) in ``spans``: 0 and the log-spaced panel cuts from
    lo to hi, those of np.geomspace(lo, hi, panels + 1), padded with hi to
    the longest row."""
    panels = np.array([max(1, math.ceil(_PANELS_PER_DECADE * (math.log10(hi) - math.log10(lo))))
                       for lo, hi in spans])
    lo, hi = np.array(spans, dtype=float).T
    start, stop = np.log10(lo), np.log10(hi)
    # the k-th cut is 10^(start + k (stop - start) / panels); k stops at panels
    k = np.minimum(np.arange(panels.max() + 1), panels[:, None])
    cuts = np.power(10.0, k * ((stop - start) / panels)[:, None] + start[:, None])
    cuts[:, 0] = lo
    np.copyto(cuts, hi[:, None], where=k == panels[:, None])
    return np.concatenate((np.zeros((len(spans), 1)), cuts), axis=1)


def _panels(cuts):
    """Composite 16-node Gauss-Legendre rule on the panels between consecutive
    distinct cuts of each row of ``cuts`` (each row rising from 0): its nodes
    and weights, a row of 16 per panel, row by row, and each row's panel count."""
    inner = cuts[:, 1:] > cuts[:, :-1]  # not a repeated cut
    left, right = cuts[:, :-1][inner], cuts[:, 1:][inner]
    half = ((right - left) / 2.0)[:, None]
    mid = ((left + right) / 2.0)[:, None]
    return mid + half * _GL_NODES, half * _GL_WEIGHTS, inner.sum(axis=1)


def _rule(lo, hi):
    """Nodes and weights of the composite rule on [0, lo] and log-spaced
    panels from lo to hi."""
    x, weights, _ = _panels(_panel_cuts([(lo, hi)]))
    return x.ravel(), weights.ravel()


def _span(a, n_d):
    """Ends of the log panels for mean SNR a: a tenth of the smaller of a and
    the knee 1/sqrt(n_d), and 40a, beyond which the weight is < 5e-18."""
    return 0.1 * min(a, n_d ** -0.5), min(40.0 * a, _X_MAX)


@functools.cache
def _table_rule():
    return _rule(*_TABLE_SPAN)


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _csi_table(n_d):
    """The two terms of zeta*_n on the cached node set and their sum, read-only."""
    fa, md = _csi_terms(_table_rule()[0], n_d)
    terms = fa, md, fa + md
    for t in terms:
        t.flags.writeable = False
    return terms


def _checked(value, a):
    """``value``, a fading average at mean SNR a; non-finite raises NumericError."""
    if not math.isfinite(value):
        raise NumericError(f"non-finite fading average {value!r} at mean SNR {a!r}")
    return value


def _average(weights, values, a):
    """Sum of weights * values / a: the fading average once ``weights`` carry
    the rule's weights times e^(-x/a)."""
    return _checked(float(weights @ values) / a, a)


def _csi_averages(n_d, a, slope=False):
    """Fading averages of the false-alarm and missed-detection terms of
    zeta*_n at mean SNR a = p_d / sigma_w2 >= _SNR_FLOOR; with ``slope``, their
    sum and its derivative in ln a (the weights times x/a - 1)."""
    lo, hi = _span(a, n_d)
    if _TABLE_SPAN[0] <= lo and hi <= _TABLE_SPAN[1]:
        x, weights = _table_rule()
        fa, md, both = _csi_table(n_d)
        # the nodes rise; past x = 746a, e^(-x/a) is exactly 0
        end = int(np.searchsorted(x, 746.0 * a, side="right"))
        x, weights, fa, md, both = x[:end], weights[:end], fa[:end], md[:end], both[:end]
    else:
        x, weights = _rule(lo, hi)
        fa, md = _csi_terms(x, n_d)
        both = fa + md
    r = x / a
    k = weights * np.exp(-r)
    averages = _average(k, fa, a), _average(k, md, a)
    return (sum(averages), _average(k * (r - 1.0), both, a)) if slope else averages


def _argmin_start(n, a, ln_a, ln_1pa, peak):
    """An estimate of the CDI argmin u = ln(lam / sigma_w2) at count n and mean
    SNR a (ln a and ln(1 + a) given, so that a may overflow), ``peak`` = c(n).

    At high a the fading density barely changes across the bump h, so the
    slope's average E_x[h(y / (1 + x))] is about the density of ln(1 + x) at
    u times the bump's integral low_power_scale(n) = e^-c(n).  Its zero is then
    the root of u - expm1(u) / a - ln a - c(n) = n (u - expm1 u), taken by at
    most four Newton steps from the root of n u^2 / 2 = ln a + c(n).  At low a
    (the bump wider than the density) the argmin is near ln(1 + a), less as
    a sqrt(n) grows; the larger estimate is returned."""
    low = ln_1pa / (1.0 + 0.5 * a * math.sqrt(n))
    d = ln_a + peak
    if d <= 0.0:  # a below the bump's integral: no density-matching root
        return low
    u = math.sqrt(2.0 * d / n)
    for _ in range(4):
        e = math.expm1(u)
        slope = n * e + 1.0 - (e + 1.0) / a
        if not 0.0 < slope < math.inf:
            break
        u -= (n * (e - u) + u - e / a - d) / slope
    return max(u, low)


class _CdiGrid:
    """The fixed-threshold averages of a grid of points (``WillieParams`` or
    ``SystemParams``), each point's span and panel cuts built once.

    The rule of a point at threshold lam is its panels split again at edges
    around the missed-detection step, which falls at x = lam / sigma_w2 - 1
    over about 1/sqrt(n_d) in ln(1 + x).  A round takes a row of cuts for
    each point it asks about: the point's panel cuts (padded with its top
    cut) and its five step edges, an edge outside the span being one more
    top cut, sorted.  The nodes of a point are contiguous and in order, and
    its sums run over its own nodes in that order, so its values do not
    depend on the rest of the grid.  Every point lies above the SNR floor;
    ``cdi_grid`` gives the others their zero-power limits.

    Both the argmin's slope and the average integrate the bump h(z) = z f(z),
    for f the Gamma(n_d, 1) density, at z = y / (1 + x), y = n_d lam / sigma_w2.
    In t = ln(z / n_d) = u - ln(1 + x), u = ln(lam / sigma_w2), it is
    h = e^(n_d (t - e^t + 1) + c(n_d)) (``_ln_peak``).
    """

    def __init__(self, points):
        self.points = points
        self.a = np.array([w.p_d / w.sigma_w2 for w in points])
        self.n = np.array([float(gamma_shape("n_d", w.n_d)) for w in points])
        self.ln_s = [math.log(w.sigma_w2) for w in points]
        spans = [_span(a, w.n_d) for a, w in zip(self.a.tolist(), points)]
        self.top = np.array([hi for _, hi in spans])
        self.ends = np.array([(math.log1p(lo), math.log1p(hi)) for lo, hi in spans])
        self.offsets = _STEP_OFFSETS / np.sqrt(self.n)[:, None]  # of the step edges
        self.floor = -2e3 / self.n  # of t - e^t + 1, where h underflows, e^c(n_d) included
        peaks = {n: _ln_peak(n) for n in set(self.n.tolist())}
        self.peak = np.array([peaks[n] for n in self.n.tolist()])
        # then a top cut per step edge; ``rule`` writes each edge inside the span there
        edges = np.repeat(self.top[:, None], _STEP_OFFSETS.size, axis=1)
        self.cuts = np.concatenate((_panel_cuts(spans), edges), axis=1)

    def rule(self, index, lams):
        """Nodes x and weights times e^(-x/a), a row per panel, the point of
        each panel, and where each point's nodes start, of the averages of the
        points ``index`` (an array) at thresholds ``lams``."""
        step = np.array([math.log(lam) - self.ln_s[j] for j, lam in zip(index.tolist(), lams)])
        step = step[:, None] + self.offsets[index]
        ends = self.ends[index]
        cuts = self.cuts[index]
        np.expm1(step, out=cuts[:, -_STEP_OFFSETS.size:],
                 where=(ends[:, :1] < step) & (step < ends[:, 1:]))
        cuts.sort(axis=1)
        x, weights, counts = _panels(cuts)
        panel = np.repeat(index, counts)
        first = (np.cumsum(counts) - counts) * _GL_NODES.size
        k = np.divide(x, self.a[panel][:, None])
        np.negative(k, out=k)
        np.exp(k, out=k)
        k *= weights
        return x, k, panel, first

    def _log_bump(self, index, u, x, panel):
        """At the nodes x of the points ``panel``, for the points ``index`` at
        ``u``: t (clipped where h underflows anyway), e^t - 1, n_d and
        ln h - c(n_d) = n_d (t - e^t + 1), floored where h underflows."""
        at = np.zeros(self.a.size)
        at[index] = u
        t = at[panel][:, None] - np.log1p(x)
        np.minimum(t, 50.0, out=t)
        e_t = np.expm1(t)
        n = self.n[panel][:, None]
        log_h = t - e_t
        # That difference is off by about 2 eps / |t| of itself, and is 0 below
        # |t| = 4e-16, yet at a large n_d the whole bump lies within |t| < 1e-2:
        # below _SERIES_BELOW it is -t^2 (1/2! + t/3! + ... + t^5/7!), to 5e-17.
        near = np.abs(t) < _SERIES_BELOW
        if near.any():
            s = t[near]
            series = _TAYLOR[-1]
            for coef in _TAYLOR[-2::-1]:
                series = coef + s * series
            log_h[near] = -s * s * series
        np.maximum(log_h, self.floor[panel][:, None], out=log_h)
        log_h *= n
        return t, e_t, n, log_h

    def slopes(self, index, u):
        """For the points ``index`` at u = ln(lam / sigma_w2): a function with
        the sign of d/du of the averaged error, and its u-derivative.  That
        slope is E_x[h(y / (1 + x))] - h(y), and d/du h = (n_d - y) h.  Up to
        the common factor e^c(n_d), the log of the ratio of the two terms,
        returned here, is near linear about the root, and -inf where E_x
        underflows."""
        index = np.asarray(index, dtype=np.intp)
        lams = [math.exp(min(self.ln_s[j] + v, _LN_MAX)) for j, v in zip(index.tolist(), u)]
        x, k, panel, first = self.rule(index, lams)
        _, e_t, n, h = self._log_bump(index, u, x, panel)
        np.exp(h, out=h)
        e_t *= h
        e_t *= -n
        e_t *= k
        h *= k
        a = self.a[index]
        means, drifts = [(np.add.reduceat(v.ravel(), first) / a).tolist() for v in (h, e_t)]
        f, df = [], []
        for v, n_d, a, mean, drift in zip(u, self.n[index].tolist(), a.tolist(), means, drifts):
            if _checked(mean, a) == 0.0:
                f.append(-math.inf)
                df.append(0.0)
                continue
            e = math.expm1(min(v, 700.0))
            f.append(math.log(mean) + n_d * (e - v))
            df.append(_checked(drift, a) / mean + n_d * e)
        return f, df

    def argmin(self):
        """The CDI argmin of every point (``threshold_cdi_exact``): Newton on
        [0, hi] from ``_argmin_start``."""
        brackets, guesses = [], []
        for w, ln_s, n, a, peak in zip(self.points, self.ln_s, self.n.tolist(), self.a.tolist(),
                                       self.peak.tolist()):
            # ln a and ln(1 + a) as differences of logs, so that a may overflow
            ln_1pa = math.log(w.sigma_w2 + w.p_d) - ln_s
            hi = min(ln_1pa + math.log1p(ln_1pa), _LN_MAX - ln_s)
            ln_a = math.log(w.p_d) - ln_s
            brackets.append(hi)
            guesses.append(min(_argmin_start(n, a, ln_a, ln_1pa, peak), hi))
        f, df = self.slopes(range(len(brackets)), guesses)
        starts = [(0.0, hi, u, f0, df0) for hi, u, f0, df0 in zip(brackets, guesses, f, df)]
        return [math.exp(min(ln_s + u, _LN_MAX))
                for ln_s, u in zip(self.ln_s, newton_lockstep(self.slopes, starts))]

    def average(self, lams):
        """The fading-averaged total error of every point at its threshold in
        ``lams`` (``expected_zeta_cdi``).

        The missed-detection term E_x[P(n_d, y / (1 + x))] over the rule's
        [0, X] is taken by parts, F(x) = 1 - e^(-x/a) against the bump:
        F(X) P(n_d, y / (1 + X)) plus the integral of F(x) h(y / (1 + x)) / (1 + x).
        The bump's centre x_c = lam / sigma_w2 - 1 (kept in [0, X]) takes
        F(x_c) times the bump's whole mass on [0, X], P(n_d, y) - P(n_d, y / (1 + X)),
        with P(n_d, y) = 1 - p_fa, so that only F(x) - F(x_c) is integrated:
        a bump narrower than the rule resolves (n_d beyond about 1e30) then
        still counts in full.  One incomplete gamma per point beside p_fa's, each
        taken for the whole block in one call."""
        index = np.arange(len(self.points))
        ratios = [float(lam) / w.sigma_w2 for w, lam in zip(self.points, lams)]
        # u = ln(lam / sigma_w2) from the rounded ratio that p_fa reads, else a
        # difference of logs where the ratio overflows or underflows
        u = np.array([math.log(r) if 0.0 < r < math.inf else math.log(lam) - ln_s
                      for r, lam, ln_s in zip(ratios, lams, self.ln_s)])
        x, k, panel, first = self.rule(index, lams)
        t, _, _, log_h = self._log_bump(index, u, x, panel)
        log_h += t  # h / (1 + x) = e^(ln h + t - u)
        log_h += (self.peak - u)[panel][:, None]
        np.exp(log_h, out=log_h)
        centre = np.clip(np.expm1(np.minimum(u, _LN_MAX)), 0.0, self.top)
        # the weights times F(x) - F(x_c) = e^(-x_c/a) - e^(-x/a)
        k *= np.expm1((x - centre[panel][:, None]) / self.a[panel][:, None])
        log_h *= k
        parts = np.add.reduceat(log_h.ravel(), first).tolist()
        with np.errstate(over="ignore"):  # inf where it overflows: P = 1, Q = 0
            top = gammainc(self.n, self.n * np.exp(u - self.ends[:, 1])).tolist()
            fas = gammaincc(self.n, self.n * np.array(ratios)).tolist()  # p_fa's values
        f_top = (-np.expm1(-self.top / self.a)).tolist()
        f_centre = (-np.expm1(-centre / self.a)).tolist()
        return [fa + _checked(f_x * p_x + f_c * (1.0 - fa - p_x) + part, a)
                for a, f_x, p_x, f_c, part, fa in zip(self.a.tolist(), f_top, top, f_centre,
                                                      parts, fas)]


def cdi_grid(points, lams=None):
    """Thresholds and fading-averaged total errors over a grid of ``points``
    (``WillieParams`` or ``SystemParams``): at the thresholds ``lams``, one a
    point, or, where ``lams`` is None, at each point's CDI argmin, the
    argmins running Newton in lockstep (``solver.newton_lockstep``) over
    blocks of ``_GRID_BLOCK`` points.  A point below the SNR floor takes its
    zero-power limits, the threshold sigma_w2 and the error 1, and builds
    nothing.  Two lists; a point's values are those of its one-point call."""
    if lams is not None:
        if len(lams) != len(points):
            raise DomainError(f"lams has {len(lams)} entries for {len(points)} points")
        lams = [check_value("threshold", lam, "positive") for lam in lams]
    thresholds = [w.sigma_w2 for w in points] if lams is None else lams
    zetas = [1.0] * len(points)
    above = [i for i, w in enumerate(points) if w.p_d / w.sigma_w2 >= _SNR_FLOOR]
    for start in range(0, len(above), _GRID_BLOCK):
        block = above[start:start + _GRID_BLOCK]
        grid = _CdiGrid([points[i] for i in block])
        block_lams = grid.argmin() if lams is None else [lams[i] for i in block]
        for i, lam, zeta in zip(block, block_lams, grid.average(block_lams)):
            thresholds[i], zetas[i] = lam, zeta
    return thresholds, zetas


def expected_zeta_cdi(lam: float, w: WillieParams) -> float:
    """Total detection error at fixed threshold, averaged over the fading gain."""
    return cdi_grid([w], [lam])[1][0]


def threshold_cdi_exact(w: WillieParams) -> float:
    """Threshold minimizing the fading-averaged total error, where its slope
    changes sign (``solver.newton_steps``).

    At p_d = 0 the hypotheses coincide and every threshold is equally good;
    the noise floor sigma_w2, its low-power limit, is returned there and
    wherever the averaged error is its zero-power limit (below the SNR floor).
    The search runs in u = ln(lam / sigma_w2) on a bracket [0, hi] fixed in
    advance, to ``solver.TOL`` relative in lam (below the largest double).  It
    starts at an estimate of the root (``_argmin_start``: the density-matching
    root at high mean SNR, near ln(1 + a) at low), the one point evaluated
    before the Newton steps; the end u = 0 needs none.  Below the noise floor the
    averaged error only falls: a Gamma density at
    lam < sigma_w2 shrinks as its scale grows past sigma_w2, so there the
    missed-detection rate rises more slowly than the false-alarm rate drops.
    Above, the argmin lies below lam = sigma_w2 (1 + a)(1 + ln(1 + a)) at mean
    SNR a (at every n_d 1-5000 and p_d / sigma_w2 2e-5-2e9 tried).
    """
    return w.sigma_w2 if w.p_d / w.sigma_w2 < _SNR_FLOOR else _CdiGrid([w]).argmin()[0]


def zeta_star_cdi(w: WillieParams) -> float:
    """Minimum fading-averaged total error with distribution knowledge only."""
    return cdi_grid([w])[1][0]


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
