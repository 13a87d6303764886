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
(``cdi_grid``; the one-point names are fronts over it).  Each point's log
panels are built once per call, and each threshold only adds panel edges
around its missed-detection step.  The argmins run Newton in lockstep, one
``solver.newton_steps`` core per point: a round takes the points still open,
sorts their panel cuts and step edges together by (point, x) into one flat
rule, and sums each point's nodes in order with one reduction per segment,
so a point's values are those of its one-point call.  The average at the
roots is one more such rule and one gamma call.  Below a mean SNR of 1e-300
the averages are their zero-power limits; a non-finite table entry or
average raises NumericError, and a count above 1e305, where scipy's
incomplete gamma fails, a DomainError.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DegenerateHypothesesError, DomainError, NumericError
from .params import check_fields, check_value
from .solver import newton_lockstep
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
    "cdi_grid",
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
# Offsets, in units of 1/sqrt(n_d) in ln(1 + x), of the panel edges around the
# missed-detection step of a fixed-threshold average.
_STEP_OFFSETS = np.array([-8.0, -2.0, 0.0, 2.0, 8.0])
_STEP_OFFSETS.flags.writeable = False
# Points per lockstep block: a flat rule array holds 256 points' nodes, under
# 1 MB at a few hundred nodes a point and 30 MB at the widest span (1e300 / lo).
_GRID_BLOCK = 256
# scipy's incomplete gamma gives NaN at some arguments from a shape of about 3e305
_N_D_MAX = 1e305
# From this count on, low_power_scale sums the Stirling series, whose first
# omitted term is below 1e-18 there; below it, the log-gamma route keeps 12
# digits and the printed designs of counts up to 400.
_STIRLING_FROM = 1000
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


def _gamma_count(n_d):
    """``n_d``, if the incomplete gamma functions serve it; else DomainError."""
    if n_d > _N_D_MAX:
        raise DomainError(f"n_d={n_d:.6g} is above {_N_D_MAX:g}, beyond which the incomplete"
                          " gamma functions fail")
    return n_d


def _csi_terms(x, n_d):
    """False-alarm and missed-detection probabilities at the error-minimizing
    threshold, at SNRs x > 0 (arrays); their sum is zeta*_n(x)."""
    _gamma_count(n_d)
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
    """Gamma(N) / (N^N e^-N), the inverse low-power slope of zeta_star_csi:
    from ``_STIRLING_FROM`` on, sqrt(2 pi / N) e^(1/(12N) - 1/(360N^3)) by
    the Stirling series, since ln Gamma(N) - N ln N + N cancels (to 2e-3 of
    the result at N = 1e12) and exp(N) overflows."""
    if n_d < _STIRLING_FROM:
        return math.exp(ln_gamma(n_d) - n_d * math.log(n_d) + n_d)
    n = float(n_d)
    return math.sqrt(2.0 * math.pi / n) * math.exp((1 / 12 - 1 / (360 * n * n)) / n)


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
    """0 and the log-spaced panel cuts from lo to hi of each (lo, hi) in
    ``spans``, concatenated, and the index of the span of each cut.  The cuts
    are those of np.geomspace(lo, hi, panels + 1), built for all spans at once."""
    panels = [max(1, math.ceil(_PANELS_PER_DECADE * (math.log10(hi) - math.log10(lo))))
              for lo, hi in spans]
    sizes = np.array(panels, dtype=np.intp) + 2
    first = np.cumsum(sizes) - sizes  # where each span's 0 goes
    owner = np.repeat(np.arange(sizes.size), sizes)
    ends = np.array(spans, dtype=float).reshape(-1, 2).T
    start, stop = np.log10(ends)
    # the k-th cut is 10^(start + k (stop - start) / panels); k = -1 at the 0
    k = np.arange(owner.size) - first[owner] - 1.0
    cuts = np.power(10.0, k * ((stop - start) / panels)[owner] + start[owner])
    cuts[first] = 0.0
    cuts[first + 1], cuts[first + sizes - 1] = ends
    return cuts, owner


def _panels(cuts, keys):
    """Composite 16-node Gauss-Legendre rule on the panels between consecutive
    distinct ``cuts`` of one key, for runs of cuts (one run per key, each
    rising from 0): its nodes and weights, a row of 16 per panel, and the
    key of each panel."""
    inner = cuts[1:] > cuts[:-1]  # not a repeated cut, nor the 0 that starts a run
    left, right = cuts[:-1][inner], cuts[1:][inner]
    half = ((right - left) / 2.0)[:, None]
    mid = ((left + right) / 2.0)[:, None]
    return mid + half * _GL_NODES, half * _GL_WEIGHTS, keys[:-1][inner]


def _rule(lo, hi):
    """Nodes and weights of the composite rule on [0, lo] and log-spaced
    panels from lo to hi."""
    x, weights, _ = _panels(*_panel_cuts([(lo, hi)]))
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
    """The two terms of zeta*_n on the cached node set, read-only."""
    terms = _csi_terms(_table_rule()[0], n_d)
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
        fa, md = _csi_table(n_d)
    else:
        x, weights = _rule(lo, hi)
        fa, md = _csi_terms(x, n_d)
    k = weights * np.exp(-x / a)
    averages = _average(k, fa, a), _average(k, md, a)
    return (sum(averages), _average(k * (x / a - 1.0), fa + md, a)) if slope else averages


class _CdiGrid:
    """The fixed-threshold averages of a grid of points (``WillieParams`` or
    ``SystemParams``), each point's span and panel cuts built once.

    The rule of a point at threshold lam is its panels split again at edges
    around the missed-detection step, which falls at x = lam / sigma_w2 - 1
    over about 1/sqrt(n_d) in ln(1 + x).  A round takes one flat rule for all
    the points it asks about: their cuts and step edges sorted together by
    (point, x).  The nodes of a point are contiguous and in order, and its
    sums run over its own nodes in that order, so its values do not depend on
    the rest of the grid.  Points below the SNR floor take their zero-power
    limits and build nothing.
    """

    def __init__(self, points):
        self.points = points
        # the points above the SNR floor, by their index in this list
        self.above = [i for i, w in enumerate(points) if w.p_d / w.sigma_w2 >= _SNR_FLOOR]
        ws = [points[i] for i in self.above]
        self.a = np.array([w.p_d / w.sigma_w2 for w in ws])
        self.n = np.array([float(_gamma_count(w.n_d)) for w in ws])
        self.ln_s = [math.log(w.sigma_w2) for w in ws]
        spans = [_span(a, w.n_d) for a, w in zip(self.a.tolist(), ws)]
        self.ends = np.array([(math.log1p(lo), math.log1p(hi)) for lo, hi in spans])
        self.offsets = _STEP_OFFSETS / np.sqrt(self.n)[:, None]  # of the step edges
        self.floor = -1e3 / self.n  # of t - e^t, where h underflows
        self.cuts, self.owner = _panel_cuts(spans)

    def rule(self, index, lams):
        """Nodes x and weights times e^(-x/a), a row per panel, the point of
        each panel, and where each point's nodes start, of the averages of the
        points ``index`` (an increasing array into ``above``) at thresholds
        ``lams``."""
        step = np.array([math.log(lam) - self.ln_s[j] for j, lam in zip(index.tolist(), lams)])
        step = step[:, None] + self.offsets[index]
        ends = self.ends[index]
        inside = (ends[:, :1] < step) & (step < ends[:, 1:])
        keep = np.zeros(self.a.size, dtype=bool)
        keep[index] = True
        keep = keep[self.owner]
        cuts = np.concatenate((self.cuts[keep], np.expm1(step[inside])))
        keys = np.concatenate((self.owner[keep], index[inside.nonzero()[0]]))
        order = np.lexsort((cuts, keys))
        x, weights, panel = _panels(cuts[order], keys[order])
        first = np.searchsorted(panel, index) * _GL_NODES.size
        k = np.divide(x, self.a[panel][:, None])
        np.negative(k, out=k)
        np.exp(k, out=k)
        k *= weights
        return x, k, panel, first

    def _averages(self, index, first, *values):
        """Per array of ``values`` and per point of ``index``, the sum of its
        nodes' values (from ``first`` on, in node order) / a, to be ``_checked``."""
        a = self.a[index]
        return [(np.add.reduceat(v.ravel(), first) / a).tolist() for v in values]

    def slopes(self, index, u):
        """For the points ``index`` (into ``above``) at u = ln(lam / sigma_w2): a
        function with the sign of d/du of the averaged error, and its
        u-derivative.  That slope is E_x[h(y / (1 + x))] - h(y) at
        y = n_d lam / sigma_w2, with h(y) = y f(y) for f the Gamma(n_d, 1)
        density and d/du h = (n_d - y) h.  Up to a common factor
        h = e^(n_d (t - e^t + 1)) at t = ln(y / n_d); the log of the ratio of
        the two terms, returned here, is near linear about the root, and -inf
        where E_x underflows."""
        index = np.asarray(index, dtype=np.intp)
        lams = [math.exp(min(self.ln_s[j] + v, _LN_MAX)) for j, v in zip(index.tolist(), u)]
        x, k, panel, first = self.rule(index, lams)
        at = np.zeros(self.a.size)
        at[index] = u
        t = at[panel][:, None] - np.log1p(x)
        np.minimum(t, 50.0, out=t)  # clipped where h underflows anyway
        e_t = np.expm1(t)
        n = self.n[panel][:, None]
        h = t - e_t
        np.maximum(h, self.floor[panel][:, None], out=h)
        h *= n
        np.exp(h, out=h)
        e_t *= h
        e_t *= -n
        e_t *= k
        h *= k
        means, drifts = self._averages(index, first, h, e_t)
        f, df = [], []
        for v, n_d, a, mean, drift in zip(u, self.n[index].tolist(), self.a[index].tolist(),
                                          means, drifts):
            if _checked(mean, a) == 0.0:
                f.append(-math.inf)
                df.append(0.0)
                continue
            e = math.expm1(min(v, 700.0))
            f.append(math.log(mean) + n_d * (e - v))
            df.append(_checked(drift, a) / mean + n_d * e)
        return f, df

    def argmin(self):
        """The CDI argmin of every point (``threshold_cdi_exact``)."""
        lams = [w.sigma_w2 for w in self.points]
        brackets = []
        for j, i in enumerate(self.above):
            # ln(1 + a) as a difference of logs, so that a may overflow
            w = self.points[i]
            ln_1pa = math.log(w.sigma_w2 + w.p_d) - self.ln_s[j]
            brackets.append(min(ln_1pa + math.log1p(ln_1pa), _LN_MAX - self.ln_s[j]))
        if brackets:
            f, df = self.slopes(range(len(brackets)), [0.0] * len(brackets))
            starts = [(0.0, hi, 0.0, f0, df0) for hi, f0, df0 in zip(brackets, f, df)]
            for j, u in enumerate(newton_lockstep(self.slopes, starts, 1e-8)):
                lams[self.above[j]] = math.exp(min(self.ln_s[j] + u, _LN_MAX))
        return lams

    def average(self, lams):
        """The fading-averaged total error of every point at its threshold in
        ``lams`` (``expected_zeta_cdi``)."""
        zetas = [1.0] * len(self.points)
        if self.above:
            index = np.arange(len(self.above))
            lams_above = [lams[i] for i in self.above]
            x, k, panel, first = self.rule(index, lams_above)
            # inf where it overflows: no numpy warning
            args = np.array([self.points[i].n_d * (float(lam) / self.points[i].sigma_w2)
                             for i, lam in zip(self.above, lams_above)])
            k *= special.gammainc(self.n[panel][:, None], args[panel][:, None] / (1.0 + x))
            md, = self._averages(index, first, k)
            for i, lam, a, value in zip(self.above, lams_above, self.a.tolist(), md):
                zetas[i] = p_fa(lam, self.points[i]) + _checked(value, a)
        return zetas


def cdi_grid(points, lams=None):
    """Thresholds and fading-averaged total errors over a grid of ``points``
    (``WillieParams`` or ``SystemParams``): at the thresholds ``lams``, or,
    where ``lams`` is None, at each point's CDI argmin, the argmins running
    Newton in lockstep (``solver.newton_lockstep``) over blocks of
    ``_GRID_BLOCK`` points.  Two lists; a point's values are those of its
    one-point call."""
    if lams is not None:
        lams = [check_value("threshold", lam, "positive") for lam in lams]
    thresholds, zetas = [], []
    for start in range(0, len(points), _GRID_BLOCK):
        grid = _CdiGrid(points[start:start + _GRID_BLOCK])
        block = grid.argmin() if lams is None else lams[start:start + _GRID_BLOCK]
        thresholds += block
        zetas += grid.average(block)
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
    The search runs in u = ln(lam / sigma_w2) on a bracket fixed in advance,
    to 1e-8 relative in lam (below the largest double), from u = 0.  Below
    the noise floor the averaged error only falls: a Gamma density at
    lam < sigma_w2 shrinks as its scale grows past sigma_w2, so there the
    missed-detection rate rises more slowly than the false-alarm rate drops.
    Above, the argmin lies below lam = sigma_w2 (1 + a)(1 + ln(1 + a)) at mean
    SNR a (at every n_d 1-5000 and p_d / sigma_w2 2e-5-2e9 tried).
    """
    return _CdiGrid([w]).argmin()[0]


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
