"""Shared oracle helpers for the test suite.

All reference computations here deliberately avoid the library's own
special-function and quadrature code paths: they use scipy.special /
numpy sampling so each check compares two independent routes.  ``oracle``
is the benchmark's split-quad reference (``bench/oracle.py``), which is
built on scipy alone.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
from numpy.polynomial.laguerre import laggauss
from scipy import integrate
from scipy.special import digamma as sp_digamma
from scipy.special import gammainc as sp_gammainc
from scipy.special import gammaincc as sp_gammaincc
from scipy.special import gammaln as sp_gammaln


def symbol_level_radiometer(n_d, variance, trials, seed, chunk=100_000):
    """Average received power over n_d noise-only samples of the given
    complex variance, drawn at the raw-normal level."""
    rng = np.random.default_rng(seed)
    out = np.empty(trials)
    scale = math.sqrt(variance / 2.0)
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        re = rng.normal(0.0, scale, (m, n_d))
        im = rng.normal(0.0, scale, (m, n_d))
        out[done : done + m] = np.mean(re * re + im * im, axis=1)
        done += m
    return out


def symbol_level_radiometer_signal(n_d, p_d, h_w, sigma_w2, trials, seed,
                                   chunk=100_000):
    """Same statistic under transmission: y = sqrt(P) h x + n with x ~ CN(0,1),
    built symbol by symbol rather than through the chi-square shortcut."""
    rng = np.random.default_rng(seed)
    out = np.empty(trials)
    nscale = math.sqrt(sigma_w2 / 2.0)
    amp = math.sqrt(p_d) * h_w
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        x = rng.normal(0.0, math.sqrt(0.5), (m, n_d)) + 1j * rng.normal(
            0.0, math.sqrt(0.5), (m, n_d)
        )
        n = rng.normal(0.0, nscale, (m, n_d)) + 1j * rng.normal(
            0.0, nscale, (m, n_d)
        )
        y = amp * x + n
        out[done : done + m] = np.mean(np.abs(y) ** 2, axis=1)
        done += m
    return out


def pilot_estimates(h_b, n_t, p_t, sigma_b2, rng):
    """Bob's LMMSE estimate of each gain in ``h_b`` from n_t pilot
    observations sqrt(p_t) h_b + CN(0, sigma_b2), drawn one by one and summed
    rather than through their mean."""
    scale = math.sqrt(sigma_b2 / 2.0)
    shape = (len(h_b), n_t)
    y = math.sqrt(p_t) * h_b[:, None] + (rng.normal(0.0, scale, shape)
                                         + 1j * rng.normal(0.0, scale, shape))
    return math.sqrt(p_t) / (sigma_b2 + n_t * p_t) * y.sum(axis=1)


def in_blocks(trials, block, draw):
    """draw(n) for each of the consecutive blocks of ``block`` trials (the
    last one shorter) that make up ``trials``, in order, concatenated."""
    sizes = [block] * (trials // block) + ([trials % block] if trials % block else [])
    return np.concatenate([draw(n) for n in sizes])


def zeta_star_csi_ref(gain_power, sigma_w2, n_d):
    """scipy-based minimum total error at received power |h|^2 P (vectorized)."""
    gain_power = np.asarray(gain_power, dtype=float)
    snr = gain_power / sigma_w2
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = np.log1p(snr)
        arg_fa = n_d * (1.0 + 1.0 / snr) * log_term
        arg_md = n_d * (1.0 / snr) * log_term
        zeta = 1.0 - sp_gammainc(n_d, arg_fa) + sp_gammainc(n_d, arg_md)
    return np.where(gain_power > 0, zeta, 1.0)


def expected_zeta_cdi_grid(lams, p_d, sigma_w2, n_d, nodes=96):
    """Fading-averaged total error on a threshold grid via Gauss-Laguerre
    and scipy incomplete gammas (vectorized over the grid)."""
    lams = np.asarray(lams, dtype=float)
    x, w = laggauss(nodes)
    md = sp_gammainc(
        n_d, n_d * lams[:, None] / (x[None, :] * p_d + sigma_w2)
    ) @ w
    fa = sp_gammaincc(n_d, n_d * lams / sigma_w2)
    return fa + md


def panel_cuts_ref(lo, hi):
    """0 and log-spaced panel cuts from lo to hi, three panels a decade."""
    panels = max(1, math.ceil(3 * (math.log10(hi) - math.log10(lo))))
    return np.concatenate(([0.0], np.geomspace(lo, hi, panels + 1)))


def rule_ref(lo, hi, edges=()):
    """Composite 16-node Gauss-Legendre rule on the panel cuts from lo to hi
    and the extra ``edges``, built from scratch on every call."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    cuts = np.unique(np.concatenate((panel_cuts_ref(lo, hi), edges)))
    half = np.diff(cuts)[:, None] / 2.0
    mid = (cuts[:-1] + cuts[1:])[:, None] / 2.0
    return (mid + half * gl_x).ravel(), (half * gl_w).ravel()


def cdi_rule_ref(lam, sigma_w2, n_d, p_d):
    """Nodes, weights times e^(-x/a) and mean SNR a of the fixed-threshold
    average at ``lam``: edges at ln(1 + x) = ln(lam / sigma_w2) + k / sqrt(n_d)
    for k in (-8, -2, 0, 2, 8), kept strictly inside (lo, hi)."""
    a = p_d / sigma_w2
    lo, hi = 0.1 * min(a, n_d ** -0.5), min(40.0 * a, 1e300)
    step = (math.log(lam) - math.log(sigma_w2)
            + np.array([-8.0, -2.0, 0.0, 2.0, 8.0]) / math.sqrt(n_d))
    step = step[(math.log1p(lo) < step) & (step < math.log1p(hi))]
    x, weights = rule_ref(lo, hi, np.expm1(step))
    return x, weights * np.exp(-x / a), a


def md_by_parts_ref(n_d, a, ratio, dps=30):
    """Missed-detection term of the fixed-threshold average at mean SNR a and
    threshold ratio lam / sigma_w2 (the double the library reads), over the
    rule's [0, X], X = min(40a, 1e300), in ``dps``-digit mpmath: by parts in
    s = ln(1 + x), F(X) P(n_d, y / (1 + X)) + the integral over [0, ln(1 + X)]
    of F(e^s - 1) h, with h = e^(n (t - expm1 t) + c), t = ln(ratio) - s and
    c = n ln n - n - ln Gamma(n) from mpmath's loggamma; P(n_d, y / (1 + X))
    is h's integral up to t = ln(ratio) - ln(1 + X)."""
    import mpmath as mp

    with mp.workdps(dps):
        n, a, u = mp.mpf(n_d), mp.mpf(a), mp.log(mp.mpf(ratio))
        top = min(40 * a, mp.mpf(1e300))
        s_top = mp.log1p(top)
        c = n * mp.log(n) - n - mp.loggamma(n)
        bump = lambda t: mp.exp(n * (t - mp.expm1(t)) + c)
        edges = [u + k / mp.sqrt(n) for k in (-32, -8, -2, 0, 2, 8, 32)]
        inner = mp.quad(lambda s: -mp.expm1(-mp.expm1(s) / a) * bump(u - s),
                        [0] + [e for e in edges if 0 < e < s_top] + [s_top])
        t_top = u - s_top
        p_top = mp.quad(bump, [-mp.inf] + [e - u for e in edges if e - u < t_top] + [t_top])
        return float(-mp.expm1(-top / a) * p_top + inner)


def _load_bench_oracle():
    path = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_bench_oracle()


def gain_average_quad(f, knee, tail=60.0):
    """E[f(g)] for g ~ Exp(1) by adaptive quadrature, split at dyadic
    multiples of ``knee`` (the gain where f turns)."""
    edges = [0.0] + [knee * 2.0**k for k in range(-12, 64) if knee * 2.0**k < tail] + [tail]
    return sum(
        integrate.quad(lambda g: math.exp(-g) * f(g), lo, hi,
                       epsabs=1e-15, epsrel=1e-13, limit=500)[0]
        for lo, hi in zip(edges, edges[1:])
    )


def snr_integral_quad(f, a=math.inf):
    """Integral of f(x) e^(-x/a) over x > 0 by adaptive quadrature in
    u = ln x, which spreads the knee and the decay over many panels."""
    top = math.log(60.0 * a) if math.isfinite(a) else 60.0
    edges = np.arange(-60.0, top, 2.0).tolist() + [top]
    return sum(
        integrate.quad(lambda u: f(math.exp(u)) * math.exp(u - math.exp(u) / a), lo, hi,
                       epsabs=1e-14, epsrel=1e-12, limit=500)[0]
        for lo, hi in zip(edges, edges[1:])
    )


def sample_exponential_gains(n, seed):
    return np.random.default_rng(seed).exponential(1.0, n)


def sign_threshold(n):
    """L(N) = N + ln Gamma(N) - (N+1) ln N - ln(ln N - psi(N)), elementwise;
    ln N - psi(N) > 0 for every N >= 1."""
    n = np.asarray(n, dtype=float)
    return n + sp_gammaln(n) - (n + 1.0) * np.log(n) - np.log(np.log(n) - sp_digamma(n))


def throughput_derivative_sign(n_d, params):
    """Sign of d/dN of N * R * P_cc when the data power rides the linearized
    covertness constraint (N continuous), from the paper's condition.

    The derivative equals a strictly positive prefactor times
    ``e^N Gamma(N) - A N^(N+1) (ln N - psi(N))`` with
    ``A = sigma_b2 (2^R - 1) / (sigma_w2 (1 - beta_b) epsilon)``, so its sign
    is that of L(N) - ln A (``sign_threshold``), compared in log space since
    N^N overflows long before N = 200.
    """
    pilot = params.n_t * params.p_t
    one_minus_beta = pilot / (params.sigma_b2 + pilot)
    a = params.sigma_b2 * math.expm1(params.rate * math.log(2.0)) / (
        params.sigma_w2 * one_minus_beta * params.epsilon)
    return float(np.sign(sign_threshold(n_d) - math.log(a)))
