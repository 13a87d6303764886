"""Independent reference values for checking covertfade's CSV output.

Built only on ``scipy.special.gammainc``/``gammaincc``, ``scipy.integrate``
and ``scipy.optimize``, never on covertfade, so a defect in the library's
special functions or quadrature cannot hide in its own check.  Each
``check_*`` function returns a list of problems; an empty list means the
output is correct.
"""

import csv
import functools
import io
import math

from scipy import integrate, optimize, special

# Tolerances, each with its reason:
# - the library's fading averages carry a quadrature error below 1e-8;
ZETA_TOL = 1e-8
# - its covertness root is solved to rtol 1e-8, which moves E[zeta*] by < 1e-8;
ROOT_TOL = 1e-7
# - CSV values carry 12 significant digits;
REL_TOL = 1e-9
# - Monte Carlo: 6 standard errors, so that a correct simulator with any RNG
#   stream fails a check with probability about 2e-9.
Z_BOUND = 6.0

_TAIL = 60.0  # exp(-60) ~ 1e-26: the Exp(1) gain beyond this does not matter


def _fading_average(f, p_d, sigma_w2):
    """E[f(g)] for g ~ Exp(1).

    The integrands turn sharply near g ~ sigma_w2/p_d and can carry all their
    mass within a few multiples of it, which one adaptive rule over the whole
    range misses; so the range is split at dyadic multiples of that point.
    """
    knee = sigma_w2 / p_d
    edges = [0.0] + [knee * 2.0**k for k in range(-8, 64) if knee * 2.0**k < _TAIL] + [_TAIL]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        value, abserr = integrate.quad(lambda g: math.exp(-g) * f(g), lo, hi,
                                       epsabs=1e-13, epsrel=1e-12, limit=500)
        if abserr > 1e-11:
            raise ArithmeticError(f"oracle quadrature error {abserr:g} on ({lo}, {hi})")
        total += value
    return total


def _csi_args(n, g, p_d, sigma_w2):
    """Gamma arguments (false alarm, missed detection) at the genie threshold."""
    snr = g * p_d / sigma_w2
    if snr == 0.0:
        return n, n
    log_term = math.log1p(snr)
    return n * (1.0 + 1.0 / snr) * log_term, n * log_term / snr


@functools.lru_cache(maxsize=None)
def zeta_star_csi_avg(n, p_d, sigma_w2):
    """Fading average of the genie-aided minimum total error."""
    def f(g):
        x_fa, x_md = _csi_args(n, g, p_d, sigma_w2)
        return special.gammaincc(n, x_fa) + special.gammainc(n, x_md)
    return _fading_average(f, p_d, sigma_w2)


@functools.lru_cache(maxsize=None)
def p_fa_csi_avg(n, p_d, sigma_w2):
    """Fading average of the false-alarm rate at the genie threshold."""
    return _fading_average(
        lambda g: special.gammaincc(n, _csi_args(n, g, p_d, sigma_w2)[0]), p_d, sigma_w2)


@functools.lru_cache(maxsize=None)
def zeta_fixed_avg(n, p_d, sigma_w2, lam):
    """Fading average of the total error at the fixed threshold ``lam``."""
    md = _fading_average(
        lambda g: special.gammainc(n, n * lam / (g * p_d + sigma_w2)), p_d, sigma_w2)
    return special.gammaincc(n, n * lam / sigma_w2) + md


def p_cc(p_d, sigma_b2, rate, n_t, p_t):
    """Closed-form connection probability under LMMSE estimation error."""
    beta = sigma_b2 / (sigma_b2 + n_t * p_t)
    g = 2.0 ** rate - 1.0
    return (1.0 - beta) / (1.0 - beta + beta * g) * math.exp(-sigma_b2 * g / ((1.0 - beta) * p_d))


def covert_power(n, epsilon, sigma_w2):
    """Data power putting the fading-averaged error at exactly 1 - epsilon."""
    gap = lambda p: zeta_star_csi_avg(n, p, sigma_w2) - (1.0 - epsilon)
    lo, hi = 1e-12, 1e-6
    while gap(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    return optimize.brentq(gap, lo, hi, xtol=1e-16, rtol=1e-12)


def linearized_power(n, epsilon, sigma_w2):
    """Closed-form power of the low-power constraint: eps s2 Gamma(N) e^N / N^N."""
    return epsilon * sigma_w2 * math.exp(math.lgamma(n) - n * math.log(n) + n)


def _rows(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"header {rows[:1]} is not {header}")
    return rows[1:]


def _close(got, want, rel=REL_TOL):
    return abs(got - want) <= rel * abs(want)


def check_design(text, epsilon, scn):
    """``optimize --method both`` at one epsilon in scenario ``scn``."""
    problems = []
    rows = _rows(text, ["epsilon", "method", "p_d_star", "n_d_star", "throughput",
                        "power_capped", "diagnostics"])
    if [r[1] for r in rows] != ["exact", "suboptimal"]:
        return [f"methods {[r[1] for r in rows]}"]
    s2, n_lo, n_hi = scn["sigma_w2"], scn["n_d_min"], scn["n_d_max"]
    throughput = lambda n, p: n * scn["rate"] * p_cc(p, scn["sigma_b2"], scn["rate"],
                                                     scn["n_t"], scn["p_t"])
    for eps_text, method, p_text, n_text, thr_text, capped, diag in rows:
        p, n, thr = float(p_text), int(n_text), float(thr_text)
        if not _close(float(eps_text), epsilon) or capped != "false" or diag != "ok":
            problems.append(f"{method}: epsilon/capped/diagnostics {eps_text},{capped},{diag}")
        if not n_lo <= n <= n_hi:
            problems.append(f"{method}: n_d {n} outside [{n_lo}, {n_hi}]")
            continue
        if not _close(thr, throughput(n, p)):
            problems.append(f"{method}: throughput {thr} != closed form {throughput(n, p)}")
        if method == "exact":
            zeta = zeta_star_csi_avg(n, p, s2)
            if abs(zeta - (1.0 - epsilon)) > ROOT_TOL:
                problems.append(f"exact: E[zeta*] {zeta} != 1 - eps {1.0 - epsilon}")
            for m in (n - 1, n + 1):
                if n_lo <= m <= n_hi and throughput(m, covert_power(m, epsilon, s2)) > thr * (1 + 1e-5):
                    problems.append(f"exact: n_d {m} beats the reported n_d {n}")
        elif n != n_lo or not _close(p, linearized_power(n, epsilon, s2)):
            problems.append(f"suboptimal: ({p}, {n}) != linearized power at n_d_min")
    return problems


def check_sweep(text, n_d, p_d_grid, scn):
    """``detect-sweep --mode both`` at one n_d over ``p_d_grid``."""
    problems = []
    rows = _rows(text, ["p_d", "n_d", "mode", "zeta"])
    want = [(p, m) for p in p_d_grid for m in ("csi", "cdi_exact")]
    got = [(float(r[0]), r[2]) for r in rows]
    if len(got) != len(want) or any(not _close(g[0], w[0]) or g[1] != w[1]
                                    for g, w in zip(got, want)):
        return [f"rows {got} are not {want}"]
    s2 = scn["sigma_w2"]
    for (p, mode), r in zip(want, rows):
        zeta = float(r[3])
        if int(r[1]) != n_d:
            problems.append(f"n_d {r[1]} != {n_d}")
        csi = zeta_star_csi_avg(n_d, p, s2)
        if mode == "csi" and abs(zeta - csi) > ZETA_TOL:
            problems.append(f"csi p_d={p}: {zeta} != oracle {csi}")
        if mode == "cdi_exact":
            fixed = zeta_fixed_avg(n_d, p, s2, s2)
            if not csi - ZETA_TOL <= zeta <= fixed + ZETA_TOL:
                problems.append(f"cdi_exact p_d={p}: {zeta} outside [{csi}, {fixed}]")
    return problems


def check_montecarlo(text, trials, n_d, p_d, scn):
    """``simulate --policy csi_optimal``: analytic column and Z_BOUND agreement."""
    problems = []
    rows = _rows(text, ["metric", "empirical", "analytic", "stderr", "pass_3sigma"])
    if [r[0] for r in rows] != ["p_fa", "p_md", "zeta", "p_cc"]:
        return [f"metrics {[r[0] for r in rows]}"]
    s2 = scn["sigma_w2"]
    fa = p_fa_csi_avg(n_d, p_d, s2)
    zeta = zeta_star_csi_avg(n_d, p_d, s2)
    pcc = p_cc(p_d, scn["sigma_b2"], scn["rate"], scn["n_t"], scn["p_t"])
    n_h1 = trials // 2
    n_h0 = trials - n_h1
    se = lambda p, n: math.sqrt(p * (1.0 - p) / n)
    truth = {
        "p_fa": (fa, se(fa, n_h0), n_h0),
        "p_md": (zeta - fa, se(zeta - fa, n_h1), n_h1),
        "zeta": (zeta, math.hypot(se(fa, n_h0), se(zeta - fa, n_h1)), None),
        "p_cc": (pcc, se(pcc, trials), trials),
    }
    for name, emp_text, ana_text, se_text, _ in rows:
        want, want_se, n = truth[name]
        emp, ana, got_se = float(emp_text), float(ana_text), float(se_text)
        if abs(ana - want) > ZETA_TOL:
            problems.append(f"{name}: analytic {ana} != oracle {want}")
        if abs(emp - want) > Z_BOUND * want_se:
            problems.append(f"{name}: empirical {emp} is {abs(emp - want) / want_se:.1f} se from {want}")
        if n is not None and not _close(got_se, se(emp, n)):
            problems.append(f"{name}: stderr {got_se} != binomial {se(emp, n)}")
    return problems
