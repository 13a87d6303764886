"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import brentq

from covertfade import detection, link, optimizer, simulation
from covertfade.cli import main as cli_main
from covertfade.detection import WillieParams
from covertfade.params import SystemParams
from covertfade.special import digamma, ln_gamma, reg_lower_gamma, reg_upper_gamma

SW2 = 0.05


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


def willie(n_d, p_d):
    return WillieParams(sigma_w2=SW2, n_d=n_d, p_d=p_d)


def design_problem(epsilon):
    return SystemParams(
        epsilon=epsilon, p_max=1.0, n_d_min=50, n_d_max=100,
        sigma_b2=0.01, rate=1.0, n_t=1, p_t=1.0,
        sigma_w2=SW2,
    )


@lru_cache(maxsize=None)
def solve(epsilon, force_nd=None):
    return optimizer.solve_p1(design_problem(epsilon), force_nd=force_nd)


@lru_cache(maxsize=None)
def solve_closed_form(epsilon):
    return optimizer.solve_p1_1(design_problem(epsilon))


EPS_GRID = tuple(np.linspace(0.01, 0.2, 20))


def test_criterion_1_csi_cdi_equivalence():
    with criterion(1, "CSI/CDI equivalence in the large-error regime"):
        start = time.monotonic()
        for n_d in (50, 100):
            def err(p):
                return detection.expected_zeta_star_csi(willie(n_d, p))

            p_at_09 = brentq(lambda p: err(p) - 0.9, 1e-6, 0.05, rtol=1e-6)
            p_at_08 = brentq(lambda p: err(p) - 0.8, 1e-6, 0.05, rtol=1e-6)
            for p_d in np.geomspace(1e-4, p_at_09 * (1.0 - 1e-4), 6):
                csi = err(p_d)
                cdi = detection.zeta_star_cdi(willie(n_d, p_d))
                assert csi >= 0.9 - 1e-9
                assert abs(cdi - csi) <= 0.01
            gap_08 = abs(
                detection.zeta_star_cdi(willie(n_d, p_at_08)) - err(p_at_08)
            )
            assert gap_08 <= 0.03
        assert time.monotonic() - start <= 60.0


def test_criterion_2_linear_approximation_order():
    with criterion(2, "linear approximation residual order"):
        start = time.monotonic()
        for n_d in (1, 50):
            residuals = []
            for p_d in (1e-3, 1e-4, 1e-5):
                w = WillieParams(sigma_w2=SW2, n_d=n_d, p_d=p_d, h_w2=1.0)
                residuals.append(
                    (detection.zeta_star_csi(w) - detection.zeta_linear_csi(w)) / p_d
                )
            assert residuals[0] > residuals[1] > residuals[2]
            assert residuals[2] <= 1e-2
        assert time.monotonic() - start <= 10.0


def test_criterion_3_cdi_threshold_limit():
    with criterion(3, "CDI threshold low-power limit"):
        lam = detection.threshold_cdi_exact(willie(50, 1e-4))
        assert abs(lam - SW2) / SW2 <= 0.05


def test_criterion_4_optimal_blocklength():
    with criterion(4, "minimum blocklength is optimal across the grid"):
        for eps in EPS_GRID:
            assert solve(eps).n_d_star == 50
            assert solve_closed_form(eps).n_d_star == 50


def test_criterion_5_throughput_gap():
    with criterion(5, "throughput gap vs forced maximum blocklength"):
        ratios = []
        sub_fracs = []
        for eps in EPS_GRID:
            opt = solve(eps)
            forced = solve(eps, force_nd=100)
            sub = solve_closed_form(eps)
            ratios.append(opt.throughput / forced.throughput)
            sub_fracs.append(sub.throughput / opt.throughput)
        in_band = [(e, r) for e, r in zip(EPS_GRID, ratios) if 50.0 <= r <= 200.0]
        assert in_band, f"no ratio in [50, 200]; range {min(ratios):.3g}..{max(ratios):.3g}"
        closest = min(in_band, key=lambda er: abs(er[1] - 110.0))
        print(f"  throughput ratio closest to 110: {closest[1]:.1f} at eps={closest[0]:.4g}")

        for eps, frac in zip(EPS_GRID, sub_fracs):
            if eps <= 0.05:
                assert 0.70 <= frac <= 1.00
        assert all(b <= a + 1e-9 for a, b in zip(sub_fracs, sub_fracs[1:]))
        assert 0.65 <= sub_fracs[-1] <= 0.85


def test_criterion_6_monte_carlo_agreement():
    with criterion(6, "Monte Carlo vs closed forms at 1e6 trials"):
        start = time.monotonic()
        rng = np.random.default_rng(7)
        for _ in range(5):
            p_d = float(rng.uniform(0.005, 0.05))
            n_d = int(rng.integers(50, 101))
            params = SystemParams(p_d=p_d, n_d=n_d)
            mc = simulation.McConfig(
                trials=1_000_000, seed=int(rng.integers(1 << 31)), threshold=SW2,
            )
            est = simulation.estimate_detection(params, mc)
            w = willie(n_d, p_d)
            fa = detection.p_fa(SW2, w)
            zeta = detection.expected_zeta_cdi(SW2, w)
            md = zeta - fa
            assert abs(est.p_fa - fa) <= 3.0 * est.se_fa
            assert abs(est.p_md - md) <= 3.0 * est.se_md
            assert abs(est.zeta - zeta) <= 3.0 * est.se_zeta

            pcc_est = simulation.estimate_pcc(params, mc)
            pcc = link.covert_connection_prob(params)
            assert abs(pcc_est.p_cc - pcc) <= 3.0 * pcc_est.se
        assert time.monotonic() - start <= 300.0


def test_criterion_7_property_suites():
    with criterion(7, "identity / optimality / monotonicity properties"):
        # incomplete-gamma complement identity and monotonicity
        for a in (1.0, 2.0, 5.0, 50.0, 100.0, 500.0):
            for x in (0.1 * a, a, 10.0 * a):
                assert reg_lower_gamma(a, x) + reg_upper_gamma(a, x) == pytest.approx(
                    1.0, abs=1e-12
                )
            xs = (0.1 * a, 0.5 * a, a, 5.0 * a)
            vals = [reg_lower_gamma(a, x) for x in xs]
            assert all(b >= v for v, b in zip(vals, vals[1:]))
        # digamma recurrence and derivative relation
        for x in (1.0, 3.0, 20.0, 200.0):
            assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-10)
            h = 1e-6
            fd = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h)
            assert digamma(x) == pytest.approx(fd, abs=1e-5)
        # threshold optimality by grid
        rng = np.random.default_rng(7)
        for _ in range(5):
            w = WillieParams(
                sigma_w2=float(rng.uniform(0.01, 0.1)),
                n_d=int(rng.integers(1, 101)),
                p_d=float(rng.uniform(0.01, 0.2)),
                h_w2=float(rng.uniform(0.1, 3.0)),
            )
            floor = detection.zeta_star_csi(w)
            lam_star = detection.optimal_threshold_csi(w)
            for lam in np.linspace(0.1 * lam_star, 4.0 * lam_star, 100):
                total = detection.p_fa(lam, w) + detection.p_md(lam, w)
                assert total >= floor - 1e-10
        # monotonicities
        e_vals = [
            detection.expected_zeta_star_csi(willie(50, p))
            for p in (0.0, 0.001, 0.01, 0.1)
        ]
        assert all(b < a for a, b in zip(e_vals, e_vals[1:]))
        pcc_vals = [
            link.covert_connection_prob(
                SystemParams(sigma_b2=0.01, rate=1.0, p_t=1.0, p_d=p)
            )
            for p in (0.001, 0.01, 0.1)
        ]
        assert all(b > a for a, b in zip(pcc_vals, pcc_vals[1:]))


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical repeated simulate runs"):
        a = tmp_path / "run_a.csv"
        b = tmp_path / "run_b.csv"
        for path in (a, b):
            code = cli_main(
                ["simulate", "--trials", "50000", "--seed", "314",
                 "--p-d", "0.02", "--out", str(path)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
