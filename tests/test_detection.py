import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import gammaincc as sp_gammaincc

from conftest import (
    cdi_rule_ref,
    expected_zeta_cdi_grid,
    gain_average_quad,
    md_by_parts_ref,
    oracle,
    panel_cuts_ref,
    rule_ref,
    sample_exponential_gains,
    snr_integral_quad,
    symbol_level_radiometer,
    symbol_level_radiometer_signal,
    zeta_star_csi_ref,
)
from covertfade import detection
from covertfade.detection import (
    WillieParams,
    expected_zeta_cdi,
    expected_zeta_star_csi,
    optimal_threshold_csi,
    p_fa,
    p_md,
    threshold_cdi_approx,
    threshold_cdi_exact,
    zeta_linear_csi,
    zeta_star_cdi,
    zeta_star_csi,
)
from covertfade.errors import DegenerateHypothesesError, DomainError, NumericError

SW2 = 0.05


def willie(n_d=50, p_d=0.0, h_w2=None, sigma_w2=SW2):
    return WillieParams(sigma_w2=sigma_w2, n_d=n_d, p_d=p_d, h_w2=h_w2)


class TestErrorProbabilities:
    def test_p_fa_tiny_threshold(self):
        assert p_fa(1e-12, willie()) == pytest.approx(1.0, abs=1e-9)

    def test_p_fa_single_sample_exponential_tail(self):
        assert p_fa(SW2, willie(n_d=1)) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_p_fa_monte_carlo_oracle(self):
        stats = symbol_level_radiometer(n_d=50, variance=SW2, trials=1_000_000, seed=101)
        empirical = float(np.mean(stats > SW2))
        assert p_fa(SW2, willie()) == pytest.approx(empirical, abs=0.002)

    def test_p_md_tiny_threshold(self):
        w = willie(p_d=0.01, h_w2=1.0)
        assert p_md(1e-12, w) == pytest.approx(0.0, abs=1e-12)

    def test_p_md_no_power_complements_p_fa(self):
        w = willie(p_d=0.0, h_w2=1.0)
        for lam in (0.02, SW2, 0.1):
            assert p_md(lam, w) == pytest.approx(1.0 - p_fa(lam, w), abs=1e-14)

    def test_p_md_monte_carlo_oracle(self):
        w = willie(p_d=0.01, h_w2=1.0)
        lam = optimal_threshold_csi(w)
        stats = symbol_level_radiometer_signal(
            n_d=50, p_d=0.01, h_w=1.0, sigma_w2=SW2, trials=1_000_000, seed=102
        )
        empirical = float(np.mean(stats <= lam))
        assert p_md(lam, w) == pytest.approx(empirical, abs=0.002)

    @pytest.mark.parametrize("n_d, named", [(10**306, "1e+306"),
                                            (10**305 + 1, "1." + "0" * 304 + "1e+305")],
                             ids=["1e306", "above-by-one"])
    def test_count_above_the_limit_raises(self, n_d, named):
        # scipy gives NaN from a shape of about 3e305; zero power takes p_fa too
        for form in (lambda w: p_fa(0.1, w), lambda w: p_md(0.1, w), detection.expected_p_fa_csi):
            with pytest.raises(DomainError) as info:
                form(WillieParams(SW2, n_d, 0.0, 1.0))
            assert str(info.value) == (f"n_d={named} is above 1e+305, beyond which the"
                                       " incomplete gamma functions fail")

    def test_overflowing_gamma_argument_gives_the_limit(self):
        # n_d * lam / sigma_w2 is inf here, where scipy's Q is 0 and P is 1
        w = willie(p_d=0.01, h_w2=1.0)
        assert p_fa(1e306, w) == 0.0 and p_md(1e306, w) == 1.0
        assert p_fa(1e300, w) == 0.0 and p_md(1e300, w) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would raise
            assert p_fa(np.float64(1e306), w) == 0.0
            assert p_md(np.float64(1e306), WillieParams(0.05, 50, 0.01, 1.0)) == 1.0
            assert expected_zeta_cdi(np.float64(1e306), w) == expected_zeta_cdi(1e306, w)

    def test_threshold_domain(self):
        with pytest.raises(DomainError):
            p_fa(0.0, willie())
        with pytest.raises(DomainError):
            p_md(-1.0, willie(p_d=0.01, h_w2=1.0))

    @pytest.mark.parametrize("form", [lambda w: p_md(SW2, w), zeta_star_csi, zeta_linear_csi],
                             ids=["p_md", "zeta_star_csi", "zeta_linear_csi"])
    def test_csi_forms_need_h_w2(self, form):
        with pytest.raises(DomainError, match="h_w2"):
            form(willie(p_d=0.01))


class TestCsiThreshold:
    def test_unit_snr_closed_form(self):
        w = willie(p_d=SW2, h_w2=1.0)
        assert optimal_threshold_csi(w) == pytest.approx(2.0 * SW2 * math.log(2.0), rel=1e-12)

    def test_high_snr_asymptote(self):
        w = willie(p_d=SW2 * 1e8, h_w2=1.0)
        lam = optimal_threshold_csi(w)
        assert lam / (SW2 * math.log(1e8)) == pytest.approx(1.0, rel=1e-6)

    def test_is_argmin_of_zeta(self):
        w = willie(p_d=0.05, h_w2=1.0)
        res = minimize_scalar(
            lambda lam: p_fa(lam, w) + p_md(lam, w),
            bounds=(1e-6, 10.0 * SW2),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert optimal_threshold_csi(w) == pytest.approx(res.x, abs=1e-8)

    def test_subnormal_power_gives_noise_floor(self):
        # sigma_w2 (s + sigma_w2) / s overflows here; the threshold's limit
        # sigma_w2 + s/2 is sigma_w2 to double precision.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = detection.csi_threshold([1e-312, 5e-324], SW2)
        assert lam.tolist() == [SW2, SW2]

    def test_finite_values_keep_their_bits(self):
        # One overflowing entry sends the whole array down the masked path;
        # every entry whose formula is finite keeps it bit for bit.
        s = np.concatenate([[0.0, 5e-324, 1e-312], np.geomspace(1e-311, 1e3, 4001)])
        with np.errstate(all="ignore"):
            raw = SW2 * (s + SW2) / s * np.log1p(s / SW2)
        lam = detection.csi_threshold(s, SW2)
        finite = np.isfinite(raw)
        assert np.array_equal(lam[finite], raw[finite])
        assert (lam[~finite] == SW2).all()
        fast = s > 1e-310  # no overflow: the unmasked path
        assert np.array_equal(lam[fast], detection.csi_threshold(s[fast], SW2))

    @pytest.mark.parametrize("s, sigma_w2", [
        (1e150, 1e-150), (1e200, 1e-200), (1e300, 1e-300),  # s / sigma_w2 = 1e300, 1e400, 1e600
        (1e200, 1e200), (3e300, 1e300),  # sigma_w2 (s + sigma_w2) overflows
    ])
    def test_overflowing_formula_gives_the_finite_threshold(self, s, sigma_w2):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ref = mp.mpf(sigma_w2) * (1 + mp.mpf(sigma_w2) / s) * mp.log1p(mp.mpf(s) / sigma_w2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = detection.csi_threshold([s, 0.5 * s], sigma_w2)
            one = optimal_threshold_csi(willie(sigma_w2=sigma_w2, p_d=s, h_w2=1.0))
        assert lam[0] == pytest.approx(float(ref), rel=1e-14)
        assert one == lam[0]
        assert math.isfinite(lam[1]) and lam[1] < lam[0]

    def test_writes_into_out(self):
        s = np.array([0.0, 1e-3, 0.05, 1e200])
        out = np.empty(4)
        assert detection.csi_threshold(s, SW2, out, np.empty(4)) is out
        assert np.array_equal(out, detection.csi_threshold(s, SW2))
        assert out[0] == SW2 and np.isfinite(out).all()

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateHypothesesError):
            optimal_threshold_csi(willie(p_d=0.0, h_w2=1.0))
        with pytest.raises(DegenerateHypothesesError):
            optimal_threshold_csi(willie(p_d=0.05, h_w2=0.0))

    @pytest.mark.parametrize("sigma_w2", [-1.0, 0.0, math.nan, math.inf])
    def test_noise_power_is_checked(self, sigma_w2):
        with pytest.raises(DomainError, match="sigma_w2"):
            detection.csi_threshold(1.0, sigma_w2)


class TestZetaStarCsi:
    def test_zero_power_limit(self):
        assert zeta_star_csi(willie(p_d=0.0, h_w2=1.0)) == 1.0
        assert zeta_star_csi(willie(p_d=0.05, h_w2=0.0)) == 1.0

    def test_perfect_detection_limit(self):
        assert zeta_star_csi(willie(p_d=1e9, h_w2=1.0)) < 1e-6

    def test_monte_carlo_oracle(self):
        w = willie(p_d=0.02, h_w2=1.0)
        lam = optimal_threshold_csi(w)
        h0 = symbol_level_radiometer(50, SW2, 1_000_000, seed=103)
        h1 = symbol_level_radiometer_signal(50, 0.02, 1.0, SW2, 1_000_000, seed=104)
        empirical = float(np.mean(h0 > lam)) + float(np.mean(h1 <= lam))
        assert zeta_star_csi(w) == pytest.approx(empirical, abs=0.003)

    def test_equals_error_sum_at_optimum(self):
        w = willie(p_d=0.02, h_w2=1.0)
        lam = optimal_threshold_csi(w)
        assert zeta_star_csi(w) == pytest.approx(p_fa(lam, w) + p_md(lam, w), abs=1e-12)


class TestZetaLinearCsi:
    def test_intercept(self):
        assert zeta_linear_csi(willie(p_d=0.0, h_w2=1.0)) == 1.0

    def test_single_sample_closed_form(self):
        w = willie(n_d=1, p_d=0.01, h_w2=2.0)
        expected = 1.0 - 2.0 * math.exp(-1.0) * 0.01 / SW2
        assert zeta_linear_csi(w) == pytest.approx(expected, rel=1e-12)

    def test_slope_matches_finite_difference(self):
        h = 1e-6
        fd = (
            zeta_star_csi(willie(p_d=2 * h, h_w2=1.0))
            - zeta_star_csi(willie(p_d=0.0, h_w2=1.0))
        ) / (2 * h)
        slope = (zeta_linear_csi(willie(p_d=1.0, h_w2=1.0)) - 1.0) / 1.0
        assert slope == pytest.approx(fd, rel=1e-3)


class TestLowPowerScale:
    @pytest.mark.parametrize("n_d", [1, 50, 367, 912, 999, 1000, 10**4, 10**8, 10**12, 10**15,
                                     10**300])
    def test_against_mpmath(self, n_d):
        import mpmath

        # enough digits that c(N) = N ln N - N - ln Gamma(N) keeps 30 of its own
        with mpmath.workdps(40 + len(str(n_d))):
            n = mpmath.mpf(n_d)
            c = n * mpmath.log(n) - n - mpmath.loggamma(n)
            want = float(mpmath.exp(-c))
        # e^-c carries c's absolute error as a relative one: 5e-16, or relative
        # to c where |c| > 1
        rel = 5e-16 * max(1.0, abs(float(c)))
        assert detection.low_power_scale(n_d) == pytest.approx(want, rel=rel, abs=0.0)


class TestCdiThreshold:
    def test_approx_returns_noise_floor(self):
        assert threshold_cdi_approx(0.05) == 0.05
        assert threshold_cdi_approx(1.0) == 1.0
        with pytest.raises(DomainError):
            threshold_cdi_approx(0.0)

    @pytest.mark.parametrize(
        "sigma_w2", [float("nan"), float("inf"), float("-inf"), 0.0, -0.05]
    )
    def test_approx_rejects_non_finite_and_non_positive(self, sigma_w2):
        with pytest.raises(DomainError):
            threshold_cdi_approx(sigma_w2)

    def test_exact_approaches_noise_floor_at_low_power(self):
        lam = threshold_cdi_exact(willie(p_d=1e-4))
        assert abs(lam - SW2) / SW2 <= 0.05

    def test_exact_at_zero_power_is_noise_floor(self):
        # hypotheses coincide; the low-power limit of the argmin is sigma_w2
        assert threshold_cdi_exact(willie(p_d=0.0)) == SW2
        assert threshold_cdi_exact(willie(p_d=0.0, sigma_w2=0.2)) == 0.2

    def test_exact_unimodality_spot_check(self):
        w = willie(p_d=0.05)
        lam = threshold_cdi_exact(w)
        here = expected_zeta_cdi(lam, w)
        assert here <= expected_zeta_cdi(0.5 * lam, w)
        assert here <= expected_zeta_cdi(2.0 * lam, w)

    def test_exact_against_grid_scan_oracle(self):
        w = willie(p_d=0.05)
        grid = np.linspace(0.5 / 10_000, 0.5, 10_000)
        values = expected_zeta_cdi_grid(grid, p_d=0.05, sigma_w2=SW2, n_d=50)
        lam_oracle = grid[int(np.argmin(values))]
        assert threshold_cdi_exact(w) == pytest.approx(lam_oracle, abs=1e-4)


    @pytest.mark.parametrize("n_d", [1, 10, 50, 400, 5000])
    def test_exact_matches_a_bounded_scalar_minimizer(self, n_d):
        for p_d in (1e-4, 1e-2, 1.0, 10.0, 1e4, 1e10):
            w = willie(n_d=n_d, p_d=p_d)
            lam, ref = threshold_cdi_exact(w), argmin_by_minimize_scalar(w)
            assert lam == pytest.approx(ref, rel=1e-6, abs=0), p_d
            assert expected_zeta_cdi(lam, w) == pytest.approx(expected_zeta_cdi(ref, w),
                                                              rel=1e-12, abs=0), p_d


def argmin_by_minimize_scalar(w):
    """The CDI argmin by scipy's bounded scalar minimizer on the averaged
    error itself, over the bracket of threshold_cdi_exact in u = ln(lam /
    sigma_w2), to 1e-8 in u."""
    ln_s = math.log(w.sigma_w2)
    ln_1pa = math.log(w.sigma_w2 + w.p_d) - ln_s
    hi = min(ln_1pa + math.log1p(ln_1pa), detection._LN_MAX - ln_s)
    lam = lambda u: math.exp(min(ln_s + u, detection._LN_MAX))
    res = minimize_scalar(lambda u: expected_zeta_cdi(lam(u), w), bounds=(0.0, hi),
                          method="bounded", options={"xatol": 1e-8})
    assert res.success
    return lam(res.x)


class TestExpectedZetaCdi:
    def test_no_power_is_one(self):
        for lam in (0.01, SW2, 0.2):
            assert expected_zeta_cdi(lam, willie(p_d=0.0)) == 1.0

    def test_single_sample_sampling_oracle(self):
        w = willie(n_d=1, p_d=0.02)
        lam = SW2
        g = sample_exponential_gains(1_000_000, seed=105)
        oracle = math.exp(-lam / SW2) + float(
            np.mean(-np.expm1(-lam / (g * 0.02 + SW2)))
        )
        assert expected_zeta_cdi(lam, w) == pytest.approx(oracle, abs=0.002)

    def test_sampling_oracle_fifty_samples(self):
        from scipy.special import gammainc as sp_gammainc

        w = willie(p_d=0.02)
        g = sample_exponential_gains(1_000_000, seed=106)
        oracle = p_fa(SW2, w) + float(
            np.mean(sp_gammainc(50, 50 * SW2 / (g * 0.02 + SW2)))
        )
        assert expected_zeta_cdi(SW2, w) == pytest.approx(oracle, abs=0.002)


class TestZetaStarCdi:
    def test_no_power_is_one(self):
        assert zeta_star_cdi(willie(p_d=0.0)) == 1.0

    def test_matches_composed_oracle(self):
        w = willie(n_d=100, p_d=0.01)
        grid = np.linspace(0.02, 0.15, 4000)
        values = expected_zeta_cdi_grid(grid, p_d=0.01, sigma_w2=SW2, n_d=100)
        assert zeta_star_cdi(w) == pytest.approx(float(np.min(values)), abs=1e-5)

    @pytest.mark.parametrize("n_d", [1, 50])
    @pytest.mark.parametrize("p_d", [1e4, 1e6, 1e10])
    def test_at_or_below_a_log_scan_at_high_snr(self, n_d, p_d):
        # The scan covers the argmin's bracket lam / sigma_w2 in
        # [1, (1 + a)(1 + ln(1 + a))], log-spaced.
        w = willie(n_d=n_d, p_d=p_d)
        a = p_d / SW2
        top = math.log1p(a) + math.log1p(math.log1p(a))
        scan = min(expected_zeta_cdi(SW2 * math.exp(u), w) for u in np.linspace(0.0, top, 2001))
        assert zeta_star_cdi(w) <= (1.0 + 1e-9) * scan

    def test_scale_invariant_in_sigma_w2(self):
        # The error depends on lam / sigma_w2 and p_d / sigma_w2 only, out to
        # noise levels where the bracket in lam itself would overflow.
        # At 1e308 the gamma argument n_d * (lam / sigma_w2) must not overflow.
        values = [zeta_star_cdi(willie(p_d=s, sigma_w2=s))
                  for s in (0.05, 1.0, 1e200, 1e-300, 1e308)]
        assert values == pytest.approx([values[0]] * 5, rel=1e-12, abs=0)

    def test_large_error_regime_matches_csi(self):
        for n_d, p_d in [(50, 0.001), (100, 0.0008)]:
            cdi = zeta_star_cdi(willie(n_d=n_d, p_d=p_d))
            csi = expected_zeta_star_csi(willie(n_d=n_d, p_d=p_d))
            assert csi >= 0.9
            assert abs(cdi - csi) <= 0.01


class TestExpectedZetaStarCsi:
    def test_no_power_is_one(self):
        assert expected_zeta_star_csi(willie(p_d=0.0)) == 1.0

    def test_small_power_linear_expansion(self):
        # averaged linear form: 1 - N^N e^-N / (sigma_w2 Gamma(N)) * P
        n = 50
        slope = math.exp(n * math.log(n) - n - math.lgamma(n)) / SW2
        for p_d in (1e-5, 1e-6):
            value = expected_zeta_star_csi(willie(p_d=p_d))
            assert value == pytest.approx(1.0 - slope * p_d, abs=5e-3 * slope * p_d + 1e-12)

    def test_sampling_oracle(self):
        w = willie(p_d=0.005)
        g = sample_exponential_gains(1_000_000, seed=107)
        oracle = float(np.mean(zeta_star_csi_ref(g * 0.005, SW2, 50)))
        assert expected_zeta_star_csi(w) == pytest.approx(oracle, abs=0.001)


    @pytest.mark.parametrize("n_d", [1, 50, 5000])
    def test_slope_in_ln_power_matches_a_central_difference(self, n_d):
        step = 1e-5
        for p_d in (1e-12, 1e-4, 0.02, 1.0, 1e3, 1e10):  # in and out of the table window
            w = willie(n_d=n_d, p_d=p_d)
            value, slope = detection.csi_average_and_slope(w.n_d, w.p_d / w.sigma_w2)
            assert value == expected_zeta_star_csi(w)
            up, down = (expected_zeta_star_csi(willie(n_d=n_d, p_d=p_d * math.exp(s)))
                        for s in (step, -step))
            assert slope == pytest.approx((up - down) / (2 * step), rel=1e-6, abs=1e-10), p_d

    def test_slope_below_the_snr_floor_is_zero(self):
        w = willie(p_d=1e-320)
        assert detection.csi_average_and_slope(w.n_d, w.p_d / w.sigma_w2) == (1.0, 0.0)


class TestExpectedPFaCsi:
    @pytest.mark.parametrize("n_d", [1, 75, 400])
    @pytest.mark.parametrize("p_d", [1e-310, 0.02, 1.0])
    def test_scalar_threshold_matches_array_route(self, p_d, n_d):
        # The tabulated false-alarm term takes its gamma argument from the
        # closed form of the threshold; its average must be the false alarm
        # at csi_threshold, the simulator's per-slot threshold (noise-floor
        # rule included), averaged over the gain by an independent quad.
        w = willie(n_d=n_d, p_d=p_d)
        array_route = gain_average_quad(
            lambda g: p_fa(float(detection.csi_threshold(g * p_d, SW2)), w), SW2 / p_d)
        assert detection.expected_p_fa_csi(w) == pytest.approx(array_route, rel=1e-12)


ORACLE_N_D = [1, 2, 50, 400, 5000]
ORACLE_P_D = np.geomspace(1e-4, 1e3, 15).tolist()


class TestAgainstSplitQuadOracle:
    # bench/oracle.py: adaptive quad over the gain, split at dyadic multiples
    # of the knee sigma_w2 / p_d.
    @pytest.mark.parametrize("n_d", ORACLE_N_D)
    def test_csi_averages(self, n_d):
        for p_d in ORACLE_P_D:
            w = willie(n_d=n_d, p_d=p_d)
            assert expected_zeta_star_csi(w) == pytest.approx(
                oracle.zeta_star_csi_avg(n_d, p_d, SW2), rel=1e-12, abs=0)
            assert detection.expected_p_fa_csi(w) == pytest.approx(
                oracle.p_fa_csi_avg(n_d, p_d, SW2), rel=1e-12, abs=0)

    @pytest.mark.parametrize("n_d", ORACLE_N_D)
    def test_fixed_threshold_average_near_the_argmin(self, n_d):
        for p_d in ORACLE_P_D[::2]:
            w = willie(n_d=n_d, p_d=p_d)
            lam = threshold_cdi_exact(w)
            for t in (lam, 0.9 * lam, 1.1 * lam):
                assert expected_zeta_cdi(t, w) == pytest.approx(
                    oracle.zeta_fixed_avg(n_d, p_d, SW2, t), rel=0, abs=1e-12)


class TestRuleGuard:
    def test_non_finite_table_entry_raises(self, monkeypatch):
        nan_md = lambda n, x: np.full_like(x, np.nan)
        monkeypatch.setattr(detection, "gammainc", nan_md)
        detection._csi_table.cache_clear()
        try:
            for p_d in (0.02, 1e-12, 1e10):  # the cached table and rules of their own
                with pytest.raises(NumericError):
                    expected_zeta_star_csi(willie(p_d=p_d))
            with pytest.raises(NumericError):
                expected_zeta_cdi(SW2, willie(p_d=0.02))
        finally:
            detection._csi_table.cache_clear()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_result_raises(self, value):
        with pytest.raises(NumericError):
            detection._average(np.ones(3), np.array([0.5, value, 0.5]), 1.0)

    def test_no_table_at_import_and_a_bounded_cache(self):
        code = ("import covertfade.cli; from covertfade import detection as d; "
                "print(d._table_rule.cache_info().currsize, d._csi_table.cache_info().currsize,"
                " d._csi_table.cache_info().maxsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.split() == ["0", "0", "128"]

    def test_one_grid_call_builds_each_points_cuts_once(self, monkeypatch):
        built = []
        cuts = detection._panel_cuts
        monkeypatch.setattr(detection, "_panel_cuts", lambda spans: built.append(spans) or cuts(spans))
        points = [willie(n_d=n_d, p_d=p_d) for n_d in (1, 37) for p_d in (0.0, 1e-3, 0.0123, 1.0)]
        lams, _ = detection.cdi_grid(points)  # the argmins and the averages at them
        assert len(built) == 1
        assert built[0] == [detection._span(w.p_d / SW2, w.n_d) for w in points if w.p_d > 0]
        built.clear()
        detection.cdi_grid(points, lams)
        assert len(built) == 1

    @pytest.mark.parametrize("n_d", [1, 50, 5000])
    def test_false_alarm_and_missed_detection_sum_to_zeta(self, n_d):
        for p_d in (1e-12, 1e-4, 0.02, 1.0, 1e3, 1e10):  # in and out of the table window
            w = willie(n_d=n_d, p_d=p_d)
            fa, md = detection._csi_averages(n_d, p_d / SW2)
            assert fa == detection.expected_p_fa_csi(w)
            assert abs(fa + md - expected_zeta_star_csi(w)) <= 1e-15


def _lam_with_an_edge_on_a_cut(cuts, n_d):
    """A threshold within 64 ulps of sigma_w2 (1 + c), for c a cut, one of
    whose step edges is exactly a cut; None if there is none."""
    for c in cuts[-2:1:-1]:
        for k in range(-64, 65):
            lam = SW2 * (1.0 + c) * (1.0 + k * 2.0 ** -52)
            step = (math.log(lam) - math.log(SW2)
                    + np.array([-8.0, -2.0, 0.0, 2.0, 8.0]) / math.sqrt(n_d))
            if np.isin(np.expm1(step), cuts).any():
                return lam
    return None


class TestCachedCuts:
    """Each point's row of the rule equals a rule built from scratch, bit for bit."""

    @pytest.mark.parametrize("p_d", [1e-6, 1e-4, 1e-2, 1.0, 100.0, 1e10])
    @pytest.mark.parametrize("n_d", [1, 10, 50, 200, 5000])
    def test_cdi_rule_matches_a_per_call_build(self, n_d, p_d):
        lo, hi = detection._span(p_d / SW2, n_d)
        cuts = panel_cuts_ref(lo, hi)
        # Step edges below 0, inside [0, lo], between the cuts and above hi.
        lams = [SW2 * 0.5, SW2 * (1.0 + lo / 2), *SW2 * (1.0 + np.geomspace(lo, hi, 7)),
                SW2 * (1.0 + 2.0 * hi)]
        on_cut = _lam_with_an_edge_on_a_cut(cuts, n_d)
        if p_d >= 1.0:
            assert on_cut is not None
        if on_cut is not None:
            lams.append(on_cut)
        # one grid of the point at every threshold, beside a point of its own
        points = [willie(n_d=n_d, p_d=p_d)] * len(lams) + [willie(n_d=n_d + 1, p_d=2 * p_d)]
        lams = [float(lam) for lam in lams] + [SW2]
        grid = detection._CdiGrid(points)
        x, k, panel, first = grid.rule(np.arange(len(points)), lams)
        assert np.array_equal(first, 16 * np.searchsorted(panel, np.arange(len(points))))
        for j, lam in enumerate(lams[:-1]):
            want = cdi_rule_ref(lam, SW2, n_d, p_d)
            assert np.array_equal(x[panel == j].ravel(), want[0]), lam
            assert np.array_equal(k[panel == j].ravel(), want[1]), lam
        # Edges exactly on cuts at every p_d, through the panels themselves.
        edges = np.concatenate((cuts[1:3], [(cuts[2] + cuts[3]) / 2]))
        merged = np.sort(np.concatenate((cuts, edges, [hi, hi])))  # a row padded with its top
        x, weights, counts = detection._panels(merged[None, :])
        for g, r in zip((x, weights), rule_ref(lo, hi, edges)):
            assert np.array_equal(g.ravel(), r)
        assert counts.tolist() == [len(x)]

    def test_panel_cuts_are_those_of_geomspace(self):
        spans = [(1e-9, 4e9), (0.1, 0.2), (1e-300, 1e300), (2e-3, 8.0), (1e-5, 1e-5 * 1.001)]
        rows = detection._panel_cuts(spans)
        for row, span in zip(rows, spans):
            want = panel_cuts_ref(*span)
            assert np.array_equal(row[:want.size], want)
            assert (row[want.size:] == span[1]).all()  # padded with the top
        assert rows.shape == (len(spans), panel_cuts_ref(*spans[2]).size)


MIXED_P_D = [0.0, 1e-320, 1e-4, 1.0, 1e10, 1e308]
MIXED_N_D = [1, 50, 5000]


class TestLockstepGrid:
    """The argmins run in lockstep over a grid, and each point's values are
    those of its one-point call, bit for bit."""

    @pytest.fixture(scope="class")
    def singles(self):
        points = [willie(n_d=n_d, p_d=p_d) for n_d in MIXED_N_D for p_d in MIXED_P_D]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return points, [threshold_cdi_exact(w) for w in points], [zeta_star_cdi(w) for w in points]

    def test_mixed_batch_raises_no_warning_and_matches_one_point_calls(self, singles):
        points, lams, zetas = singles
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = detection.cdi_grid(points)
        assert got == (lams, zetas)
        assert [expected_zeta_cdi(lam, w) for lam, w in zip(lams, points)] == zetas

    @pytest.mark.parametrize("order", ["reversed", "permuted", "every_third"])
    def test_permuted_and_sub_sampled_grids(self, singles, order):
        points, lams, zetas = singles
        pick = {"reversed": list(range(len(points)))[::-1],
                "permuted": np.random.default_rng(5).permutation(len(points)).tolist(),
                "every_third": list(range(1, len(points), 3))}[order]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_lams, got_zetas = detection.cdi_grid([points[i] for i in pick])
            fixed = detection.cdi_grid([points[i] for i in pick], [0.7 * lams[i] for i in pick])
        assert got_lams == [lams[i] for i in pick]
        assert got_zetas == [zetas[i] for i in pick]
        assert fixed[1] == [expected_zeta_cdi(0.7 * lams[i], points[i]) for i in pick]

    def test_limits_in_the_batch(self, singles):
        points, lams, zetas = singles
        for w, lam, zeta in zip(points, lams, zetas):
            if w.p_d < 1e-300:
                assert (lam, zeta) == (SW2, 1.0)
            elif w.p_d == 1e308:
                assert zeta == 0.0
            else:
                assert 0.0 < zeta < 1.0

    def test_threshold_checked_before_any_work(self):
        with pytest.raises(DomainError, match="threshold"):
            detection.cdi_grid([willie(p_d=0.0), willie(p_d=1.0)], [SW2, -1.0])

    def test_block_false_alarm_rates_are_p_fa_bits(self, singles, monkeypatch):
        # zero power and a sub-floor SNR take none; lam / sigma_w2 overflows in the last point
        points, lams, _ = singles
        points, lams = points + [willie(p_d=1.0, sigma_w2=1e-3)], lams + [1e306]
        expected = [p_fa(lam, w).hex() for lam, w in zip(lams, points)
                    if w.p_d / w.sigma_w2 >= 1e-300]
        taken = []
        monkeypatch.setattr(detection, "gammaincc",
                            lambda n, x: taken.append(sp_gammaincc(n, x)) or taken[-1])
        detection.cdi_grid(points, lams)
        assert len(taken) == 1
        assert [v.hex() for v in taken[0].tolist()] == expected
        assert expected[-1] == (0.0).hex()

    def test_non_finite_average_names_its_point(self, monkeypatch):
        nan_md = lambda n, x: np.where(n > 10, np.nan, 0.5)
        monkeypatch.setattr(detection, "gammainc", nan_md)
        with pytest.raises(NumericError, match="mean SNR 20.0"):
            detection.cdi_grid([willie(n_d=1, p_d=0.5), willie(n_d=50, p_d=1.0)], [SW2, SW2])


class TestGridBlocks:
    """Points below the SNR floor take their limits outside the lockstep
    blocks, and a threshold list must hold one threshold a point."""

    def test_mixed_grid_across_a_block_boundary_matches_one_point_calls(self):
        # 300 positive powers, a zero and a sub-floor power every fifth point:
        # the 256th point above the floor is not the 256th of the grid
        powers = np.geomspace(1e-4, 1e4, 150).tolist()
        points = []
        for j, (n_d, p_d) in enumerate((n_d, p_d) for n_d in (1, 50) for p_d in powers):
            if j % 5 == 0:
                points += [willie(n_d=n_d, p_d=0.0), willie(n_d=n_d, p_d=1e-320)]
            points.append(willie(n_d=n_d, p_d=p_d))
        assert sum(w.p_d >= 1e-4 for w in points) == 300 > detection._GRID_BLOCK
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lams, zetas = detection.cdi_grid(points)
            fixed = detection.cdi_grid(points, [0.7 * lam for lam in lams])
        assert [lam.hex() for lam in lams] == [threshold_cdi_exact(w).hex() for w in points]
        assert [z.hex() for z in zetas] == [zeta_star_cdi(w).hex() for w in points]
        assert [z.hex() for z in fixed[1]] == [
            expected_zeta_cdi(0.7 * lam, w).hex() for lam, w in zip(lams, points)]

    def test_floor_points_build_no_rule_and_take_no_gamma(self, monkeypatch):
        # at n_d 1e306 any incomplete gamma would raise
        taken = []
        monkeypatch.setattr(detection, "_panel_cuts", lambda spans: taken.append(spans))
        for name in ("gammainc", "gammaincc"):
            monkeypatch.setattr(detection, name, lambda n, x: taken.append((n, x)))
        points = [willie(n_d=10**306, p_d=p_d) for p_d in (0.0, 1e-320, 0.0)]
        assert detection.cdi_grid(points) == ([SW2] * 3, [1.0] * 3)
        assert detection.cdi_grid(points, [1.0, 2.0, 3.0]) == ([1.0, 2.0, 3.0], [1.0] * 3)
        assert (threshold_cdi_exact(points[1]), zeta_star_cdi(points[1])) == (SW2, 1.0)
        assert expected_zeta_cdi(1.0, points[0]) == 1.0
        assert taken == []

    @pytest.mark.parametrize("lams", [[SW2, SW2, SW2], [SW2]], ids=["longer", "shorter"])
    def test_threshold_list_of_another_length_raises_before_any_work(self, lams, monkeypatch):
        built = []
        monkeypatch.setattr(detection, "_panel_cuts", lambda spans: built.append(spans))
        with pytest.raises(DomainError, match=f"lams has {len(lams)} entries for 2 points"):
            detection.cdi_grid([willie(p_d=0.01), willie(p_d=1.0)], lams)
        assert built == []


class TestByPartsAverage:
    """The missed-detection average by parts, the bump's log peak c(n_d), and
    the argmins' start."""

    @pytest.mark.parametrize("n_d", [1, 10, 50, 400, 5000, 10**6, 10**12])
    def test_missed_detection_against_mpmath(self, n_d):
        cases = [(p_d, threshold_cdi_exact(willie(n_d=n_d, p_d=p_d)))
                 for p_d in (1e-4, 1e-2, 1.0, 1e3)] + [(1e-2, SW2)]
        for p_d, lam in cases:
            w = willie(n_d=n_d, p_d=p_d)
            zeta = expected_zeta_cdi(lam, w)
            # the term as read back from the total, to the last bit of the total
            want = md_by_parts_ref(n_d, p_d / SW2, lam / SW2)
            assert zeta - p_fa(lam, w) == pytest.approx(want, rel=1e-13, abs=math.ulp(zeta)), lam

    @pytest.mark.parametrize("n_d", [10**30, 10**300], ids=["1e30", "1e300"])
    def test_bump_narrower_than_the_rule_still_counts(self, n_d):
        # The step at x = 0.5 is 1/sqrt(n_d) wide, below what the rule's
        # nodes resolve there; the average is Pr(x < 0.5) at a = 2.
        w = willie(n_d=n_d, p_d=0.1)
        assert p_fa(1.5 * SW2, w) == 0.0
        assert expected_zeta_cdi(1.5 * SW2, w) == pytest.approx(-math.expm1(-0.25), rel=1e-14)

    def test_log_peak_against_mpmath(self):
        import mpmath

        counts = list(range(1, 64)) + [10**k for k in range(2, 301)] + [12345, 2**53 + 1]
        for n_d in counts:
            n_d = float(n_d)  # as the grid holds it
            with mpmath.workdps(40 + int(math.log10(n_d))):
                n = mpmath.mpf(n_d)
                want = n * mpmath.log(n) - n - mpmath.loggamma(n)
                err = abs(detection._ln_peak(n_d) - want)
            # 4e-16 absolute, or relative where |c| > 1: doubles are 5.7e-14
            # apart at c(1e300) = 344.5
            assert err <= 4e-16 * max(1.0, abs(want)), n_d

    def test_argmins_from_the_start_match_a_start_at_zero(self, monkeypatch):
        points = [willie(n_d=n_d, p_d=p_d) for n_d in (1, 2, 10, 50, 200, 1000, 5000)
                  for p_d in np.geomspace(1e-6, 1e10, 17).tolist()]
        lams, zetas = detection.cdi_grid(points)
        monkeypatch.setattr(detection, "_argmin_start", lambda *args: 0.0)
        ref_lams, ref_zetas = detection.cdi_grid(points)
        for w, lam, ref, zeta, ref_zeta in zip(points, lams, ref_lams, zetas, ref_zetas):
            # The slope at the root is about a, its rounding about 1e-16: below
            # a = 1e-2 each root is only set to about 1e-16 / a.
            a = w.p_d / SW2
            assert abs(lam - ref) <= max(1e-13, 1e-15 / a) * ref, (w.n_d, w.p_d)
            assert zeta == pytest.approx(ref_zeta, rel=1e-13, abs=0), (w.n_d, w.p_d)

    def test_sweep_grid_takes_at_most_five_rounds(self, monkeypatch):
        rounds = []
        slopes = detection._CdiGrid.slopes
        monkeypatch.setattr(detection._CdiGrid, "slopes",
                            lambda grid, index, u: rounds.append(len(u)) or slopes(grid, index, u))
        for n_d in range(10, 202):
            rounds.clear()
            detection.cdi_grid([willie(n_d=n_d, p_d=p_d) for p_d in (1e-4, 1e-3, 1e-2, 0.1, 1.0)])
            assert len(rounds) <= 5, n_d


class TestAcrossDomain:
    """Gates over inputs the CLI accepts, where the error leaves 1 below
    any fixed gain panel (large n_d, p_d) or the CDI average has a sharp step."""

    @pytest.mark.parametrize("n_d, p_d, policy", [(50, 10.0, "csi_optimal"),
                                                  (400, 1.0, "cdi_exact")])
    def test_monte_carlo_agrees_within_three_sigma(self, n_d, p_d, policy, capsys):
        from covertfade.cli import main

        code = main(["simulate", "--trials", "200000", "--seed", "7", "--n-d", str(n_d),
                     "--p-d", str(p_d), "--policy", policy])
        rows = [line.split(",") for line in capsys.readouterr().out.split()[1:]]
        assert code == 0
        assert [(r[0], r[4]) for r in rows] == [
            ("p_fa", "true"), ("p_md", "true"), ("zeta", "true"), ("p_cc", "true")]

    def test_cdi_error_not_below_csi_error(self):
        # A CSI adversary is optimal in every slot, so the CDI error cannot be lower.
        powers = sorted(set(np.geomspace(1e-4, 1e2, 13).tolist() + [1.0, 10.0]))
        for n_d in (1, 2, 10, 50, 114, 400, 5000):
            for p_d in powers:
                w = willie(n_d=n_d, p_d=p_d)
                assert zeta_star_cdi(w) >= expected_zeta_star_csi(w), (n_d, p_d)

    def test_average_error_decreases_in_power_and_samples(self):
        counts = [1, 2, 5, 10, 50, 100, 400, 1000, 5000]
        powers = np.geomspace(1e-6, 1e6, 25).tolist()
        table = np.array([[expected_zeta_star_csi(willie(n_d=n, p_d=p)) for p in powers]
                          for n in counts])
        assert (np.diff(table, axis=0) < 0).all()
        assert (np.diff(table, axis=1) < 0).all()

    def test_large_snr_limit_for_two_or_more_samples(self):
        # E a -> C_n = integral of zeta*_n(x) over the SNR x, finite for n >= 2.
        c_50 = snr_integral_quad(lambda x: float(zeta_star_csi_ref(x * SW2, SW2, 50)))
        assert c_50 == pytest.approx(0.273586, abs=5e-7)
        gaps = []
        for a in (1e4, 1e6, 1e8):
            gap = abs(expected_zeta_star_csi(willie(p_d=a * SW2)) * a / c_50 - 1.0)
            assert gap <= 1.0 / a
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_single_sample_keeps_growing(self):
        # zeta*_1(x) ~ 2 ln x / x, so E a grows without a finite limit.
        growth = []
        for a in (1e2, 1e4, 1e6, 1e8):
            ref = snr_integral_quad(lambda x: float(zeta_star_csi_ref(x * SW2, SW2, 1)), a)
            value = expected_zeta_star_csi(willie(n_d=1, p_d=a * SW2)) * a
            assert value == pytest.approx(ref, rel=1e-10)
            growth.append(value)
        assert growth == pytest.approx([12.269, 45.646, 100.59, 176.77], rel=1e-4)

    @pytest.mark.parametrize("p_d", [5e-324, 1e-310, 1e300, 1e308])
    def test_extreme_powers_give_the_limits(self, p_d):
        w = willie(p_d=p_d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zeta, fa, cdi = (expected_zeta_star_csi(w), detection.expected_p_fa_csi(w),
                             zeta_star_cdi(w))
        if p_d < 1:
            assert (zeta, fa, cdi) == (1.0, p_fa(SW2, w), 1.0)
        else:
            assert 0.0 <= fa <= zeta <= cdi <= 1e-150


class TestInvariants:
    def test_threshold_optimality_over_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            w = willie(
                n_d=int(rng.integers(1, 101)),
                p_d=float(rng.uniform(0.001, 0.2)),
                h_w2=float(rng.uniform(0.05, 4.0)),
                sigma_w2=float(rng.uniform(0.01, 0.1)),
            )
            floor = zeta_star_csi(w)
            lam_star = optimal_threshold_csi(w)
            for lam in np.linspace(0.05 * lam_star, 5.0 * lam_star, 100):
                assert p_fa(lam, w) + p_md(lam, w) >= floor - 1e-10

    def test_zeta_star_csi_monotone_in_power_and_samples(self):
        powers = [0.001, 0.005, 0.02, 0.1, 0.5]
        values = [zeta_star_csi(willie(p_d=p, h_w2=1.0)) for p in powers]
        assert all(b <= a for a, b in zip(values, values[1:]))
        counts = [1, 5, 20, 50, 100]
        values = [zeta_star_csi(willie(n_d=n, p_d=0.05, h_w2=1.0)) for n in counts]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_linear_approximation_order(self):
        ratios = []
        for p in (1e-3, 1e-4, 1e-5):
            w = willie(p_d=p, h_w2=1.0)
            ratios.append((zeta_star_csi(w) - zeta_linear_csi(w)) / p)
        assert ratios[0] > ratios[1] > ratios[2] > 0.0

    def test_proposition_one_numeric(self):
        for n_d, p_d in [(50, 0.0005), (100, 0.0005), (75, 0.001)]:
            cdi = zeta_star_cdi(willie(n_d=n_d, p_d=p_d))
            if cdi >= 0.9:
                csi = expected_zeta_star_csi(willie(n_d=n_d, p_d=p_d))
                assert abs(cdi - csi) <= 0.01

    def test_expected_zeta_star_csi_strictly_decreasing(self):
        powers = [0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0]
        values = [expected_zeta_star_csi(willie(p_d=p)) for p in powers]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_outputs_in_unit_interval(self):
        for p_d in (0.0, 0.001, 0.05, 1.0):
            assert 0.0 <= zeta_star_cdi(willie(p_d=p_d)) <= 1.0
            assert 0.0 <= expected_zeta_star_csi(willie(p_d=p_d)) <= 1.0
            if p_d > 0:
                assert 0.0 <= zeta_star_csi(willie(p_d=p_d, h_w2=1.0)) <= 1.0
