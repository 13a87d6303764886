import math
import threading
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as stats_mod

from conftest import in_blocks, pilot_estimates, symbol_level_radiometer_signal
from covertfade import detection, link, simulation
from covertfade.cli import main
from covertfade.errors import DomainError
from covertfade.params import SystemParams
from covertfade.simulation import (
    McConfig,
    estimate_detection,
    estimate_pcc,
    policy_threshold,
    trace_rows,
    _cn,
    _estimate,
    _outage,
    _radiometer,
    _rng,
    _thresholds,
)


def params(**kw):
    return SystemParams(**kw)


def allocating_outage(p, rng, n):
    """Outage flags of n slots drawn as ``estimate_pcc`` draws them, on the
    allocating route: complex estimate and error, magnitudes by np.abs."""
    h_b = np.sqrt(rng.standard_exponential(n))
    amp = math.sqrt(p.p_t)
    h_hat = rng.standard_normal(2 * n)
    h_hat *= math.sqrt(p.sigma_b2 / p.n_t / 2.0)
    h_hat = h_hat.view(np.complex128)
    h_hat += amp * h_b
    h_hat *= p.n_t * amp / (p.sigma_b2 + p.n_t * p.p_t)
    snr = link.snr_bob(np.abs(h_hat) ** 2, np.abs(h_b - h_hat) ** 2, p)
    return np.log2(1.0 + snr) <= p.rate


def allocating_wrong(p, hypothesis, lam, rng, n):
    """Wrong decisions in n slots of ``hypothesis`` drawn as
    ``estimate_detection`` draws them, on the allocating route: |h_w|^2 where
    a decision reads it, the radiometer's law, then the CSI threshold formula
    and its mask."""
    transmit = hypothesis == "H1" and p.p_d > 0
    h_w2 = rng.standard_exponential(n) if lam is None or transmit else None
    v = h_w2 * p.p_d + p.sigma_w2 if transmit else p.sigma_w2
    statistic = v * rng.standard_gamma(p.n_d, n) / p.n_d
    if lam is None:
        s = h_w2 * p.p_d
        with np.errstate(all="ignore"):
            raw = p.sigma_w2 * (s + p.sigma_w2) / s * np.log1p(s / p.sigma_w2)
        keep = (s > 0) & (np.isfinite(raw) | (s >= np.finfo(float).eps * p.sigma_w2))
        lam = np.where(keep, raw, p.sigma_w2)
    return statistic > lam if hypothesis == "H0" else statistic <= lam


class TestSimulateSlot:
    # Willie's stage as the detection estimator draws it where a decision
    # reads |h_w|^2 (under the per-slot threshold, or on H1 slots at p_d > 0):
    # |h_w|^2 ~ Exp(1), then one Gamma(n_d, 1) variate per slot for the
    # radiometer.  Elsewhere the estimator draws the Gamma variate alone.
    def test_noise_only_statistic_mean(self):
        p = params(p_d=0.02, n_d=50)
        rng = _rng(11, 0)
        h_w2 = rng.standard_exponential(100_000)
        statistic = _radiometer(p, False, h_w2, rng.standard_gamma(p.n_d, h_w2.size))
        assert np.mean(statistic) == pytest.approx(p.sigma_w2, rel=0.01)

    def test_silent_transmission_matches_noise_law(self):
        p = params(p_d=0.0, n_d=50)
        stats = {}
        for transmit, seed in ((True, 12), (False, 13)):
            rng = _rng(seed, 0)
            h_w2 = rng.standard_exponential(100_000)
            stats[transmit] = _radiometer(p, transmit, h_w2, rng.standard_gamma(p.n_d, h_w2.size))
        assert np.mean(stats[True]) == pytest.approx(np.mean(stats[False]), rel=0.01)
        assert np.var(stats[True]) == pytest.approx(np.var(stats[False]), rel=0.05)

    def test_fixed_seed_reproduces_trace(self):
        p = params(p_d=0.02, n_d=50)
        mc = McConfig(trials=2, seed=99)
        assert trace_rows(p, mc, 2) == trace_rows(p, mc, 2)

    def test_statistic_is_nonnegative_and_csi_threshold_above_the_floor(self):
        p = params(p_d=0.02)
        rng = _rng(5, 0)
        h_w2 = rng.standard_exponential(1)
        assert _radiometer(p, True, h_w2, rng.standard_gamma(p.n_d, 1))[0] >= 0.0
        lam = _thresholds(p, None, h_w2)
        assert np.isfinite(lam[0]) and lam[0] >= p.sigma_w2


class TestStages:
    @pytest.mark.parametrize("seed, n_t", [(33, 1), (2**40, 4)])
    def test_each_estimator_is_its_own_stage_on_its_own_stream(self, seed, n_t):
        # Each stage rebuilt from its own stream on the allocating route, one
        # block of _BLOCK trials after another, at trial counts on both sides
        # of the block edges: the in-place estimators give the same counts.
        # p_d 5e-324 takes every CSI threshold down the masked path; at p_d 0
        # csi_optimal resolves to the noise floor, so no stage draws |h_w|^2.
        block = simulation._BLOCK
        for scenario, policy in [
            (dict(p_d=0.05), "csi_optimal"), (dict(p_d=0.05), "fixed"),
            (dict(p_d=0.05), "cdi_exact"), (dict(p_d=0.0), "csi_optimal"),
            (dict(p_d=5e-324), "csi_optimal"), (dict(p_d=0.05, p_t=0.5), "csi_optimal"),
        ]:
            p = params(n_d=50, n_t=n_t, **scenario)
            lam = policy_threshold(p, policy, 0.055)
            if p.p_d == 0:  # the noise floor, which csi_threshold gives every slot
                assert lam == p.sigma_w2
            for trials in (1, block - 1, block, block + 1, 2 * block + 3):
                mc = McConfig(trials=trials, seed=seed, threshold=lam)
                bob, h0, h1 = _rng(seed, 2), _rng(seed, 0), _rng(seed, 1)
                est = estimate_pcc(p, mc)
                assert est.p_cc == float(np.mean(
                    ~in_blocks(trials, block, lambda n: allocating_outage(p, bob, n))))
                det = estimate_detection(p, mc)
                n_h1 = trials // 2
                assert det.p_fa == float(np.mean(in_blocks(
                    trials - n_h1, block, lambda n: allocating_wrong(p, "H0", lam, h0, n))))
                if n_h1:
                    assert det.p_md == float(np.mean(in_blocks(
                        n_h1, block, lambda n: allocating_wrong(p, "H1", lam, h1, n))))
                else:
                    assert math.isnan(det.p_md)

    def test_outage_counts_match_the_allocating_route_over_seeds(self):
        # Bob's magnitudes are re^2 + im^2 here and hypot^2 on the allocating
        # route; they round apart, but no count moves.
        for seed in range(20):
            p = params(p_d=0.02, n_t=4, p_t=0.5) if seed % 2 else params(p_d=0.02)
            trials = 100_000
            rng = _rng(seed, 2)
            outages = int(np.count_nonzero(in_blocks(
                trials, simulation._BLOCK, lambda n: allocating_outage(p, rng, n))))
            assert estimate_pcc(p, McConfig(trials=trials, seed=seed)).p_cc == (
                (trials - outages) / trials), seed

    @pytest.mark.parametrize("estimate", [estimate_detection, estimate_pcc],
                             ids=["estimate_detection", "estimate_pcc"])
    def test_each_estimator_draws_only_what_it_reads(self, monkeypatch, estimate):
        # Detection reads one Gamma variate per slot, and |h_w|^2 where a
        # decision reads it: under the per-slot CSI threshold, and on H1 slots
        # (trials // 2) at a fixed threshold; at p_d 0 nothing reads it.  P_cc
        # reads |h_b|, the root of one exponential |h_b|^2, and the pilot-mean
        # noise, a complex variate of two real normals; at p_d 0 every slot is
        # an outage and it draws nothing.
        # Every method called is counted, so an unexpected draw shows up.
        drawn = Counter()

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def draw(*args, **kwargs):
                    out = method(*args, **kwargs)
                    drawn[name] += np.size(out)
                    return out
                return draw

        rng = simulation._rng
        monkeypatch.setattr(simulation, "_rng", lambda *key: Counting(rng(*key)))
        trials = 1_001
        for policy in simulation.POLICIES:
            for p_d in (0.02, 0.0):
                p = params(p_d=p_d, n_d=50)
                mc = McConfig(trials=trials, seed=5, threshold=policy_threshold(p, policy, 0.055))
                drawn.clear()
                estimate(p, mc)
                if estimate is estimate_pcc:
                    expected = {"standard_exponential": trials,
                                "standard_normal": 2 * trials} if p_d else {}
                else:
                    expected = {"standard_gamma": trials}
                    if p_d:
                        gains = trials if policy == "csi_optimal" else trials // 2
                        expected["standard_exponential"] = gains
                assert drawn == expected, (policy, p_d)

    @pytest.mark.parametrize("transmit", [True, False])
    @pytest.mark.parametrize("n_d", [1, 50, 400])
    def test_radiometer_matches_symbol_level_oracle(self, n_d, transmit):
        # The simulator draws the statistic from its Gamma law at |h_w|^2; the
        # oracle builds it symbol by symbol from h_w.  Chunks hold at most 5e6
        # samples.
        p = params(p_d=0.05, n_d=n_d)
        h_w = 0.8 - 0.6j
        n = 100_000
        stats = _radiometer(p, transmit, np.full(n, abs(h_w) ** 2),
                            _rng(61, 0).standard_gamma(n_d, n))
        ref = symbol_level_radiometer_signal(
            n_d, p.p_d if transmit else 0.0, h_w, p.sigma_w2, n, seed=62,
            chunk=min(100_000, 5_000_000 // n_d),
        )
        se_mean = math.sqrt((np.var(stats) + np.var(ref)) / n)
        assert abs(np.mean(stats) - np.mean(ref)) <= 4.0 * se_mean
        assert np.var(stats) == pytest.approx(np.var(ref), rel=0.03)
        assert stats_mod.ks_2samp(stats, ref).pvalue > 1e-3

    def test_pilot_mean_matches_symbol_level_oracle(self):
        # The simulator draws the mean of the n_t pilots; the oracle draws
        # each pilot observation.  Compares E|x|^2 and E|x|^4 of both parts.
        p = params(n_t=4, p_t=0.005)
        n = 200_000
        rng = _rng(71, 2)
        h_b = _cn(rng, n, 1.0)
        h_hat = _estimate(p, h_b, rng)
        sim = {"estimate": h_hat, "error": h_b - h_hat}
        rng = np.random.default_rng(72)
        h_b = rng.normal(0.0, math.sqrt(0.5), n) + 1j * rng.normal(0.0, math.sqrt(0.5), n)
        h_hat = pilot_estimates(h_b, p.n_t, p.p_t, p.sigma_b2, rng)
        for key, ref in (("estimate", h_hat), ("error", h_b - h_hat)):
            for power in (2, 4):
                a, b = np.abs(sim[key]) ** power, np.abs(ref) ** power
                se = math.sqrt((np.var(a) + np.var(b)) / n)
                assert abs(np.mean(a) - np.mean(b)) <= 4.0 * se, (key, power)
        assert np.mean(np.abs(sim["error"]) ** 2) == pytest.approx(
            link.estimation_error_var(p), rel=0.02)

    def test_channel_memory_does_not_grow_with_n_t(self):
        p = params(p_d=0.02, n_t=10**9)
        tracemalloc.start()
        try:
            estimate_pcc(p, McConfig(trials=2_000, seed=7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_detection_memory_does_not_grow_with_n_d(self):
        p = params(p_d=0.02, n_d=10**6)
        mc = McConfig(trials=2_000, seed=7, threshold=p.sigma_w2)
        tracemalloc.start()
        try:
            estimate_detection(p, mc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("estimate", [estimate_detection, estimate_pcc])
    def test_memory_does_not_grow_with_trials(self, estimate):
        # Both stages run in blocks of _BLOCK trials: the peak at 10^6 trials
        # is the peak at 10^5.
        p = params(p_d=0.02, n_d=75)
        peaks = []
        for trials in (10**5, 10**6):
            tracemalloc.start()
            try:
                estimate(p, McConfig(trials=trials, seed=7))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]
        assert peaks[1] < 4 * 2**20

    def test_cdi_exact_threshold_resolved_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        exact = detection.threshold_cdi_exact
        monkeypatch.setattr(
            detection, "threshold_cdi_exact", lambda w: calls.append(w) or exact(w)
        )
        code = main(
            ["simulate", "--trials", "200", "--seed", "3", "--p-d", "0.02",
             "--policy", "cdi_exact", "--out", str(tmp_path / "out.csv"),
             "--dump-traces", str(tmp_path / "t.csv"), "--trace-slots", "5"]
        )
        assert code == 0
        assert len(calls) == 1

    def test_golden_simulate_bytes(self, tmp_path):
        # Pinned output bytes: a change to the stream keys, the draw order or
        # the arithmetic that moves any printed digit shows up here.
        out = tmp_path / "out.csv"
        code = main(["simulate", "--trials", "20000", "--seed", "314",
                     "--p-d", "0.02", "--out", str(out)])
        assert code == 0
        golden = Path(__file__).with_name("data") / "simulate_seed314.csv"
        assert out.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("policy", ["cdi_exact", "cdi_approx", "fixed"])
    def test_golden_simulate_bytes_per_policy(self, tmp_path, policy):
        out = tmp_path / "out.csv"
        code = main(["simulate", "--trials", "20000", "--seed", "314", "--p-d", "0.02",
                     "--policy", policy, "--fixed-threshold", "0.055", "--out", str(out)])
        assert code == 0
        golden = Path(__file__).with_name("data") / f"simulate_seed314_{policy}.csv"
        assert out.read_bytes() == golden.read_bytes()


class TestDrawLaws:
    def test_exponential_gain_is_the_law_of_a_cn_squared_magnitude(self):
        # estimate_detection draws |h_w|^2 ~ Exp(1); trace_rows draws h_w by _cn.
        n = 200_000
        exp = _rng(81, 0).standard_exponential(n)
        cn2 = np.abs(_cn(_rng(82, 0), n, 1.0)) ** 2
        assert stats_mod.ks_2samp(exp, cn2).pvalue > 1e-3
        for sample in (exp, cn2):
            # Exp(1): the sample mean has se 1/sqrt(n), the sample variance
            # sqrt((mu_4 - 1) / n) with fourth central moment mu_4 = 9.
            assert abs(np.mean(sample) - 1.0) <= 5.0 / math.sqrt(n)
            assert abs(np.var(sample) - 1.0) <= 5.0 * math.sqrt(8.0 / n)

    @pytest.mark.parametrize("p_t", [1e-3, 1.0])
    @pytest.mark.parametrize("n_t", [1, 4])
    def test_gain_magnitude_gives_the_law_of_the_complex_gain(self, n_t, p_t):
        # estimate_pcc draws |h_b| = sqrt(Exp(1)) in place of h_b ~ CN(0, 1):
        # turning a slot by the phase of h_b leaves |h_hat| and |h_tilde| as
        # they are, and the turned pilot noise keeps its law.
        p = params(p_d=0.02, n_t=n_t, p_t=p_t)
        n = 200_000
        rng_mag, rng_cn = _rng(84, 2), _rng(85, 2)
        gains = np.sqrt(rng_mag.standard_exponential(n)), _cn(rng_cn, n, 1.0)
        hats = _estimate(p, gains[0], rng_mag), _estimate(p, gains[1], rng_cn)
        errors = [h_b - h_hat for h_b, h_hat in zip(gains, hats)]
        for key, (mag, cn) in (("estimate", hats), ("error", errors)):
            assert stats_mod.ks_2samp(np.abs(mag) ** 2, np.abs(cn) ** 2).pvalue > 1e-3, key
        rates = [float(np.mean(_outage(p, h_b, h_hat))) for h_b, h_hat in zip(gains, hats)]
        se = math.sqrt(sum(r * (1.0 - r) for r in rates) / n)
        assert abs(rates[0] - rates[1]) <= 5.0 * se

    @pytest.mark.parametrize("var", [1.0, 0.37, 1e-6])
    def test_cn_block_parts_are_uncorrelated_normals_of_half_the_variance(self, var):
        n = 200_000
        z = _cn(_rng(83, 2), n, var)
        assert z.dtype == np.complex128 and z.shape == (n,)
        for part in (z.real, z.imag):
            assert stats_mod.kstest(part, "norm", args=(0.0, math.sqrt(var / 2.0))).pvalue > 1e-3
        assert abs(np.corrcoef(z.real, z.imag)[0, 1]) <= 5.0 / math.sqrt(n)


class TestRng:
    def test_seed_near_2_64_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _rng(2**64 - 1, 9).random()

    def test_streams_do_not_alias_neighbouring_seeds(self):
        # A one-word key seed + stream would make these two generators equal.
        assert not np.array_equal(_rng(314, 1).random(8), _rng(315, 0).random(8))


class TestMcConfig:
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.5,
                                      pytest.param(10**5000, id="beyond-str")])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(DomainError):
            McConfig(trials=10, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, seed):
        assert McConfig(trials=10, seed=seed).seed == seed

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(DomainError, match="threshold"):
            McConfig(trials=10, seed=1, threshold=threshold)

    def test_none_threshold_accepted(self):
        assert McConfig(trials=10, seed=1).threshold is None
        assert McConfig(trials=10, seed=1, threshold=None).threshold is None


class TestPolicyThreshold:
    def test_unknown_policy_rejected(self):
        with pytest.raises(DomainError, match="bogus"):
            policy_threshold(params(), "bogus")

    def test_policies(self):
        p = params(p_d=0.02)
        assert policy_threshold(p, "csi_optimal") is None
        assert policy_threshold(params(p_d=0.0), "csi_optimal") == p.sigma_w2
        assert policy_threshold(p, "cdi_approx") == p.sigma_w2
        assert policy_threshold(p, "fixed", 0.055) == 0.055
        w = detection.WillieParams(sigma_w2=p.sigma_w2, n_d=p.n_d, p_d=p.p_d)
        assert policy_threshold(p, "cdi_exact") == detection.threshold_cdi_exact(w)

    @pytest.mark.parametrize("policy", simulation.POLICIES)
    @pytest.mark.parametrize("p_d", [0.0, 0.02, 1e6])
    def test_willie_side_read_from_either_object(self, policy, p_d):
        # p_d 0 is below the SNR floor; 1e6 is far above the knee
        p = params(p_d=p_d)
        w = detection.WillieParams(sigma_w2=p.sigma_w2, n_d=p.n_d, p_d=p.p_d)
        got = []
        for scenario in (p, w):
            lam = policy_threshold(scenario, policy, 0.055)
            mc = McConfig(trials=10, seed=1, threshold=lam)
            got.append((lam, simulation.analytic_zeta(scenario, lam),
                        simulation.analytic_detection(scenario, mc)))
        assert got[0] == got[1]

    @pytest.mark.parametrize("fixed", [None, math.nan, 0.0])
    def test_fixed_needs_a_positive_threshold(self, fixed):
        with pytest.raises(DomainError, match="fixed_threshold"):
            policy_threshold(params(), "fixed", fixed)


class TestCountFields:
    @pytest.mark.parametrize("build, field", [
        (lambda: SystemParams(n_d=2.5), "n_d"),
        (lambda: SystemParams(n_t=1.9), "n_t"),
        (lambda: detection.WillieParams(sigma_w2=0.05, n_d=50.7), "n_d"),
        (lambda: McConfig(trials=10.9, seed=1), "trials"),
        # integers beyond the largest double
        (lambda: SystemParams(n_d=10**400), "n_d"),
        (lambda: detection.WillieParams(sigma_w2=0.05, n_d=10**400), "n_d"),
        (lambda: McConfig(trials=10**400, seed=1), "trials"),
        # integers beyond Python's 4,300-digit string limit
        (lambda: SystemParams(n_d=10**5000), "n_d"),
        (lambda: detection.WillieParams(sigma_w2=0.05, n_d=10**5000), "n_d"),
        (lambda: McConfig(trials=10**5000, seed=1), "trials"),
    ], ids=["system-n_d", "system-n_t", "willie-n_d", "mc-trials",
            "system-n_d-beyond-double", "willie-n_d-beyond-double", "mc-trials-beyond-double",
            "system-n_d-beyond-str", "willie-n_d-beyond-str", "mc-trials-beyond-str"])
    def test_non_integral_count_rejected(self, build, field):
        with pytest.raises(DomainError, match=field):
            build()

    def test_integral_float_stored_as_int(self):
        assert SystemParams(n_d=50.0).n_d == 50 and type(SystemParams(n_d=50.0).n_d) is int
        assert McConfig(trials=np.float64(10.0), seed=1).trials == 10


class TestEstimateDetection:
    def test_silent_alice_gives_total_error_one(self):
        p = params(p_d=0.0, n_d=50)
        est = estimate_detection(p, McConfig(trials=100_000, seed=21,
                                             threshold=policy_threshold(p, "cdi_approx")))
        assert abs(est.zeta - 1.0) <= 3.0 * est.se_zeta

    def test_csi_policy_matches_averaged_closed_form(self):
        p = params(p_d=0.02, n_d=50)
        est = estimate_detection(p, McConfig(trials=400_000, seed=22))
        w = detection.WillieParams(sigma_w2=p.sigma_w2, n_d=50, p_d=0.02)
        assert abs(est.zeta - detection.expected_zeta_star_csi(w)) <= 3.0 * est.se_zeta

    def test_fixed_noise_floor_matches_cdi_form(self):
        p = params(p_d=0.005, n_d=50)
        est = estimate_detection(
            p,
            McConfig(trials=400_000, seed=23, threshold=p.sigma_w2),
        )
        w = detection.WillieParams(sigma_w2=p.sigma_w2, n_d=50, p_d=0.005)
        analytic = detection.expected_zeta_cdi(p.sigma_w2, w)
        assert abs(est.zeta - analytic) <= 3.0 * est.se_zeta

    def test_single_trial_reports_nan_stderr(self):
        p = params(p_d=0.02)
        est = estimate_detection(p, McConfig(trials=1, seed=24,
                                             threshold=policy_threshold(p, "cdi_approx")))
        assert math.isnan(est.p_md) and math.isnan(est.se_zeta)

    def test_determinism(self):
        p = params(p_d=0.01, n_d=60)
        mc = McConfig(trials=50_000, seed=77)
        assert estimate_detection(p, mc) == estimate_detection(p, mc)


class TestEstimatePcc:
    def test_vanishing_rate(self):
        p = params(p_d=0.05, rate=1e-9)
        est = estimate_pcc(p, McConfig(trials=50_000, seed=31))
        assert est.p_cc == pytest.approx(1.0, abs=1e-4)

    def test_no_power(self):
        p = params(p_d=0.0)
        est = estimate_pcc(p, McConfig(trials=10_000, seed=32))
        assert est.p_cc == 0.0

    def test_matches_closed_form(self):
        p = params(p_d=0.05, n_d=50)
        est = estimate_pcc(p, McConfig(trials=1_000_000, seed=33))
        analytic = link.covert_connection_prob(p)
        assert abs(est.p_cc - analytic) <= 3.0 * est.se


class TestPilotBudgetFirst:
    @pytest.mark.parametrize("estimate", [estimate_detection, estimate_pcc])
    def test_unusable_budget_raises_before_any_draw(self, monkeypatch, estimate):
        # n_t * p_t overflows, so beta_b = 0; no batch may be drawn first.
        def no_draw(*args):
            raise AssertionError("a generator was made before the pilot budget was checked")

        monkeypatch.setattr(simulation, "_rng", no_draw)
        with pytest.raises(DomainError, match="beta_b"):
            estimate(params(n_t=1e308, p_t=1e10), McConfig(trials=100_000, seed=1))


class TestEstimatorAlone:
    @pytest.mark.parametrize("threshold", [None, 0.055], ids=["csi", "fixed"])
    def test_overflowing_power_names_willie(self, threshold):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as exc:
                estimate_detection(params(p_d=1e308), McConfig(trials=1000, seed=1,
                                                               threshold=threshold))
        assert str(exc.value) == ("p_d=1e+308 with sigma_w2=0.05 overflows Willie's received "
                                  "power: overflow encountered in multiply")

    def test_overflowing_power_names_bob(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as exc:
                estimate_pcc(params(p_d=1e308), McConfig(trials=1000, seed=1))
        assert str(exc.value) == ("p_d=1e+308 overflows Bob's received power: "
                                  "overflow encountered in multiply")

    @pytest.mark.parametrize("estimate", [estimate_pcc])
    def test_set_stop_event_ends_the_run_before_its_next_block(self, estimate):
        stop = threading.Event()
        stop.set()
        with pytest.raises(KeyboardInterrupt):
            estimate(params(), McConfig(trials=10**12, seed=1), stop=stop)


class TestEstimationStatistics:
    def test_orthogonality_variances(self):
        p = params(p_d=0.02)
        rng = _rng(41, 0)
        h_b = _cn(rng, 200_000, 1.0)
        h_hat = _estimate(p, h_b, rng)
        beta = p.sigma_b2 / (p.sigma_b2 + p.n_t * p.p_t)
        assert np.mean(np.abs(h_hat) ** 2) == pytest.approx(1.0 - beta, rel=0.01)
        assert np.mean(np.abs(h_b - h_hat) ** 2) == pytest.approx(beta, rel=0.01)

    def test_estimate_uncorrelated_with_error(self):
        p = params(p_d=0.02)
        n = 200_000
        rng = _rng(42, 0)
        h_b = _cn(rng, n, 1.0)
        h_hat = _estimate(p, h_b, rng)
        h_tilde = h_b - h_hat
        num = np.mean(h_hat * np.conj(h_tilde))
        den = math.sqrt(np.mean(np.abs(h_hat) ** 2) * np.mean(np.abs(h_tilde) ** 2))
        assert abs(num) / den <= 3.0 / math.sqrt(n)

    def test_false_alarm_grid_matches_closed_form(self):
        p = params(p_d=0.02, n_d=50)
        n = 200_000
        rng = _rng(43, 0)
        h_w2 = rng.standard_exponential(n)
        statistic = _radiometer(p, False, h_w2, rng.standard_gamma(p.n_d, n))
        w = detection.WillieParams(sigma_w2=p.sigma_w2, n_d=50)
        for lam in np.linspace(0.5 * p.sigma_w2, 2.0 * p.sigma_w2, 10):
            analytic = detection.p_fa(float(lam), w)
            empirical = float(np.mean(statistic > lam))
            se = math.sqrt(max(analytic * (1 - analytic), 1e-12) / n)
            assert abs(empirical - analytic) <= 3.5 * se


def _dump_traces(tmp_path, name, *argv):
    path = tmp_path / name
    code = main(["simulate", "--trials", "100", "--out", str(tmp_path / "out.csv"),
                 "--dump-traces", str(path), *argv])
    assert code == 0
    return path


class TestTraceDump:
    def test_csv_round_trip(self, tmp_path):
        path = _dump_traces(tmp_path, "traces.csv", "--seed", "55", "--p-d", "0.02",
                            "--trace-slots", "10")
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == (b"slot,hypothesis,h_b_re,h_b_im,h_w_re,h_w_im,"
                            b"statistic,decision,outage")
        assert len(lines) == 12  # header + 10 rows + trailing newline
        assert b"\r" not in path.read_bytes()

    @pytest.mark.parametrize("policy, slots, extra", [
        pytest.param("csi_optimal", 7, {}, id="csi_optimal"),
        pytest.param("fixed", 7, {}, id="fixed"),
        # a rate at which the H1 rows hold both connected and outage slots
        pytest.param("csi_optimal", 16, {"rate": 2.0}, id="mixed_outage"),
    ])
    def test_rows_are_an_h0_then_h1_batch_on_the_trace_stream(self, tmp_path, policy, slots,
                                                              extra):
        argv = ["--seed", "71", "--p-d", "0.02", "--policy", policy,
                "--fixed-threshold", "0.055", "--trace-slots", str(slots)]
        for name, value in extra.items():
            argv += [f"--{name}", repr(value)]
        path = _dump_traces(tmp_path, "a.csv", *argv)
        assert _dump_traces(tmp_path, "b.csv", *argv).read_bytes() == path.read_bytes()
        rows = path.read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["H0", "H1"] * (slots // 2) + ["H0"] * (slots % 2)

        p = params(p_d=0.02, **extra)
        lam = policy_threshold(p, policy, 0.055)
        rng = _rng(71, 9)
        batches = {}
        for h, n in (("H0", slots - slots // 2), ("H1", slots // 2)):
            h_b = _cn(rng, n, 1.0)
            # H0 rows print no outage, so their batch draws no pilot-mean noise
            h_hat = _estimate(p, h_b, rng) if h == "H1" else None
            h_w = _cn(rng, n, 1.0)
            h_w2 = np.abs(h_w) ** 2
            statistic = _radiometer(p, h == "H1", h_w2, rng.standard_gamma(p.n_d, n))
            batches[h] = h_b, h_hat, h_w, h_w2, statistic
        outages = []
        for i, row in enumerate(rows):
            slot, hyp, *values, decision, outage = row.split(",")
            h_b, h_hat, h_w, h_w2, statistic = batches[hyp]
            j = i // 2
            assert int(slot) == i
            assert values == [f"{v:.12g}" for v in (
                h_b[j].real, h_b[j].imag, h_w[j].real, h_w[j].imag, statistic[j])]
            threshold = np.broadcast_to(_thresholds(p, lam, h_w2), (h_w2.size,))[j]
            assert decision == ("H1" if statistic[j] > threshold else "H0")
            if hyp == "H0":
                assert outage == ""
            else:
                # Bob's post-estimation SNR from the gain and its estimate alone
                h_b, h_hat = h_b[j], h_hat[j]
                snr = p.p_d * np.abs(h_hat) ** 2 / (p.p_d * np.abs(h_b - h_hat) ** 2 + p.sigma_b2)
                assert outage == str(int(np.log2(1.0 + snr) <= p.rate))
                outages.append(outage)
        if extra:
            assert set(outages) == {"0", "1"}

    def test_h0_only_dump_forms_no_estimate(self, monkeypatch):
        calls = []
        estimate = simulation._estimate
        monkeypatch.setattr(simulation, "_estimate",
                            lambda *args, **kwargs: (calls.append(1), estimate(*args, **kwargs))[1])
        p, mc = params(p_d=0.02), McConfig(trials=100, seed=71)
        assert len(trace_rows(p, mc, 1)) == 1 and calls == []
        assert len(trace_rows(p, mc, 2)) == 2 and calls == [1]

    @pytest.mark.parametrize("n_slots", [-3, 2.5, 7.0, "7", None])
    def test_slot_count_is_an_integer_at_least_zero(self, n_slots):
        with pytest.raises(DomainError, match="n_slots"):
            trace_rows(params(), McConfig(trials=100, seed=71), n_slots)

    @pytest.mark.parametrize("name, argv", [
        ("mixed_outage", ["--policy", "csi_optimal", "--rate", "2.0", "--trace-slots", "16"]),
        ("fixed", ["--policy", "fixed", "--trace-slots", "7"]),
    ])
    def test_golden_trace_bytes(self, tmp_path, name, argv):
        # Pinned trace bytes: a change to the trace stream's draws, their
        # order or the stage kernels that moves any printed digit shows up here.
        path = _dump_traces(tmp_path, "t.csv", "--seed", "71", "--p-d", "0.02",
                            "--fixed-threshold", "0.055", *argv)
        golden = Path(__file__).with_name("data") / f"traces_seed71_{name}.csv"
        assert path.read_bytes() == golden.read_bytes()

    def test_subnormal_power_runs_without_warnings(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = _dump_traces(tmp_path, "t.csv", "--seed", "1", "--p-d", "1e-310",
                                "--trace-slots", "7")
        assert capsys.readouterr().err == ""
        for row in path.read_text().splitlines()[1:]:
            statistic, decision = row.split(",")[6:8]
            assert decision == ("H1" if float(statistic) > 0.05 else "H0")
