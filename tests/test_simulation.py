import math

import numpy as np
import pytest

from covertfade import detection, link
from covertfade.errors import DomainError
from covertfade.params import SystemParams
from covertfade.simulation import (
    McConfig,
    estimate_detection,
    estimate_pcc,
    simulate_slot,
    simulate_slots,
    write_trace_csv,
    _rng,
)


def params(**kw):
    return SystemParams(**kw)


class TestSimulateSlot:
    def test_noise_only_statistic_mean(self):
        p = params(p_d=0.02, n_d=50)
        batch = simulate_slots(p, "H0", 100_000, _rng(11, 0))
        assert np.mean(batch["statistic"]) == pytest.approx(p.sigma_w2, rel=0.01)

    def test_silent_transmission_matches_noise_law(self):
        p = params(p_d=0.0, n_d=50)
        h1 = simulate_slots(p, "H1", 100_000, _rng(12, 0))
        h0 = simulate_slots(p, "H0", 100_000, _rng(13, 0))
        assert np.mean(h1["statistic"]) == pytest.approx(
            np.mean(h0["statistic"]), rel=0.01
        )
        assert np.var(h1["statistic"]) == pytest.approx(
            np.var(h0["statistic"]), rel=0.05
        )

    def test_fixed_seed_reproduces_trace(self):
        p = params(p_d=0.02, n_d=50)
        a = simulate_slot(p, "H1", _rng(99, 0))
        b = simulate_slot(p, "H1", _rng(99, 0))
        assert a == b

    def test_decomposition_is_exact(self):
        p = params(p_d=0.02)
        t = simulate_slot(p, "H1", _rng(5, 0))
        assert t.h_b == t.h_b_hat + t.h_b_tilde
        assert t.statistic >= 0.0
        assert t.decision == ("H1" if t.statistic > t.threshold else "H0")

    def test_bad_hypothesis(self):
        with pytest.raises(DomainError):
            simulate_slot(params(), "H2", _rng(1, 0))


class TestMcConfig:
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.5])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(DomainError):
            McConfig(trials=10, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, seed):
        assert McConfig(trials=10, seed=seed).seed == seed


class TestEstimateDetection:
    def test_silent_alice_gives_total_error_one(self):
        p = params(p_d=0.0, n_d=50)
        est = estimate_detection(p, McConfig(trials=100_000, seed=21,
                                             threshold_policy="cdi_approx"))
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
            McConfig(trials=400_000, seed=23, threshold_policy="fixed",
                     fixed_threshold=p.sigma_w2),
        )
        w = detection.WillieParams(sigma_w2=p.sigma_w2, n_d=50, p_d=0.005)
        analytic = detection.expected_zeta_cdi(p.sigma_w2, w)
        assert abs(est.zeta - analytic) <= 3.0 * est.se_zeta

    def test_single_trial_reports_nan_stderr(self):
        p = params(p_d=0.02)
        est = estimate_detection(p, McConfig(trials=1, seed=24,
                                             threshold_policy="cdi_approx"))
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
        lp = link.LinkParams(
            sigma_b2=p.sigma_b2, rate=p.rate, n_t=p.n_t, p_t=p.p_t,
            p_d=0.05, n_d=50,
        )
        analytic = link.covert_connection_prob(lp, link.estimation_model(lp))
        assert abs(est.p_cc - analytic) <= 3.0 * est.se


class TestEstimationStatistics:
    def test_orthogonality_variances(self):
        p = params(p_d=0.02)
        batch = simulate_slots(p, "H1", 200_000, _rng(41, 0))
        beta = p.sigma_b2 / (p.sigma_b2 + p.n_t * p.p_t)
        assert np.mean(np.abs(batch["h_b_hat"]) ** 2) == pytest.approx(
            1.0 - beta, rel=0.01
        )
        assert np.mean(np.abs(batch["h_b_tilde"]) ** 2) == pytest.approx(
            beta, rel=0.01
        )

    def test_estimate_uncorrelated_with_error(self):
        p = params(p_d=0.02)
        n = 200_000
        batch = simulate_slots(p, "H1", n, _rng(42, 0))
        num = np.mean(batch["h_b_hat"] * np.conj(batch["h_b_tilde"]))
        den = math.sqrt(
            np.mean(np.abs(batch["h_b_hat"]) ** 2)
            * np.mean(np.abs(batch["h_b_tilde"]) ** 2)
        )
        assert abs(num) / den <= 3.0 / math.sqrt(n)

    def test_false_alarm_grid_matches_closed_form(self):
        p = params(p_d=0.02, n_d=50)
        n = 200_000
        batch = simulate_slots(p, "H0", n, _rng(43, 0))
        w = detection.WillieParams(sigma_w2=p.sigma_w2, n_d=50)
        for lam in np.linspace(0.5 * p.sigma_w2, 2.0 * p.sigma_w2, 10):
            analytic = detection.p_fa(float(lam), w)
            empirical = float(np.mean(batch["statistic"] > lam))
            se = math.sqrt(max(analytic * (1 - analytic), 1e-12) / n)
            assert abs(empirical - analytic) <= 3.5 * se


class TestTraceDump:
    def test_csv_round_trip(self, tmp_path):
        p = params(p_d=0.02)
        rng = _rng(55, 0)
        traces = [
            simulate_slot(p, "H0" if i % 2 == 0 else "H1", rng) for i in range(10)
        ]
        path = tmp_path / "traces.csv"
        write_trace_csv(path, traces)
        lines = path.read_bytes().split(b"\n")
        assert lines[0].startswith(b"slot,hypothesis,h_b_re")
        assert len(lines) == 12  # header + 10 rows + trailing newline
        assert b"\r" not in path.read_bytes()
