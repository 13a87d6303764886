import _thread
import argparse
import math
import numbers
import os
import random
import subprocess
import sys
import threading
import time
import unicodedata
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from covertfade import cli, detection, optimizer, simulation
from covertfade.cli import _fmt, build_parser, main
from covertfade.errors import DomainError, NumericError
from covertfade.optimizer import power_for_covertness_suboptimal
from covertfade.params import _RANGES, SystemParams, check_value, count

DATA = Path(__file__).with_name("data")
BEYOND_DOUBLE = "1" * 401  # an integer literal past the largest double


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_all(capsys, *argv):
    """Exit code, stdout and stderr, counting argparse's SystemExit as an exit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_err(capsys, *argv):
    code, _, err = run_all(capsys, *argv)
    return code, err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestDetectSweep:
    def test_zero_power_rows(self, capsys):
        code, out = run(
            capsys, "detect-sweep", "--p-d-grid", "0", "--n-d-list", "50",
            "--mode", "both",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2
        assert all(float(r["zeta"]) == 1.0 for r in rows)

    def test_zeta_nonincreasing_along_power(self, capsys):
        code, out = run(
            capsys, "detect-sweep", "--p-d-grid", "0,0.001,0.003,0.01",
            "--n-d-list", "50", "--mode", "csi",
        )
        assert code == 0
        _, rows = parse_csv(out)
        zetas = [float(r["zeta"]) for r in rows]
        assert all(b <= a for a, b in zip(zetas, zetas[1:]))

    def test_large_error_modes_agree(self, capsys):
        code, out = run(
            capsys, "detect-sweep", "--p-d-grid", "0.001", "--n-d-list", "50",
            "--mode", "both",
        )
        _, rows = parse_csv(out)
        by_mode = {r["mode"]: float(r["zeta"]) for r in rows}
        assert by_mode["csi"] >= 0.9
        assert abs(by_mode["csi"] - by_mode["cdi_exact"]) <= 0.01

    def test_invalid_grid_exits_2(self, capsys):
        assert run(capsys, "detect-sweep", "--p-d-grid", "-0.5")[0] == 2

    def test_golden_bytes(self, capsys):
        # Pinned output: any change that moves a printed digit shows up here.
        code, out = run(
            capsys, "detect-sweep", "--p-d-grid", "0,1e-3,1", "--n-d-list", "1,50",
            "--mode", "both",
        )
        assert code == 0
        assert out == (DATA / "detect_sweep_both.csv").read_text()

    def test_golden_bytes_sharp_transitions(self, capsys):
        # Large n_d and p_d up to 1, where the fading averages turn sharply.
        code, out = run(
            capsys, "detect-sweep", "--p-d-grid", "0,1e-4,1e-3,0.01,0.05,0.2,1",
            "--n-d-list", "1,114,400", "--mode", "both",
        )
        assert code == 0
        assert out == (DATA / "detect_sweep_sharp.csv").read_text()

    def test_golden_bytes_cdi_approx(self, capsys):
        # The noise-floor threshold, resolved per point like the other modes.
        code, out = run(
            capsys, "detect-sweep", "--p-d-grid", "0,1e-3,1", "--n-d-list", "1,50",
            "--mode", "cdi_approx",
        )
        assert code == 0
        assert out == (DATA / "detect_sweep_cdi_approx.csv").read_text()

    def test_overflowing_mean_snr_prints_the_limit(self, capsys):
        # p_d / sigma_w2 overflows at 1e308: every average is its limit, 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(
                capsys, "detect-sweep", "--p-d-grid", "10,100,1e308",
                "--n-d-list", "1,50,5000", "--mode", "both",
            )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 18
        assert all(float(r["zeta"]) == 0.0 for r in rows if r["p_d"] == "1e+308")
        assert all(0.0 < float(r["zeta"]) < 0.1 for r in rows if r["p_d"] != "1e+308")

    def test_large_noise_variance_runs_the_argmin(self, capsys):
        # Same mean SNR as sigma_w2 = p_d = 0.05, hence the same error.
        zetas = []
        for level in ("1e200", "0.05"):
            code, out = run(
                capsys, "detect-sweep", "--sigma-w2", level, "--p-d-grid", level,
                "--n-d-list", "1", "--mode", "cdi_exact",
            )
            assert code == 0
            zetas.append(float(parse_csv(out)[1][0]["zeta"]))
        assert zetas[0] == pytest.approx(zetas[1], rel=1e-11)

    def test_integral_n_d_list_accepts_float_spelling(self, capsys):
        _, out = run(capsys, "detect-sweep", "--p-d-grid", "0.01", "--n-d-list", "1e2,50.0",
                     "--mode", "cdi_approx")
        _, rows = parse_csv(out)
        assert [r["n_d"] for r in rows] == ["100", "50"]

    def test_n_d_list_literal_beyond_two_to_the_53_is_exact(self, capsys):
        code, out = run(capsys, "detect-sweep", "--p-d-grid", "0.01",
                        "--n-d-list", "9007199254740993", "--mode", "cdi_approx")
        assert code == 0
        assert [r["n_d"] for r in parse_csv(out)[1]] == ["9007199254740993"]

    def test_each_point_validated_once(self, capsys, monkeypatch):
        # one WillieParams per (n_d, p_d) point serves both modes' threshold and average
        built = []
        for cls in (detection.WillieParams, SystemParams):
            init = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, init=init: (built.append(type(self)), init(self)))
        code, _ = run(capsys, "detect-sweep", "--p-d-grid", "0,1e-3,1", "--n-d-list", "1,50",
                      "--mode", "both")
        assert code == 0
        assert built == [SystemParams] + [detection.WillieParams] * 6


    def test_huge_count_exits_2_in_short_form(self, capsys):
        # The last two counts round to the double 1e305; the message spells
        # each in all its digits, so that it reads as above the limit.
        # At p_d = 0 the analytic false-alarm rate of every policy is an
        # incomplete gamma too.
        sweep = ["detect-sweep", "--p-d-grid", "0.01", "--mode", "csi", "--n-d-list"]
        zero_power = [["simulate", "--trials", "100", "--seed", "1", "--p-d", "0", "--policy",
                       policy, *(["--fixed-threshold", "0.1"] if policy == "fixed" else []),
                       "--n-d"] for policy in simulation.POLICIES]
        for argv, named in [
                (["detect-sweep", "--p-d-grid", "1e-3", "--n-d-list", "1e308"], "1e+308"),
                (["simulate", "--trials", "1000", "--seed", "1", "--n-d", "1e308"], "1e+308"),
                (sweep + ["1.0000000000000001e305"], "1.0000000000000001e+305"),
                (sweep + [str(10**305 + 1)], "1." + "0" * 304 + "1e+305"),
        ] + [(argv + [n_d], named) for argv in zero_power for n_d, named in (
                ("1e306", "1e+306"), ("1.0000000000000001e305", "1.0000000000000001e+305"))]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_all(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == (f"error: n_d={named} is above 1e+305, beyond which the incomplete"
                           " gamma functions fail\n")

    def test_zero_power_takes_no_incomplete_gamma_above_the_limit(self, capsys):
        # every average at p_d = 0 is its limit 1, so the count's limit is not checked
        code, out = run(capsys, "detect-sweep", "--p-d-grid", "0", "--n-d-list", "1e306",
                        "--mode", "both")
        assert code == 0
        _, rows = parse_csv(out)
        assert [(row["n_d"], row["mode"], row["zeta"]) for row in rows] == [
            (str(10**306), "csi", "1"), (str(10**306), "cdi_exact", "1")]


class TestOptimize:
    def test_every_row_uses_minimum_symbols(self, capsys):
        code, out = run(
            capsys, "optimize", "--epsilon-grid", "0.02,0.05,0.1",
            "--method", "both",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 6
        assert all(r["n_d_star"] == "50" for r in rows)
        assert all(r["diagnostics"] == "ok" for r in rows)

    def test_suboptimal_close_to_exact_at_small_epsilon(self, capsys):
        _, out = run(
            capsys, "optimize", "--epsilon-grid", "0.01", "--method", "both"
        )
        _, rows = parse_csv(out)
        exact = next(float(r["p_d_star"]) for r in rows if r["method"] == "exact")
        sub = next(float(r["p_d_star"]) for r in rows if r["method"] == "suboptimal")
        assert abs(exact - sub) / exact < 0.01

    def test_force_nd(self, capsys):
        _, out = run(
            capsys, "optimize", "--epsilon-grid", "0.05", "--method", "exact",
            "--force-nd", "100",
        )
        _, rows = parse_csv(out)
        assert rows[0]["n_d_star"] == "100"

    def test_force_nd_under_suboptimal(self, capsys):
        code, err = run_err(capsys, "optimize", "--epsilon-grid", "0.05",
                            "--method", "suboptimal", "--force-nd", "10")
        assert code == 2
        assert "force_nd" in err
        _, out = run(capsys, "optimize", "--epsilon-grid", "0.05", "--method", "both",
                     "--force-nd", "70")
        _, rows = parse_csv(out)
        assert [r["n_d_star"] for r in rows] == ["70", "70"]
        sub = next(float(r["p_d_star"]) for r in rows if r["method"] == "suboptimal")
        assert sub == pytest.approx(power_for_covertness_suboptimal(
            70, SystemParams(epsilon=0.05)).value, rel=1e-11)

    def test_bad_epsilon_exits_2(self, capsys):
        assert run(capsys, "optimize", "--epsilon-grid", "1.5")[0] == 2

    def test_numeric_failure_exits_3_naming_the_count(self, capsys, monkeypatch):
        # an averaged error of 0 puts the closed-form power past the root
        monkeypatch.setattr(optimizer, "csi_average_and_slope", lambda n_d, a: (0.0, 0.0))
        code, err = run_err(capsys, "optimize", "--epsilon-grid", "0.05", "--method", "exact")
        assert code == 3
        assert err.startswith("numeric failure: n_d=50: ") and "closed-form power" in err

    @pytest.mark.parametrize("flag", ["--epsilon-grid", "--sigma-w2"])
    def test_underflowing_closed_form_power_exits_3(self, flag, capsys):
        argv = ["optimize", "--epsilon-grid", "0.05", flag, "5e-324", "--method", "exact"]
        code, err = run_err(capsys, *argv)
        assert code == 3
        assert err == ("numeric failure: n_d=50: the closed-form power underflows to 0"
                       " (n_d=50)\n")

    @pytest.mark.parametrize("command", [
        ["optimize", "--epsilon-grid", "0.05"],
        ["simulate", "--trials", "1000", "--seed", "1"],
    ], ids=["optimize", "simulate"])
    def test_overflowing_rate_gives_no_connection(self, command, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, *command, "--rate", "1e20")
        assert code == 0
        _, rows = parse_csv(out)
        if command[0] == "optimize":
            assert [r["throughput"] for r in rows] == ["0", "0"]
        else:
            assert rows[-1]["metric"] == "p_cc" and rows[-1]["analytic"] == "0"

    def test_overflowing_rate_and_count_give_no_throughput(self, capsys):
        # n_d * R overflows where P_cc is 0: the throughput is 0, not nan, and
        # the search stops at the first count
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, "optimize", "--epsilon-grid", "0.05", "--rate", "1e300",
                            "--n-d-min", "1e9", "--n-d-max", "2e9")
        assert code == 0
        _, rows = parse_csv(out)
        assert [(r["n_d_star"], r["throughput"]) for r in rows] == [("1000000000", "0")] * 2

    def test_underflowing_received_power_gives_no_connection(self, capsys):
        # (1 - beta_b) p_d underflows to 0 at beta_b 2/3: P_cc is its limit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, "simulate", "--trials", "1000", "--seed", "1",
                            "--p-d", "5e-324", "--sigma-b2", "1", "--p-t", "0.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[-1]["metric"] == "p_cc" and rows[-1]["analytic"] == "0"
        # where sigma_b2 (2^R - 1) underflows too, the exponent is 0/0
        code = main(["simulate", "--trials", "1000", "--seed", "1", "--p-d", "5e-324",
                     "--sigma-b2", "5e-324", "--p-t", "5e-324", "--rate", "0.5"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure: ") and err.count("\n") == 1

    def test_huge_count_design_runs(self, capsys):
        # the closed-form power at n_d 1e14 no longer overshoots the root
        code, out = run(capsys, "optimize", "--epsilon-grid", "0.05", "--n-d-min", "1e14",
                        "--n-d-max", "1e14")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[1]["p_d_star"]) < float(rows[0]["p_d_star"]) < 1.01 * float(rows[1]["p_d_star"])

    def test_golden_bytes(self, capsys):
        # Pinned output: any change that moves a printed digit shows up here.
        code, out = run(
            capsys, "optimize", "--epsilon-grid", "0.01,0.2", "--method", "both"
        )
        assert code == 0
        assert out == (DATA / "optimize_both.csv").read_text()

    @pytest.mark.parametrize(
        "extra, golden",
        [
            (["--method", "exact", "--force-nd", "100"], "optimize_force_nd100.csv"),
            (["--method", "both", "--p-max", "1e-4"], "optimize_p_max.csv"),
        ],
        ids=["force-nd", "p-max"],
    )
    def test_golden_bytes_pinned_designs(self, capsys, extra, golden):
        code, out = run(
            capsys, "optimize", "--epsilon-grid", "0.01,0.05,0.2", *extra
        )
        assert code == 0
        assert out == (DATA / golden).read_text()

    def test_golden_bytes_capped_with_pilot(self, capsys):
        # p_t = 1 keeps the estimate good, so the designs capped at ε 0.2
        # carry positive throughput (both at n_d 100, where the shared power
        # delivers the most).
        code, out = run(
            capsys, "optimize", "--epsilon-grid", "0.01,0.2", "--method", "both",
            "--p-max", "2e-3", "--p-t", "1",
        )
        assert code == 0
        assert out == (DATA / "optimize_p_max_pilot.csv").read_text()

    def test_golden_bytes_wide_symbol_range(self, capsys):
        # Captured by evaluating every count; at epsilon 0.2 the exact optimum
        # is the interior n_d 28 and the closed-form one n_d 24, so the bounded
        # search must not stop short.
        code, out = run(
            capsys, "optimize", "--epsilon-grid", "0.05,0.2", "--n-d-min", "1",
            "--n-d-max", "400", "--method", "both",
        )
        assert code == 0
        assert out == (DATA / "optimize_wide_nd.csv").read_text()

    def test_golden_bytes_huge_symbol_range(self, capsys):
        # The search jumps past dominated counts, at most doubling the count,
        # so a range up to 1e308 visits counts up to about 6.0e6 only and
        # prints the designs of the 1..400 range.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(
                capsys, "optimize", "--epsilon-grid", "0.05,0.2", "--n-d-min", "1",
                "--n-d-max", "1e308", "--method", "both",
            )
        assert code == 0
        assert out == (DATA / "optimize_wide_nd.csv").read_text()


class TestSimulate:
    def test_small_run_passes_three_sigma(self, capsys):
        code, out = run(
            capsys, "simulate", "--trials", "40000", "--seed", "3",
            "--p-d", "0.02", "--policy", "cdi_approx",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert {r["metric"] for r in rows} == {"p_fa", "p_md", "zeta", "p_cc"}
        assert all(r["pass_3sigma"] == "true" for r in rows)

    def test_repeat_seed_identical_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code = main(
                ["simulate", "--trials", "20000", "--seed", "42",
                 "--p-d", "0.01", "--out", str(path)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_trial_marks_stderr_unavailable(self, capsys):
        code, out = run(
            capsys, "simulate", "--trials", "1", "--seed", "5",
            "--p-d", "0.02", "--policy", "cdi_approx",
        )
        assert code == 0
        _, rows = parse_csv(out)
        md = next(r for r in rows if r["metric"] == "p_md")
        assert md["pass_3sigma"] == "n/a" and md["stderr"] == "n/a"

    @pytest.mark.parametrize(
        "policy", ["csi_optimal", "cdi_exact", "cdi_approx", "fixed"]
    )
    def test_pass_flag_spelling(self, policy, capsys):
        code, out = run(
            capsys, "simulate", "--trials", "2000", "--seed", "4", "--p-d", "0.02",
            "--policy", policy, "--fixed-threshold", "0.05",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert {r["pass_3sigma"] for r in rows} <= {"true", "false", "n/a"}

    def test_cdi_exact_at_zero_power_matches_cdi_approx(self, tmp_path, capsys):
        # Every policy uses the noise floor sigma_w2 (0.05 by default) as
        # threshold at p_d = 0, so they consume the same streams and print the
        # same bytes.
        outputs = []
        for policy in ("cdi_exact", "cdi_approx", "csi_optimal", "fixed"):
            traces = tmp_path / f"{policy}.csv"
            code, out = run(
                capsys, "simulate", "--trials", "2000", "--seed", "8", "--p-d", "0",
                "--policy", policy, "--fixed-threshold", "0.05", "--dump-traces", str(traces),
                "--trace-slots", "6",
            )
            assert code == 0
            outputs.append((out, traces.read_bytes()))
        assert outputs[1:] == outputs[:1] * 3

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_2(self, seed, capsys):
        code, err = run_err(capsys, "simulate", "--trials", "10", "--seed", seed)
        assert code == 2
        assert "seed" in err

    def test_trace_dump(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code = main(
            ["simulate", "--trials", "1000", "--seed", "6", "--p-d", "0.02",
             "--dump-traces", str(path), "--trace-slots", "20"]
        )
        assert code == 0
        assert path.read_text().count("\n") == 21

    def test_negative_trace_slots_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code, err = run_err(
            capsys, "simulate", "--trials", "10", "--dump-traces", str(path),
            "--trace-slots", "-3",
        )
        assert code == 2
        assert "--trace-slots" in err
        assert not path.exists()

    def test_zero_trace_slots_writes_header_only(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code = main(["simulate", "--trials", "10", "--dump-traces", str(path),
                     "--trace-slots", "0", "--out", str(tmp_path / "out.csv")])
        assert code == 0
        assert path.read_text().count("\n") == 1

    def test_overflowing_fixed_threshold_prints_the_limit(self, capsys):
        # n_d * lam / sigma_w2 overflows at 1e306: p_fa 0, p_md 1 as at 1e300
        outs = [run(capsys, "simulate", "--trials", "1000", "--seed", "1", "--policy",
                    "fixed", "--fixed-threshold", lam) for lam in ("1e300", "1e306")]
        assert outs[0][0] == 0
        assert outs[1] == outs[0]

    @pytest.mark.parametrize("policy", ["csi_optimal", "cdi_exact"])
    def test_overflowing_power_exits_2_naming_p_d(self, policy, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            code, err = run_err(capsys, "simulate", "--trials", "1000", "--seed", "1",
                                "--p-d", "1e308", "--policy", policy)
        assert code == 2
        # Bob's received power overflows too; the detection stage's error is the one printed
        assert err == ("error: p_d=1e+308 with sigma_w2=0.05 overflows Willie's received "
                       "power: overflow encountered in multiply\n")

    @pytest.mark.parametrize("exc, code, prefix", [
        (DomainError, 2, "error"), (NumericError, 3, "numeric failure"),
    ], ids=["domain", "numeric"])
    def test_pcc_stage_error_exits_with_its_code(self, exc, code, prefix, capsys, monkeypatch):
        def failing(params, mc, stop=None):
            raise exc("pcc stage failed")

        monkeypatch.setattr(simulation, "estimate_pcc", failing)
        got, err = run_err(capsys, "simulate", "--trials", "1000", "--seed", "1")
        assert (got, err) == (code, f"{prefix}: pcc stage failed\n")

    @pytest.mark.parametrize("stage, argv", [
        ("estimate_pcc", ()), ("estimate_detection", ()),
        ("trace_rows", ("--dump-traces", "t.csv", "--trace-slots", "1000000000000")),
    ], ids=["pcc", "detection", "traces"])
    def test_oversized_run_exits_2_without_traceback(self, stage, argv, capsys, monkeypatch,
                                                     tmp_path):
        # stands in for numpy's allocation failure: a real one could pass
        # under overcommit and end the process
        def oversized(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                              "(1000000000000,) and data type float64")

        monkeypatch.setattr(simulation, stage, oversized)
        monkeypatch.chdir(tmp_path)
        code = main(["simulate", "--trials", "1000", "--seed", "1", *argv])
        out, err = capsys.readouterr()
        assert (code, err) == (
            2, "error: not enough memory: Unable to allocate 7.28 TiB for an array with "
               "shape (1000000000000,) and data type float64\n")
        assert out == ""  # not even the result ahead of a failing trace stage

    def test_detection_error_wins_over_an_earlier_pcc_error(self, capsys, monkeypatch):
        pcc_failed = threading.Event()

        def bob(params, mc, stop=None):
            pcc_failed.set()
            raise NumericError("bob")

        def willie(params, mc):
            assert pcc_failed.wait(10)
            raise DomainError("willie")

        monkeypatch.setattr(simulation, "estimate_pcc", bob)
        monkeypatch.setattr(simulation, "estimate_detection", willie)
        assert run_err(capsys, "simulate", "--trials", "10", "--seed", "1") == (2, "error: willie\n")

    @pytest.mark.parametrize("p_d, code", [("0.02", 0), ("1e308", 2)], ids=["success", "error"])
    def test_stage_thread_joined_before_return(self, p_d, code, capsys):
        before = threading.active_count()
        assert run_err(capsys, "simulate", "--trials", "1000", "--seed", "1", "--p-d", p_d)[0] == code
        assert threading.active_count() == before

    def test_interrupt_stops_both_stages_within_a_block_and_exits_130(self, capsys,
                                                                         monkeypatch):
        # A slow detection stage interrupts the main thread as SIGINT does
        # once P_cc, at 10^10 trials on its worker, has run a few blocks.
        blocks, after_stop, stops = [], [], []
        pcc, outage = simulation.estimate_pcc, simulation._outage

        def watched_pcc(params, mc, stop=None):
            stops.append(stop)
            return pcc(params, mc, stop=stop)

        def counted_outage(*args, **kwargs):
            blocks.append(1)
            if stops[0].is_set():
                after_stop.append(1)
            assert len(blocks) < 2000, "P_cc was not stopped"
            return outage(*args, **kwargs)

        def slow_detection(params, mc):
            deadline = time.monotonic() + 10
            while len(blocks) < 3 and time.monotonic() < deadline:
                time.sleep(0.001)
            _thread.interrupt_main()
            while time.monotonic() < deadline:
                time.sleep(0.001)
            raise AssertionError("no interrupt")

        monkeypatch.setattr(simulation, "estimate_pcc", watched_pcc)
        monkeypatch.setattr(simulation, "_outage", counted_outage)
        monkeypatch.setattr(simulation, "estimate_detection", slow_detection)
        before = threading.active_count()
        code = main(["simulate", "--trials", "1e10", "--seed", "1"])
        assert (code, capsys.readouterr()) == (130, ("", ""))
        assert stops[0].is_set() and len(after_stop) <= 1 and len(blocks) < 2000
        assert threading.active_count() == before

    def test_snr_beyond_the_largest_double_connects(self, capsys):
        # a subnormal noise variance overflows Bob's SNR: every slot connects, as P_cc = 1 says
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, "simulate", "--trials", "1000", "--seed", "1",
                            "--sigma-b2", "1e-320")
        assert code == 0
        row = {r["metric"]: r for r in parse_csv(out)[1]}["p_cc"]
        assert (row["empirical"], row["analytic"]) == ("1", "1")

    @pytest.mark.parametrize("p_d, sigma_w2", [("1e200", "1e-200"), ("1e150", "1e-160")])
    def test_csi_threshold_beyond_the_largest_ratio_detects(self, p_d, sigma_w2, capsys):
        # s / sigma_w2 overflows in the CSI threshold; every slot is still
        # decided right, as the closed form says.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, "simulate", "--trials", "1000", "--seed", "1",
                            "--p-d", p_d, "--sigma-w2", sigma_w2)
        assert code == 0
        rows = {r["metric"]: r for r in parse_csv(out)[1]}
        for name in ("p_fa", "p_md", "zeta"):
            assert (rows[name]["empirical"], rows[name]["analytic"]) == ("0", "0")

    def test_csi_threshold_beyond_the_largest_noise_power_matches(self, capsys):
        # sigma_w2 (s + sigma_w2) overflows in the CSI threshold
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, "simulate", "--trials", "20000", "--seed", "1",
                            "--p-d", "1e200", "--sigma-w2", "1e200")
        assert code == 0
        assert [r["pass_3sigma"] for r in parse_csv(out)[1]] == ["true"] * 4

    @pytest.mark.parametrize("policy", simulation.POLICIES)
    @pytest.mark.parametrize("seed", [7, 314, 2**64 - 1])
    def test_stages_share_no_generator(self, policy, seed, capsys):
        # concurrent stages print what the estimators give one after the other
        params = SystemParams(p_d=0.02)
        mc = simulation.McConfig(trials=100_000, seed=seed, threshold=simulation.policy_threshold(
            params, policy, 0.055))
        est = simulation.estimate_detection(params, mc)
        pcc = simulation.estimate_pcc(params, mc)
        code, out = run(capsys, "simulate", "--trials", "100000", "--seed", str(seed),
                        "--p-d", "0.02", "--policy", policy, "--fixed-threshold", "0.055")
        assert code == 0
        _, rows = parse_csv(out)
        assert [(r["metric"], r["empirical"], r["stderr"]) for r in rows] == [
            (name, _fmt(emp), _fmt(se)) for name, emp, se in [
                ("p_fa", est.p_fa, est.se_fa), ("p_md", est.p_md, est.se_md),
                ("zeta", est.zeta, est.se_zeta), ("p_cc", pcc.p_cc, pcc.se)]]


class TestParameterHandling:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["detect-sweep", "--p-d-grid", "0.01", "--sigma-w2", "inf"], "sigma_w2"),
            (["detect-sweep", "--p-d-grid", "nan"], "--p-d-grid"),
            (["detect-sweep", "--p-d-grid", "0.01", "--n-d-list", "inf"], "--n-d-list"),
            (["optimize", "--epsilon-grid", "0.05", "--p-max", "nan"], "p_max"),
            (["optimize", "--epsilon-grid", "nan"], "--epsilon-grid"),
            (["optimize", "--epsilon-grid", "0.05", "--rate", "-inf"], "rate"),
            (["optimize", "--epsilon-grid", "0.05", "--n-d-min", "80",
              "--n-d-max", "60"], "n_d_min"),
            (["simulate", "--trials", "10", "--sigma-b2", "0"], "sigma_b2"),
            (["simulate", "--trials", "10", "--p-d", "inf"], "p_d"),
            (["simulate", "--trials", "10", "--p-t", "nan"], "p_t"),
            (["simulate", "--trials", "0"], "trials"),
            (["simulate", "--trials", "10", "--policy", "fixed",
              "--fixed-threshold", "nan"], "fixed_threshold"),
            (["detect-sweep", "--p-d-grid", "0.01", "--n-d-list", "50.5"], "--n-d-list"),
            (["simulate", "--trials", "10", "--policy", "fixed"], "fixed_threshold"),
            (["simulate", "--trials", "10", "--n-d", "50.5"], "n_d"),
            (["optimize", "--epsilon-grid", "0.05", "--force-nd", "60.5"], "force_nd"),
            (["simulate", "--trials", "10", "--n-d", BEYOND_DOUBLE], "n_d"),
            (["optimize", "--epsilon-grid", "0.05", "--n-d-max", BEYOND_DOUBLE], "n_d_max"),
            (["simulate", "--trials", BEYOND_DOUBLE], "trials"),
            (["detect-sweep", "--p-d-grid", "0.01", "--n-d-list", "0"], "--n-d-list"),
            (["detect-sweep", "--p-d-grid", "0.01", "--n-d-list", BEYOND_DOUBLE], "--n-d-list"),
            (["optimize", "--epsilon-grid", "0.05", "--force-nd", "0"], "force_nd"),
            pytest.param(["detect-sweep", "--p-d-grid", "abc"],
                         "--p-d-grid: bad numeric list 'abc'", id="argv22-unparsable-list"),
            pytest.param(["detect-sweep", "--p-d-grid", ","], "--p-d-grid: empty list",
                         id="argv23-empty-list"),
        ],
    )
    def test_bad_input_exits_2_naming_field(self, argv, field, capsys):
        code, err = run_err(capsys, *argv)
        assert code == 2
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("real, integer", [
        (["simulate", "--n-d", "50.0", "--trials", "1e4"],
         ["simulate", "--n-d", "50", "--trials", "10000"]),
        (["optimize", "--epsilon-grid", "0.05", "--n-d-min", "50.0", "--n-d-max", "1e2",
          "--force-nd", "60.0"],
         ["optimize", "--epsilon-grid", "0.05", "--n-d-min", "50", "--n-d-max", "100",
          "--force-nd", "60"]),
    ], ids=["simulate", "optimize"])
    def test_integral_real_counts_print_integer_bytes(self, real, integer, capsys):
        code, out = run(capsys, *integer)
        assert code == 0
        assert run(capsys, *real) == (0, out)

    @pytest.mark.parametrize("n_d", ["50", "60"])
    def test_integral_real_count_in_file(self, n_d, tmp_path, capsys):
        outs = []
        for text in (f"n_d = {n_d}.0\n", f"n_d = {n_d}\n"):
            cfg = tmp_path / "params.txt"
            cfg.write_text(text)
            outs.append(run(capsys, "simulate", "--trials", "1000", "--seed", "1",
                            "--params", str(cfg)))
        assert outs[0][0] == 0
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["optimize", "detect-sweep"])
    def test_seed_is_not_an_option(self, capsys, command):
        # only simulate draws random numbers
        grid = "--epsilon-grid" if command == "optimize" else "--p-d-grid"
        code, err = run_err(capsys, command, grid, "0.05", "--seed", "1")
        assert code == 2
        assert "--seed" in err

    def test_degenerate_pilot_estimate_exits_2(self, capsys):
        # beta_b = sigma_b2 / (sigma_b2 + n_t p_t) rounds to 1.0 here
        code, err = run_err(
            capsys, "simulate", "--trials", "10", "--sigma-b2", "1e300",
            "--p-t", "1e-300",
        )
        assert code == 2
        assert "beta_b" in err

    @pytest.mark.parametrize("command", ["detect-sweep", "optimize", "simulate"])
    def test_scenario_flags_follow_field_order(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out.split("scenario parameters:", 1)[1]
        flags = [tok for tok in text.split() if tok.startswith("--")]
        assert flags == [
            "--sigma-b2", "--sigma-w2", "--rate", "--p-max", "--n-t", "--p-t",
            "--n-d-min", "--n-d-max", "--epsilon", "--p-d", "--n-d",
        ]

    @pytest.mark.parametrize("text, message", [
        ("n_d = nan\n", "n_d"),
        ("# comment\n\nsigma_w2 = abc\n", ":3: bad value for sigma_w2: 'abc'"),
        ("sigma_w2\n", ":1: expected 'key = value'"),
    ], ids=["invalid-count", "unparsable-value", "no-equals-sign"])
    def test_bad_value_in_file_exits_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "params.txt"
        cfg.write_text(text)
        code, err = run_err(capsys, "simulate", "--trials", "10", "--params", str(cfg))
        assert code == 2
        assert message in err

    def test_file_then_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "params.txt"
        cfg.write_text("sigma_w2 = 0.1  # loud adversary\nn_d_min = 60\n")
        _, out = run(
            capsys, "optimize", "--epsilon-grid", "0.05", "--method",
            "suboptimal", "--params", str(cfg), "--sigma-w2", "0.05",
        )
        _, rows = parse_csv(out)
        # n_d_min comes from the file, sigma_w2 from the overriding flag
        assert rows[0]["n_d_star"] == "60"
        import math

        expected = 0.05 * 0.05 * math.exp(
            math.lgamma(60) - 60 * math.log(60) + 60
        )
        assert float(rows[0]["p_d_star"]) == pytest.approx(expected, rel=1e-9)

    def test_unknown_key_in_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "params.txt"
        cfg.write_text("bogus = 1\n")
        code, _ = run(capsys, "optimize", "--epsilon-grid", "0.05",
                      "--params", str(cfg))
        assert code == 2

    @pytest.mark.parametrize(
        "command, flag, target",
        [(["optimize", "--epsilon-grid", "0.05"], "--params", "missing.txt"),
         (["optimize", "--epsilon-grid", "0.05"], "--params", "undecodable.txt"),
         (["optimize", "--epsilon-grid", "0.05"], "--params", "."),
         (["optimize", "--epsilon-grid", "0.05"], "--out", "missing/x.csv"),
         (["simulate", "--trials", "100", "--seed", "1"], "--dump-traces", "missing/t.csv")],
        ids=["missing-params", "undecodable-params", "params-directory", "out-in-missing-dir",
             "traces-in-missing-dir"],
    )
    def test_file_error_exits_2_naming_the_path(self, tmp_path, capsys, command, flag, target):
        (tmp_path / "undecodable.txt").write_bytes(b"\xff")
        path = str(tmp_path / target)
        code, err = run_err(capsys, *command, flag, path)
        assert code == 2
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [
        (["optimize", "--epsilon-grid", "0.05"], "--out"),
        (["simulate", "--trials", "1000", "--seed", "1"], "--out"),
        (["simulate", "--trials", "1000", "--seed", "1"], "--dump-traces"),
    ], ids=["optimize-out", "simulate-out", "simulate-traces"])
    def test_unusable_output_path_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                        command, flag):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the output path was checked")

        monkeypatch.setattr(simulation, "estimate_detection", no_work)
        monkeypatch.setattr(optimizer, "solve_p1", no_work)
        path = str(tmp_path / "missing" / "x.csv")
        code = main([*command, flag, path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path}: No such file or directory\n"

    def test_csv_format(self, tmp_path):
        path = tmp_path / "o.csv"
        main(["optimize", "--epsilon-grid", "0.05", "--method", "exact",
              "--out", str(path)])
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")
        header = data.split(b"\n", 1)[0].decode()
        assert header == "epsilon,method,p_d_star,n_d_star,throughput,power_capped,diagnostics"


class TestExactCounts:
    """A count is read at the exact decimal value of its text."""

    @pytest.mark.parametrize("argv, column, expected", [
        (["optimize", "--epsilon-grid", "0.05", "--method", "suboptimal",
          "--n-d-min", "1e24", "--n-d-max", "1e24"], "n_d_star", str(10**24)),
        (["optimize", "--epsilon-grid", "0.05", "--method", "suboptimal",
          "--n-d-min", "9007199254740993.0", "--n-d-max", "9007199254740993.0"],
         "n_d_star", "9007199254740993"),
        (["detect-sweep", "--p-d-grid", "0.01", "--n-d-list", "1e300", "--mode", "cdi_approx"],
         "n_d", str(10**300)),
        (["detect-sweep", "--p-d-grid", "0.01", "--n-d-list", "1e305", "--mode", "cdi_approx"],
         "n_d", str(10**305)),
        (["detect-sweep", "--p-d-grid", "0.01", "--n-d-list", "9007199254740993.0",
          "--mode", "cdi_approx"], "n_d", "9007199254740993"),
    ], ids=["optimize-1e24", "optimize-2**53+1", "n-d-list-1e300", "n-d-list-1e305-limit",
            "n-d-list-2**53+1"])
    def test_e_notation_and_decimal_point_print_the_exact_integer(self, argv, column, expected,
                                                                  capsys):
        code, out = run(capsys, *argv)
        assert code == 0
        assert {row[column] for row in parse_csv(out)[1]} == {expected}

    def test_exact_count_in_file(self, tmp_path, capsys):
        cfg = tmp_path / "params.txt"
        cfg.write_text("n_d_min = 1e24\nn_d_max = 1e24\n")
        code, out = run(capsys, "optimize", "--epsilon-grid", "0.05", "--method", "suboptimal",
                        "--params", str(cfg))
        assert code == 0
        assert parse_csv(out)[1][0]["n_d_star"] == str(10**24)

    @pytest.mark.parametrize("argv, field", [
        (["simulate", "--trials", "1000", "--seed", "1", "--n-d", "50.0000000000000001"], "n_d"),
        (["simulate", "--trials", "1000.0000000000000001", "--seed", "1"], "trials"),
        (["optimize", "--epsilon-grid", "0.05", "--force-nd", "60.0000000000000001"],
         "force_nd"),
        (["detect-sweep", "--p-d-grid", "0.01", "--n-d-list", "50.0000000000000001"],
         "--n-d-list"),
    ], ids=["n_d", "trials", "force_nd", "n_d_list"])
    def test_fraction_below_double_precision_exits_2(self, argv, field, capsys):
        code, err = run_err(capsys, *argv)
        assert code == 2
        assert field in err and ".0000000000000001" in err  # the text as written

    @pytest.mark.parametrize("text, expected", [
        ("1" + "0" * 5000 + "e-5000", "1"),
        ("0." + "0" * 4999 + "1e5000", "1"),
        ("1e" + "0" * 5000 + "1", "10"),
        ("1." + "0" * 4998 + "1", None),
    ], ids=["5001-digit-1", "5000-leading-zeros", "5000-digit-exponent", "5000-digit-fraction"])
    def test_long_spelling_is_read_exactly_at_once(self, text, expected, capsys):
        # past int()'s 4300-digit limit on text, yet exactly a count, or exactly none
        start = time.perf_counter()
        code, out, err = run_all(capsys, "optimize", "--epsilon-grid", "0.05", "--method",
                                 "suboptimal", "--n-d-min", text, "--n-d-max", text)
        assert time.perf_counter() - start < 1.0
        if expected is None:
            assert code == 2
            assert err.startswith("error: n_d_min must be an integer >= 1") and text in err
        else:
            assert code == 0
            assert parse_csv(out)[1][0]["n_d_star"] == expected

    @pytest.mark.parametrize("value", ["1e1000000000", "1e-1000000000", "0e1000000000"])
    @pytest.mark.parametrize("argv, flag, field", [
        (["simulate", "--trials", "10", "--seed", "1"], "--n-d", "n_d"),
        (["simulate", "--seed", "1"], "--trials", "trials"),
        (["simulate", "--trials", "10", "--seed", "1"], "--n-t", "n_t"),
        (["optimize", "--epsilon-grid", "0.05"], "--n-d-min", "n_d_min"),
        (["optimize", "--epsilon-grid", "0.05"], "--n-d-max", "n_d_max"),
        (["optimize", "--epsilon-grid", "0.05"], "--force-nd", "force_nd"),
        (["detect-sweep", "--p-d-grid", "0.01"], "--n-d-list", "--n-d-list"),
    ])
    def test_unbounded_exponent_exits_2_at_once(self, value, argv, flag, field, capsys):
        start = time.perf_counter()
        code, err = run_err(capsys, *argv, flag, value)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert field in err and value in err

    def test_count_agrees_with_the_fraction_oracle(self):
        wrong = [(text, got, want) for text in _count_texts()
                 for got, want in [(_outcome(count, text), _outcome(_count_oracle, text))]
                 if got != want]
        assert wrong == []


def _count_oracle(text):
    """``count``'s contract read off ``fractions.Fraction``: the int of a whole
    value whose float is nonzero and finite, else the text; ValueError where
    ``float`` finds no real.  Fraction reads the text in ASCII, its digits
    mapped and its whitespace and underscores dropped."""
    if not 0 < abs(float(text)) < math.inf:
        return text
    ascii_text = "".join(str(unicodedata.decimal(c)) if c.isdecimal() else c
                         for c in text.strip() if c != "_")
    value = Fraction(ascii_text)
    return int(value) if value.denominator == 1 else text


def _outcome(read, text):
    try:
        value = read(text)
    except ValueError:
        return ValueError
    return type(value), value


def _count_texts():
    """A seeded fuzz of count texts over ``0-9 . e E + - _`` and space, both
    free strings and number-shaped ones with exponents up to +-400, then every
    Unicode whitespace and decimal digit in a few number shapes, nearly all of
    which ``float`` accepts."""
    rng = random.Random(20201021)
    alphabet = "0123456789.eE+-_ "
    texts = ["".join(rng.choices(alphabet, k=rng.randrange(13))) for _ in range(50_000)]
    for _ in range(50_000):
        mantissa = "".join(rng.choices("0123456789_", k=rng.randrange(9)))
        if rng.random() < 0.5:
            mantissa += "." + "".join(rng.choices("0123456789", k=rng.randrange(7)))
        exponent = ""
        if rng.random() < 0.7:
            exponent = (rng.choice("eE") + rng.choice(["", "+", "-"]) + "0" * rng.randrange(3)
                        + str(rng.randrange(401)))
        texts.append(rng.choice(["", "+", "-", " "]) + mantissa + exponent
                     + rng.choice(["", " ", "  "]))
    chars = [chr(c) for c in range(sys.maxunicode + 1)]
    for space in filter(str.isspace, chars):
        texts += [space + "7" + space, "7" + space, space + "1e2", space + "5.0" + space]
    for digit in filter(str.isdecimal, chars):
        texts += [digit, "1" + digit, digit + ".0", "1e" + digit, digit + "." + digit,
                  "5." + digit, digit + "000", "0." + digit]
    return texts


def test_main_reuses_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    argv = ["detect-sweep", "--p-d-grid", "0", "--n-d-list", "1", "--mode", "cdi_approx"]
    assert main(argv) == 0
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert [main(argv), main(argv)] == [0, 0]
    assert built == []


DESIGN_ARGV = ["optimize", "--epsilon-grid", "0.081", "--method", "both", "--sigma-b2", "0.01",
               "--sigma-w2", "0.05", "--n-d-min", "50", "--n-d-max", "100", "--p-max", "1",
               "--rate", "1"]


def test_main_parses_argv_once(capsys, monkeypatch):
    parsed = []
    parse = argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    assert main(DESIGN_ARGV) == 0
    assert parsed == ["covertfade optimize"]


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nope"],
    ["optimize"], ["optimize", "-h"],
    ["optimize", "--epsilon-grid", "0.1", "--bogus", "1"],
    ["optimize", "--epsilon-grid", "0.1", "stray"],
    ["optimize", "--eps", "0.1"],
    ["optimize", "--epsilon-grid", "0.1,nan"],
    ["simulate", "--trials", "0.5"],
], ids=["empty", "help", "unknown-command", "optimize-no-grid", "optimize-help", "bogus-flag",
        "stray-positional", "ambiguous-eps", "nan-grid", "fractional-trials"])
def test_subcommand_parse_prints_the_top_level_parse_bytes(argv, capsys, monkeypatch):
    mine = run_all(capsys, *argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
    assert mine == run_all(capsys, *argv)


@pytest.mark.parametrize("argv", [
    DESIGN_ARGV,
    ["detect-sweep", "--p-d-grid", "1e-3,1", "--n-d-list", "50.0,1e3", "--mode", "csi"],
    ["simulate", "--trials", "1e3", "--seed", "7", "--policy", "fixed", "--fixed-threshold",
     "0.05", "--out", "x.csv", "--n-d=60"],
], ids=["optimize", "detect-sweep", "simulate"])
def test_subcommand_parse_gives_the_top_level_namespace(argv):
    assert vars(cli._parse(argv)) == vars(build_parser().parse_args(argv))


def _check_value_by_abc(name, value, group):
    """The reference rule: every value is tested through ``numbers.Real``."""
    in_range, what = _RANGES[group]
    try:
        if isinstance(value, numbers.Real) and math.isfinite(value) and in_range(value):
            return int(value) if group == "counts" else value
        got = repr(value)
    except OverflowError:
        got = "an integer beyond the largest double"
    raise DomainError(f"{name} must be {what}, got {got}")


def _judged(check, value, group):
    try:
        result = check("x", value, group)
    except DomainError as exc:
        return "rejected", str(exc)
    return type(result), repr(result)


@pytest.mark.parametrize("group", sorted(_RANGES))
def test_check_value_judges_as_the_abc_rule(group):
    values = [0.5, -0.0, 1, 3.0, True, np.float64(0.5), np.int64(3), np.float32(0.25),
              Fraction(1, 2), Decimal("0.5"), 10**400, -(10**400), math.inf, -math.inf,
              math.nan, "0.5", None, 1 + 0j]
    for value in values:
        assert _judged(check_value, value, group) == _judged(_check_value_by_abc, value, group)


def test_package_import_loads_no_layer_module():
    # the layer modules are the API; the package itself holds only __version__
    code = ("import sys, covertfade; "
            "print(sorted(m for m in sys.modules if m.startswith('covertfade.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_cli_start_loads_no_scipy_optimize():
    # both numeric searches run on covertfade.solver; scipy.optimize serves the tests only
    code = ("import sys, covertfade.cli; covertfade.cli.build_parser(); "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_cli_start_loads_no_cython_special():
    # covertfade.special calls scipy's ufuncs, not its scalar cython_special kernels
    code = ("import sys, covertfade.cli; covertfade.cli.build_parser(); "
            "print('scipy.special.cython_special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_cli_start_loads_no_thread_pool():
    # simulate imports ThreadPoolExecutor when it runs; numpy.testing, which
    # scipy.special loads, may already have imported the concurrent.futures package
    code = ("import sys, covertfade.cli; covertfade.cli.build_parser(); "
            "print('concurrent.futures.thread' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_cli_start_loads_no_decimal():
    # params.count imports decimal when it reads a count's text
    code = ("import sys, covertfade.cli; covertfade.cli.build_parser(); "
            "print('decimal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"
