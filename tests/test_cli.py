import numpy as np
import pytest

from covertfade.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_err(capsys, *argv):
    """Exit code and stderr, counting argparse's SystemExit as an exit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


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

    def test_bad_epsilon_exits_2(self, capsys):
        assert run(capsys, "optimize", "--epsilon-grid", "1.5")[0] == 2


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
        ],
    )
    def test_bad_input_exits_2_naming_field(self, argv, field, capsys):
        code, err = run_err(capsys, *argv)
        assert code == 2
        assert field in err

    def test_bad_value_in_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "params.txt"
        cfg.write_text("n_d = nan\n")
        code, err = run_err(capsys, "simulate", "--trials", "10", "--params", str(cfg))
        assert code == 2
        assert "n_d" in err

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

    def test_csv_format(self, tmp_path):
        path = tmp_path / "o.csv"
        main(["optimize", "--epsilon-grid", "0.05", "--method", "exact",
              "--out", str(path)])
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")
        header = data.split(b"\n", 1)[0].decode()
        assert header == "epsilon,method,p_d_star,n_d_star,throughput,power_capped,diagnostics"
