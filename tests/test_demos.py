"""Smoke tests: every demo script runs to completion and prints its table."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script, header",
    [
        ("detection_error_curves.py", "zeta_csi"),
        ("covert_design_tradeoffs.py", "throughput"),
        ("monte_carlo_validation.py", "deviation"),
    ],
)
def test_demo_runs(script, header, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert any(header in line.split() for line in lines[:3])
    assert len(lines) > 3
