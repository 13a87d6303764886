"""Every subcommand with each numeric flag at hostile values, run in-process
through ``cli.main`` with warnings raised as errors: the exit code is 0, 2 or 3,
no exception escapes, and a failing run prints nothing on stdout and ends its
stderr with one of the CLI's error lines."""

import re
import sys
import warnings

import pytest

from covertfade import cli
from covertfade.params import _FIELD_TYPES

VALUES = ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e-310", "1e-8", "0.5", "2", "1e20",
          str(2**53 + 1), "1e308", repr(sys.float_info.max), "1e400", "1" + "0" * 400, "abc",
          # counts read at their exact decimal value, and exponents too large to build
          "1e24", "1e300", "9007199254740993.0", "50.0000000000000001", "1e1000000000",
          "1e-1000000000"]

# Each run is small: one point, one covertness level, 200 trials.
BASE = {
    "detect-sweep": ["--p-d-grid", "1e-3", "--n-d-list", "50", "--mode", "both"],
    "optimize": ["--epsilon-grid", "0.05", "--method", "both"],
    "simulate": ["--trials", "200", "--seed", "1"],
}
OWN_FLAGS = {
    "detect-sweep": ["--p-d-grid", "--n-d-list"],
    "optimize": ["--epsilon-grid", "--force-nd"],
    "simulate": ["--seed", "--trials", "--fixed-threshold", "--trace-slots"],
}
SHARED_FLAGS = [f"--{name.replace('_', '-')}" for name in _FIELD_TYPES]
CASES = [(cmd, flag) for cmd in BASE for flag in SHARED_FLAGS + OWN_FLAGS[cmd]]

# An accepted trial count runs that many trials, with nothing that bounds
# its time: those values are left out.
UNBOUNDED = {"--trials": {"1e20", str(2**53 + 1), "1e308", repr(sys.float_info.max), "1e24",
                          "1e300", "9007199254740993.0"}}

FAILURE_LINE = re.compile(r"^(error: |numeric failure: |covertfade [a-z-]+: error: )")


def _run(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("cmd, flag", CASES)
def test_hostile_value_exits_cleanly(cmd, flag, capsys, tmp_path):
    extra = {"--fixed-threshold": ["--policy", "fixed"],
             "--trace-slots": ["--dump-traces", str(tmp_path / "traces.csv")]}.get(flag, [])
    for value in VALUES:
        if value in UNBOUNDED.get(flag, ()):
            continue
        # the flag given last wins over its value in BASE
        code, out, err = _run([cmd, *BASE[cmd], *extra, flag, value], capsys)
        assert code in (0, 2, 3), (value, code, err)
        if code:
            assert out == "", value
            assert FAILURE_LINE.match(err.splitlines()[-1]), (value, err)
