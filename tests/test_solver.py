import math

import pytest
from scipy.optimize import brentq

from covertfade.errors import NumericError
from covertfade.solver import TOL, newton_bracket


def solve(f, df, lo, hi, x=None):
    """newton_bracket from x (lo by default), counting evaluations."""
    calls = []

    def fn(u):
        calls.append(u)
        return f(u), df(u)

    x = lo if x is None else x
    root = newton_bracket(fn, lo, hi, x, f(x), df(x))
    return root, calls


CASES = [
    # (f, f', lo, hi): increasing through one root, some far from linear
    (lambda u: u**3 - 2 * u - 5, lambda u: 3 * u**2 - 2, 2.0, 3.0),
    (lambda u: math.expm1(u) - 3.0, math.exp, 0.0, 5.0),
    (lambda u: math.tanh(20 * (u - 0.3)), lambda u: 20 / math.cosh(20 * (u - 0.3))**2, 0.0, 4.0),
    (lambda u: math.log(u) + 1e3 * (math.expm1(u) - u) + 4, lambda u: 1 / u + 1e3 * math.expm1(u),
     1e-6, 700.0),
]


class TestNewtonBracket:
    @pytest.mark.parametrize("f, df, lo, hi", CASES)
    def test_converges_to_brentq_within_tolerance(self, f, df, lo, hi):
        reference = brentq(f, lo, hi, xtol=1e-15, rtol=1e-15)
        root, calls = solve(f, df, lo, hi)
        assert abs(root - reference) <= TOL
        assert len(calls) < 40 and len(calls) == len(set(calls))
        assert all(lo < u < hi for u in calls)

    def test_slow_newton_steps_give_way_to_bisection(self):
        # From far right of the root of e^u - 2 each Newton step is about -1;
        # a step that does not halve the last one bisects instead.
        root, calls = solve(lambda u: math.expm1(u) - 1.0, math.exp, 0.0, 60.0, x=60.0)
        assert abs(root - math.log(2.0)) <= TOL and len(calls) < 20

    def test_root_at_the_lower_end_is_returned_at_once(self):
        root, calls = solve(lambda u: u - 1.0, lambda u: 1.0, 1.0, 2.0)
        assert root == 1.0 and calls == []

    def test_root_at_the_upper_end(self):
        root, _ = solve(lambda u: u - 2.0, lambda u: 1.0, 1.0, 2.0)
        assert abs(root - 2.0) <= TOL

    @pytest.mark.parametrize("sign, end", [(-1.0, 3.0), (1.0, 1.0)])
    def test_no_sign_change_closes_in_on_a_bracket_end(self, sign, end):
        # Negative throughout: the root lies at or past hi; positive: at or before lo.
        root, calls = solve(lambda u: sign * math.exp(-u), lambda u: -sign * math.exp(-u),
                            1.0, 3.0, x=2.0)
        assert abs(root - end) <= TOL and len(calls) < 40

    @pytest.mark.parametrize("slope", [0.0, math.nan, math.inf, -1.0])
    def test_unusable_derivative_falls_back_to_bisection(self, slope):
        root, calls = solve(lambda u: u**3 - 2 * u - 5, lambda u: slope, 2.0, 3.0)
        assert abs(root - 2.0945514815423265) <= TOL
        assert len(calls) <= math.ceil(math.log2(1.0 / TOL))

    def test_zero_of_f_ends_the_search(self):
        root, calls = solve(lambda u: math.floor(u), lambda u: 0.0, -1.0, 1.0)
        assert root == 0.0 and calls == [0.0]

    def test_newton_step_below_the_last_bit_ends_the_search(self):
        # f(1) = 2^-60 > 0: the step to the root 1 - 2^-60 rounds back to 1,
        # which is the root to the last bit, not a reason to bisect.
        root, calls = solve(lambda u: u - 1.0 + 2.0**-60, lambda u: 1.0, 0.0, 2.0, x=1.0)
        assert root == 1.0 and calls == []

    def test_unreachable_tolerance_names_the_bracket_and_last_iterate(self):
        # bisection alone needs about 1,000 halvings to close 1e300 to 1e-8
        with pytest.raises(NumericError, match=r"in \[0\.0, .*\].*last iterate"):
            solve(lambda u: u - 1.0, lambda u: 0.0, 0.0, 1e300)
