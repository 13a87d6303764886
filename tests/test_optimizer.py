import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import sign_threshold, throughput_derivative_sign
from covertfade.detection import WillieParams, csi_average_and_slope, expected_zeta_star_csi
from covertfade.errors import DomainError, NumericError
from covertfade import link, optimizer, solver
from covertfade.cli import main
from covertfade.optimizer import (
    power_for_covertness_exact,
    power_for_covertness_suboptimal,
    solve_p1,
    solve_p1_1,
)
from covertfade.params import SystemParams

SW2 = 0.05


def problem(epsilon=0.05, p_max=1.0, n_d_min=50, n_d_max=100, sigma_w2=SW2, p_t=None,
            sigma_b2=0.01):
    return SystemParams(
        epsilon=epsilon,
        p_max=p_max,
        n_d_min=n_d_min,
        n_d_max=n_d_max,
        sigma_b2=sigma_b2, rate=1.0, n_t=1, p_t=p_max if p_t is None else p_t,
        sigma_w2=sigma_w2,
    )


class TestExactPower:
    def test_tight_covertness_forces_silence(self):
        p_strict = power_for_covertness_exact(50, problem(epsilon=1e-4)).value
        p_loose = power_for_covertness_exact(50, problem(epsilon=0.05)).value
        assert 0.0 < p_strict < p_loose
        assert p_strict < 1e-5

    def test_defining_equation_holds(self):
        prob = problem(epsilon=0.05)
        p = power_for_covertness_exact(50, prob).value
        achieved = expected_zeta_star_csi(WillieParams(sigma_w2=SW2, n_d=50, p_d=p))
        assert achieved == pytest.approx(0.95, abs=1e-6)

    def test_against_grid_scan_oracle(self):
        prob = problem(epsilon=0.05)
        root = power_for_covertness_exact(50, prob).value
        grid = np.linspace(root * 0.5, root * 1.5, 2001)
        values = np.array(
            [
                expected_zeta_star_csi(WillieParams(sigma_w2=SW2, n_d=50, p_d=p))
                for p in grid
            ]
        )
        crossing = grid[int(np.argmin(np.abs(values - 0.95)))]
        assert root == pytest.approx(crossing, abs=grid[1] - grid[0])

    @pytest.mark.parametrize("p_max", [1.0, 1e-4])
    def test_one_quadrature_per_distinct_power(self, monkeypatch, p_max):
        calls = []

        def counting(n_d, a):
            calls.append(a)
            return csi_average_and_slope(n_d, a)

        monkeypatch.setattr(optimizer, "csi_average_and_slope", counting)
        power = power_for_covertness_exact(50, problem(epsilon=0.05, p_max=p_max))
        if p_max == 1e-4:  # one average at p_max decides the cap
            assert power.capped and len(calls) == 1
        else:
            assert len(calls) > 2
        assert len(calls) == len(set(calls))

    def test_root_is_tight(self):
        prob = problem(epsilon=0.001, n_d_min=1000, n_d_max=1000)
        gap = lambda p: expected_zeta_star_csi(
            WillieParams(sigma_w2=SW2, n_d=1000, p_d=p)) - 0.999
        reference = brentq(gap, 1e-6, 1.0, xtol=1e-300, rtol=1e-15)
        assert power_for_covertness_exact(1000, prob).value == pytest.approx(
            reference, rel=1e-8, abs=0)

    def test_closed_form_power_brackets_the_root(self):
        # The averaged error lies above its linearization, so the closed-form
        # power never overshoots: the exact root's lower bracket end holds.
        for p_max in (1e-4, 1.0, 100.0):
            for eps in (0.001, 0.01, 0.05, 0.2, 0.5, 0.99):
                for n_d in (1, 2, 10, 50, 400, 5000):
                    prob = problem(epsilon=eps, p_max=p_max)
                    p_lin = power_for_covertness_suboptimal(n_d, prob).value
                    assert optimizer._avg_error(n_d, p_lin, prob) >= 1.0 - eps
                    assert power_for_covertness_exact(n_d, prob).value >= p_lin

    def test_closed_form_power_past_the_root_raises(self, monkeypatch):
        monkeypatch.setattr(optimizer, "csi_average_and_slope", lambda n_d, a: (0.0, 0.0))
        with pytest.raises(NumericError, match="closed-form power"):
            power_for_covertness_exact(50, problem(epsilon=0.05))

    def test_power_cap(self):
        prob = problem(epsilon=0.9, p_max=1e-4)
        result = power_for_covertness_exact(50, prob)
        assert result.capped and result.value == prob.p_max


class TestSuboptimalPower:
    def test_single_symbol_closed_form(self):
        p = power_for_covertness_suboptimal(1, problem(epsilon=0.05)).value
        assert p == pytest.approx(0.05 * SW2 * math.e, rel=1e-12)

    def test_two_symbol_closed_form(self):
        p = power_for_covertness_suboptimal(2, problem(epsilon=0.05)).value
        assert p == pytest.approx(0.05 * SW2 * math.e**2 / 4.0, rel=1e-12)

    def test_factorial_oracle(self):
        p = power_for_covertness_suboptimal(50, problem(epsilon=0.05)).value
        oracle = 0.05 * SW2 * math.factorial(49) / (50**50 * math.exp(-50))
        assert p == pytest.approx(oracle, rel=1e-10)


class TestSolveP1:
    def test_reference_setup_picks_minimum_symbols(self):
        sol = solve_p1(problem(epsilon=0.05))
        assert sol.n_d_star == 50
        assert not sol.power_capped and not sol.constraint_violated

    def test_tie_break_toward_fewer_symbols(self, monkeypatch):
        monkeypatch.setattr(optimizer, "throughput_at", lambda n, p, prob: 1.0)
        sol = solve_p1(problem(epsilon=0.05, n_d_min=60, n_d_max=70))
        assert sol.n_d_star == 60

    def test_solution_beats_exhaustive_grid(self):
        prob = problem(epsilon=0.1, n_d_min=50, n_d_max=60)
        sol = solve_p1(prob)
        for n_d in range(prob.n_d_min, prob.n_d_max + 1):
            power = power_for_covertness_exact(n_d, prob)
            value = link.throughput(replace(prob, p_d=power.value, n_d=n_d))
            assert sol.throughput >= value - 1e-15

    def test_force_nd(self):
        prob = problem(epsilon=0.05)
        sol = solve_p1(prob, force_nd=100)
        assert sol.n_d_star == 100
        with pytest.raises(DomainError):
            solve_p1(prob, force_nd=10)
        for bad in (60.7, math.nan):
            with pytest.raises(DomainError, match="force_nd"):
                solve_p1(prob, force_nd=bad)


class TestSharedSearch:
    @pytest.mark.parametrize(
        "solve, rule",
        [(solve_p1, "power_for_covertness_exact"),
         (solve_p1_1, "power_for_covertness_suboptimal")],
        ids=["solve_p1", "solve_p1_1"],
    )
    def test_capped_design_checked_against_constraint(self, monkeypatch, solve, rule):
        # The power rule returns a capped power by construction, so the check
        # in _search is reached at any p_max, including those where
        # exp(ln p_max) == p_max.
        monkeypatch.setattr(
            optimizer, rule, lambda n_d, params: optimizer.CovertPower(params.p_max, True))
        assert math.exp(math.log(0.5)) == 0.5
        for p_max in (1e-4, 0.5):
            prob = problem(epsilon=0.05, p_max=p_max)
            for error, violated in ((0.95 - 2 * optimizer._CONSTRAINT_SLACK, True),
                                    (0.95, False)):
                monkeypatch.setattr(optimizer, "_avg_error",
                                    lambda n_d, p_d, params, error=error: error)
                sol = solve(prob)
                assert (sol.p_d_star, sol.power_capped) == (p_max, True)
                assert sol.constraint_violated == violated
        monkeypatch.undo()
        sol = solve(problem(epsilon=0.05, p_max=1e-4))
        assert sol.power_capped and not sol.constraint_violated

    @pytest.mark.parametrize(
        "solve, rule, calls",
        [(solve_p1, "power_for_covertness_exact", 3),
         (solve_p1_1, "power_for_covertness_suboptimal", 3),
         pytest.param(solve_p1, "power_for_covertness_exact", None, id="uncapped")],
    )
    def test_power_rule_looked_up_at_call_time(self, monkeypatch, solve, rule, calls):
        # tracers wrap the module attribute, so the solvers must call through it.
        # Capped: every throughput is positive, so the throughput bound cannot
        # stop early.  Uncapped (calls None): every root after the first starts
        # warm from the last one, and still goes through the wrapper.
        seen, scored = [], []
        original, score = getattr(optimizer, rule), optimizer.throughput_at

        def counting(n_d, params, *top):
            seen.append(top)
            return original(n_d, params, *top)

        def scoring(n_d, p_d, params):
            scored.append(n_d)
            return score(n_d, p_d, params)

        monkeypatch.setattr(optimizer, rule, counting)
        monkeypatch.setattr(optimizer, "throughput_at", scoring)
        p_max, n_d_max = (1e-4, 52) if calls else (1.0, 100)
        solve(problem(epsilon=0.05, p_max=p_max, n_d_min=50, n_d_max=n_d_max, p_t=1.0))
        assert len(seen) == len(scored) == (calls or len(scored))
        if calls is None:
            assert len(seen) > 1 and seen[0] == () and all(seen[1:])


def enumerate_designs(params, power_rule=power_for_covertness_exact):
    """Reference design: every admissible count with its power from the cold
    ``power_rule`` and its throughput on a validated copy, ties toward fewer
    symbols."""
    best = None
    for n_d in range(params.n_d_min, params.n_d_max + 1):
        power = power_rule(n_d, params)
        value = link.throughput(replace(params, p_d=power.value, n_d=n_d))
        if best is None or value > best[0]:
            best = (value, n_d, power)
    value, n_d, power = best
    violated = power.capped and (optimizer._avg_error(n_d, power.value, params)
                                 < 1.0 - params.epsilon - optimizer._CONSTRAINT_SLACK)
    return (n_d, power.value, value, power.capped, violated)


def design(sol):
    return (sol.n_d_star, sol.p_d_star, sol.throughput, sol.power_capped,
            sol.constraint_violated)


class TestThroughputBound:
    @pytest.mark.parametrize(
        "p_max, p_t, sigma_b2, n_d_max, grid",
        [(1.0, None, 0.01, 100, np.linspace(0.01, 0.2, 20)),
         (1e-4, None, 0.01, 100, np.linspace(0.01, 0.2, 20)),
         (1e-4, 1.0, 0.01, 100, np.linspace(0.01, 0.2, 20)),
         (1.0, None, 0.01, 400, (0.01, 0.05, 0.2)),
         (1.0, None, 1e-3, 100, (0.5,)),
         (2e-3, 1.0, 0.01, 400, (0.05, 0.2))],
        ids=["criteria-4-5", "all-capped", "all-capped-pilot-1", "n_d-1-400",
             "rising-closed-form", "capped-then-uncapped"],
    )
    def test_bounded_search_equals_full_enumeration(self, p_max, p_t, sigma_b2, n_d_max, grid):
        # p_t = p_max = 1e-4 is the CLI's capped case (zero throughput
        # everywhere); p_t = 1 gives positive capped throughputs; at epsilon
        # 0.5 and sigma_b2 1e-3 the closed-form throughput rises past n_d_min;
        # at p_max 2e-3 the exact power is capped up to a count in mid-range
        # and warm-started after it (epsilon 0.2: the optimum is n_d 190)
        n_d_min = 50 if n_d_max == 100 else 1
        for eps in grid:
            prob = problem(epsilon=float(eps), p_max=p_max, p_t=p_t, sigma_b2=sigma_b2,
                           n_d_min=n_d_min, n_d_max=n_d_max)
            expected = enumerate_designs(prob)
            assert design(solve_p1(prob)) == expected
            assert expected[3] == (p_max == 1e-4)
            assert design(solve_p1_1(prob)) == enumerate_designs(
                prob, power_for_covertness_suboptimal)

    def test_closed_form_power_rule_under_the_bound(self):
        # the closed-form power also falls with n_d, so the bound holds for it
        prob = problem(epsilon=0.2, n_d_min=1, n_d_max=400)
        rule = power_for_covertness_suboptimal
        assert design(optimizer._search(prob, range(1, 401), rule)) == enumerate_designs(prob, rule)

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2])
    def test_exact_power_nonincreasing_in_n_d(self, eps):
        # every count up to 400, then a geometric set up to 1e7, past the
        # largest count (about 6.0e6) that a search up to n_d 1e308 visits
        counts = sorted(set(range(1, 401)) | {round(n) for n in np.geomspace(400, 1e7, 80)})
        prob = problem(epsilon=eps, n_d_min=1, n_d_max=10**7)
        powers = [power_for_covertness_exact(n_d, prob).value for n_d in counts]
        assert all(b <= a for a, b in zip(powers, powers[1:]))

    @pytest.mark.parametrize("solve", [solve_p1, solve_p1_1])
    @pytest.mark.parametrize("epsilon, n_d_min, n_d_max", [
        (0.05, 50, 100), (0.2, 1, 400), (0.05, 1, 10**308), (0.2, 1, 10**308)],
        ids=["reference", "interior", "huge-0.05", "huge-0.2"])
    def test_search_jumps_past_dominated_counts(self, monkeypatch, solve, epsilon,
                                                n_d_min, n_d_max):
        # each visited count is scored once; the next one is at most twice it,
        # and every count jumped over delivers at most the best so far even at
        # the last visited count's power
        visits = []
        original = optimizer.throughput_at

        def scoring(n_d, p_d, params):
            visits.append((n_d, p_d, original(n_d, p_d, params)))
            return visits[-1][2]

        monkeypatch.setattr(optimizer, "throughput_at", scoring)
        prob = problem(epsilon=epsilon, n_d_min=n_d_min, n_d_max=n_d_max)
        sol = solve(prob)
        counts = [n for n, _, _ in visits]
        assert counts[0] == n_d_min and sol.n_d_star in counts
        assert all(k < m <= 2 * k for k, m in zip(counts, counts[1:]))
        best = -math.inf
        for (k, p_k, value), m in zip(visits, counts[1:]):
            best = max(best, value)
            skipped = range(k + 1, m) if m - k <= 1000 else (k + 1, m - 1)
            assert all(link.throughput_at(n, p_k, prob) <= best for n in skipped)
        assert max(counts) < 10**7
        if n_d_max == 100:
            assert counts[:2] == [50, 51] and len(counts) < 10

    def test_fewer_visits_on_the_reference_grid(self, monkeypatch):
        # one root (exact) or one closed-form power per visited count
        roots, visits = [], []
        root, score = optimizer.power_for_covertness_exact, optimizer.throughput_at
        monkeypatch.setattr(optimizer, "power_for_covertness_exact",
                            lambda *args: roots.append(args[0]) or root(*args))
        monkeypatch.setattr(optimizer, "throughput_at",
                            lambda n_d, p_d, params: visits.append(n_d) or score(n_d, p_d, params))
        for eps in np.linspace(0.01, 0.2, 20):
            assert solve_p1(problem(epsilon=float(eps))).n_d_star == 50
        assert roots == visits and len(roots) <= 107  # 317 stepping by one count
        visits.clear()
        for eps in np.linspace(0.01, 0.2, 20):
            assert solve_p1_1(problem(epsilon=float(eps))).n_d_star == 50
        assert len(visits) <= 102  # 306 stepping by one count


def seeded_scenarios(count=12, seed=20261019):
    """Random scenarios: uncapped, and capped up to a count in mid-range
    (p_max 2e-3 or 5e-3 with a unit pilot), over ranges of 50..400 counts."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        p_max, p_t = [(1.0, None), (2e-3, 1.0), (5e-3, 1.0)][i % 3]
        n_d_min = int(rng.choice([1, 5, 50]))
        yield problem(epsilon=float(rng.uniform(0.05, 0.5)), p_max=p_max, p_t=p_t,
                      sigma_b2=float(10 ** rng.uniform(-2.5, -1)), n_d_min=n_d_min,
                      n_d_max=n_d_min + int(rng.integers(50, 400)))


SEEDED = list(seeded_scenarios())


class TestSeededScenarios:
    @pytest.mark.parametrize("prob", SEEDED, ids=[f"seeded-{i}" for i in range(len(SEEDED))])
    def test_search_equals_full_enumeration(self, monkeypatch, prob):
        # The closed-form power depends on the count alone, so its search must
        # give the enumeration's bytes.  A warm root may differ from the cold
        # one in its last digits (within the root tolerance, here and one count
        # by one count alike), so the jumps are checked bit for bit with every
        # root cold, and the warm search for its count and to the tolerance.
        assert design(solve_p1_1(prob)) == enumerate_designs(prob, power_for_covertness_suboptimal)
        expected = enumerate_designs(prob)
        warm = design(solve_p1(prob))
        assert warm[0] == expected[0] and warm[3:] == expected[3:]
        assert warm[1:3] == pytest.approx(expected[1:3], rel=2 * solver.TOL)
        cold = optimizer.power_for_covertness_exact
        monkeypatch.setattr(optimizer, "power_for_covertness_exact",
                            lambda n_d, params, top=None: cold(n_d, params))
        assert design(solve_p1(prob)) == expected

    @pytest.mark.parametrize("prob", SEEDED, ids=[f"seeded-{i}" for i in range(len(SEEDED))])
    def test_searched_and_forced_designs_print_the_same_row(self, capsys, prob):
        # The searched design's root is warm and the forced one's cold; they
        # agree far below the 12 printed digits.
        argv = ["optimize", "--method", "exact", "--epsilon-grid", repr(prob.epsilon)]
        for name in ("sigma_b2", "sigma_w2", "rate", "p_max", "n_t", "p_t", "n_d_min", "n_d_max"):
            argv += [f"--{name.replace('_', '-')}", repr(getattr(prob, name))]
        assert main(argv) == 0
        searched = capsys.readouterr().out
        n_d = searched.splitlines()[1].split(",")[3]
        assert main([*argv, "--force-nd", n_d]) == 0
        assert capsys.readouterr().out == searched

    def test_grid_covers_interior_and_capped_then_uncapped_optima(self):
        kinds = set()
        for prob in SEEDED:
            n_d = solve_p1(prob).n_d_star
            capped = [power_for_covertness_exact(n, prob).capped
                      for n in (prob.n_d_min, n_d, prob.n_d_max)]
            kinds.add(("interior" if prob.n_d_min < n_d < prob.n_d_max else "end",
                       "capped-then-uncapped" if capped[0] and not capped[2] else
                       "all-capped" if capped[2] else "uncapped"))
        assert {("interior", "uncapped"), ("interior", "capped-then-uncapped"),
                ("end", "all-capped")} <= kinds


class TestWarmStart:
    """After the first uncapped count, ``solve_p1`` starts each root from the
    last one, bracketed above by it."""

    @staticmethod
    def record(monkeypatch, answer=None):
        calls = []

        def recording(n_d, a):
            calls.append((n_d, a))
            value, slope = csi_average_and_slope(n_d, a)
            return (value, slope) if answer is None else (answer(n_d, a, value), slope)

        monkeypatch.setattr(optimizer, "csi_average_and_slope", recording)
        return calls

    def test_fewer_averages_on_the_reference_grid(self, monkeypatch):
        calls = self.record(monkeypatch)
        for eps in np.linspace(0.01, 0.2, 20):
            prob = problem(epsilon=float(eps))
            start = len(calls)
            assert not solve_p1(prob).power_capped
            # every count is uncapped, so only the first decides the cap
            a_max = math.exp(math.log(prob.p_max)) / SW2
            assert {n for n, a in calls[start:] if a == a_max} == {prob.n_d_min}
        assert len(calls) <= 437  # 992 stepping by one count, 1,567 with a cold root at each

    def test_no_cap_decision_after_the_first_uncapped_count(self, monkeypatch):
        prob = problem(epsilon=0.2, p_max=2e-3, p_t=1.0, n_d_min=1, n_d_max=400)
        calls = self.record(monkeypatch)
        assert solve_p1(prob).n_d_star == 190
        a_max = math.exp(math.log(prob.p_max)) / SW2
        decided = sorted({n for n, a in calls if a == a_max})
        first = decided[-1]
        assert decided == list(range(1, first + 1))
        assert max(n for n, a in calls) > first
        assert power_for_covertness_exact(first - 1, prob).capped
        assert not power_for_covertness_exact(first, prob).capped

    def test_top_end_without_a_positive_gap_falls_back_to_the_cold_bracket(self, monkeypatch):
        # Adjacent roots closer than the tolerance can leave the gap at the
        # last root <= 0 by rounding; here the first average of every count
        # past n_d_min, the one at the warm top end, reads exactly 1 - epsilon.
        prob = problem(epsilon=0.2, n_d_min=1, n_d_max=60)
        expected = enumerate_designs(prob)
        seen = set()

        def first_reads_the_target(n_d, a, value):
            first = n_d not in seen
            seen.add(n_d)
            return 1.0 - prob.epsilon if first and n_d > prob.n_d_min else value

        calls = self.record(monkeypatch, first_reads_the_target)
        assert design(solve_p1(prob)) == expected
        visited = {n for n, _ in calls}
        a_max = math.exp(math.log(prob.p_max)) / SW2
        assert {n for n, a in calls if a == a_max} == visited
        assert max(visited) > prob.n_d_min


class TestSolveP11:
    def test_always_minimum_symbols(self):
        for eps in (0.01, 0.05, 0.2):
            assert solve_p1_1(problem(epsilon=eps)).n_d_star == 50

    def test_minimum_count_exactly_where_the_paper_condition_holds(self):
        # The paper's sign condition compares L(N) with ln A, and L falls with
        # N, so the closed-form throughput is unimodal in n_d: the design is
        # n_d_min where the sign there is <= 0, and otherwise sits where the
        # sign changes.
        assert np.all(np.diff(sign_threshold(np.arange(1, 100_001))) < 0)
        interior = 0
        for eps in (0.01, 0.05, 0.1, 0.2, 0.5, 0.9):
            for sigma_b2 in (1e-3, 1e-2, 1e-1):
                for n_d_min in (1, 10, 50, 200):
                    prob = problem(epsilon=eps, sigma_b2=sigma_b2, n_d_min=n_d_min,
                                   n_d_max=400)
                    sol = solve_p1_1(prob)
                    assert not sol.power_capped
                    sign = lambda n: throughput_derivative_sign(n, prob)
                    if sign(n_d_min) <= 0:
                        assert sol.n_d_star == n_d_min
                    if sign(n_d_min + 1) > 0:
                        assert sol.n_d_star > n_d_min
                    if n_d_min < sol.n_d_star < prob.n_d_max:
                        interior += 1
                        assert sign(sol.n_d_star - 1) > 0 > sign(sol.n_d_star + 1)
        assert interior > 0

    def test_linearized_constraint_inverts_exactly(self):
        # averaged linearized error at the closed-form power equals 1 - eps
        prob = problem(epsilon=0.05)
        sol = solve_p1_1(prob)
        n = 50.0
        slope = math.exp(n * math.log(n) - n - math.lgamma(n)) / SW2
        assert 1.0 - slope * sol.p_d_star == pytest.approx(0.95, abs=1e-12)

    def test_force_nd(self):
        # the same count rule as solve_p1, with the linearized power at that count
        prob = problem(epsilon=0.05)
        sol = solve_p1_1(prob, force_nd=100)
        assert (sol.n_d_star, sol.p_d_star) == (100, power_for_covertness_suboptimal(100, prob).value)
        for bad in (10, 101, 60.7, math.nan):
            with pytest.raises(DomainError, match="force_nd"):
                solve_p1_1(prob, force_nd=bad)

    def test_moderate_throughput_loss(self):
        prob = problem(epsilon=0.05)
        exact = solve_p1(prob)
        sub = solve_p1_1(prob)
        assert 0.7 * exact.throughput <= sub.throughput <= exact.throughput


class TestInvariants:
    def test_exact_power_nondecreasing_in_epsilon(self):
        values = [
            power_for_covertness_exact(50, problem(epsilon=e)).value
            for e in (0.01, 0.02, 0.05, 0.1, 0.2)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_solution_satisfies_constraint(self):
        for eps in (0.02, 0.1):
            prob = problem(epsilon=eps)
            sol = solve_p1(prob)
            achieved = expected_zeta_star_csi(
                WillieParams(sigma_w2=SW2, n_d=sol.n_d_star, p_d=sol.p_d_star)
            )
            assert achieved >= 1.0 - eps - 1e-6

    def test_suboptimal_gap_shrinks_with_epsilon(self):
        gaps = []
        for eps in (0.1, 0.05, 0.01):
            exact = power_for_covertness_exact(50, problem(epsilon=eps)).value
            sub = power_for_covertness_suboptimal(50, problem(epsilon=eps)).value
            assert sub <= exact * (1.0 + 1e-9)
            gaps.append((exact - sub) / exact)
        assert gaps[0] > gaps[1] > gaps[2] >= 0.0
