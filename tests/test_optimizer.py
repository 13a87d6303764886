import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import sign_threshold, throughput_derivative_sign
from covertfade.detection import WillieParams, csi_average_and_slope, expected_zeta_star_csi
from covertfade.errors import DomainError, NumericError
from covertfade import detection, link, optimizer, solver
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
        # tracers wrap the module attributes, so the solvers must call through
        # them.  Capped: every throughput is positive, so the throughput bound
        # cannot stop early.  Uncapped (calls None): the wrappers on the root
        # and on the fading average see every root and every average; each
        # root after the first starts from a certificate, but the chosen
        # count's reported root is cold.
        seen, scored, brackets, averages = [], [], [], []
        rooting = []
        original, score = getattr(optimizer, rule), optimizer.throughput_at
        bracket, average = optimizer.newton_bracket, detection._csi_averages

        def counting(n_d, params, *start):
            seen.append(start)
            rooting.append(n_d)
            try:
                return original(n_d, params, *start)
            finally:
                rooting.pop()

        def scoring(n_d, p_d, params):
            scored.append(n_d)
            return score(n_d, p_d, params)

        monkeypatch.setattr(optimizer, rule, counting)
        monkeypatch.setattr(optimizer, "throughput_at", scoring)
        monkeypatch.setattr(optimizer, "newton_bracket",
                            lambda *args: brackets.append(list(rooting)) or bracket(*args))
        monkeypatch.setattr(detection, "_csi_averages",
                            lambda *args, **kw: averages.append(args[0]) or average(*args, **kw))
        if calls:
            solve(problem(epsilon=0.05, p_max=1e-4, n_d_min=50, n_d_max=52, p_t=1.0))
            assert len(seen) == len(scored) == calls
            return
        traced = SearchTrace(monkeypatch)
        sol = solve(problem(epsilon=0.2, n_d_min=1, n_d_max=400))
        assert len(seen) > 2 and seen[0] == () and all(len(start) == 1 for start in seen[1:-1])
        assert seen[-1] == () and sol.n_d_star == 28
        assert len(brackets) == len(seen) and all(len(inside) == 1 for inside in brackets)
        assert len(averages) == len(traced.averages) > len(traced.certificates()) > 0


class SearchTrace:
    """What the exact search does, seen through wrappers on the module names
    it calls: ``optimizer.power_for_covertness_exact`` (the roots, with their
    ``start``), ``optimizer.csi_average_and_slope`` (the averages, each marked
    as inside a root or not) and ``optimizer.throughput_at``.  ``reading``,
    if given, replaces the value of each average taken outside a root."""

    def __init__(self, monkeypatch, reading=None):
        self.roots, self.averages, self.scores, self.depth = [], [], [], 0
        root, average, score = (optimizer.power_for_covertness_exact,
                                optimizer.csi_average_and_slope, optimizer.throughput_at)

        def rooting(n_d, params, *start):
            self.depth += 1
            try:
                power = root(n_d, params, *start)
            finally:
                self.depth -= 1
            self.roots.append((n_d, start, power))
            return power

        def averaging(n_d, a):
            value, slope = average(n_d, a)
            if reading is not None and not self.depth:
                value = reading(n_d, a, value)
            self.averages.append((n_d, a, value, self.depth > 0))
            return value, slope

        def scoring(n_d, p_d, params):
            self.scores.append((n_d, p_d, score(n_d, p_d, params)))
            return self.scores[-1][2]

        monkeypatch.setattr(optimizer, "power_for_covertness_exact", rooting)
        monkeypatch.setattr(optimizer, "csi_average_and_slope", averaging)
        monkeypatch.setattr(optimizer, "throughput_at", scoring)

    def clear(self):
        for calls in (self.roots, self.averages, self.scores):
            calls.clear()

    def certificates(self):
        """(count, a, value) of each average taken outside a root."""
        return [(n_d, a, value) for n_d, a, value, inside in self.averages if not inside]

    def visits(self):
        """(count, power, throughput) of each visited count in order, at its
        root or at the certificate power that ruled it out (the last score of
        its visit); a closing cold root of the chosen count is no visit."""
        rooted = [n_d for n_d, _, _ in self.roots]
        scores = self.scores
        if len(rooted) > 1 and not self.roots[-1][1] and rooted[-1] in rooted[:-1]:
            scores = scores[:-1]
        visits = []
        for n_d, p_d, value in scores:
            if visits and visits[-1][0] == n_d:
                visits[-1] = (n_d, p_d, value)
            else:
                visits.append((n_d, p_d, value))
        return visits


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
        # Visited counts rise, each at most twice the last.  A visited count
        # is rooted, or ruled out at a certificate power P whose average read
        # at most 1 - epsilon (so its root is at most P); every count skipped,
        # visited or jumped over, delivers at most the best so far at the
        # power that ruled it out, and the design is a rooted count.
        trace = SearchTrace(monkeypatch)
        prob = problem(epsilon=epsilon, n_d_min=n_d_min, n_d_max=n_d_max)
        sol = solve(prob)
        visits = trace.visits()
        counts = [n for n, _, _ in visits]
        rooted = {n for n, _, _ in trace.roots} if solve is solve_p1 else set(counts)
        certified = {(n, a): value for n, a, value in trace.certificates()}
        assert counts[0] == n_d_min and sol.n_d_star in rooted
        assert all(k < m <= 2 * k for k, m in zip(counts, counts[1:]))
        best = -math.inf
        for (k, p_k, value), m in zip(visits, counts[1:] + [None]):
            if k not in rooted:
                assert certified[k, p_k / SW2] <= 1.0 - epsilon
                assert value <= best
            best = max(best, value)
            if m is not None:
                skipped = range(k + 1, m) if m - k <= 1000 else (k + 1, m - 1)
                assert all(link.throughput_at(n, p_k, prob) <= best for n in skipped)
        assert max(counts) < 10**7
        if n_d_max == 100:
            assert counts[:2] == [50, 51] and len(counts) < 10
        if solve is solve_p1 and n_d_max == 100:
            assert rooted == {50}

    def test_fewer_visits_on_the_reference_grid(self, monkeypatch):
        # exact: the first count takes the one root, each later visit one
        # certificate average; closed form: one power per visited count
        trace = SearchTrace(monkeypatch)
        visits = roots = 0
        for eps in np.linspace(0.01, 0.2, 20):
            assert solve_p1(problem(epsilon=float(eps))).n_d_star == 50
            visits += len(trace.visits())
            roots += len(trace.roots)
            trace.clear()
        # 107 visits with a root at each: a certificate power just above the
        # root jumps as far as the root
        assert roots == 20 and visits <= 107  # 317 stepping by one count
        monkeypatch.undo()
        scored = []
        score = optimizer.throughput_at
        monkeypatch.setattr(optimizer, "throughput_at",
                            lambda n_d, p_d, params: scored.append(n_d) or score(n_d, p_d, params))
        for eps in np.linspace(0.01, 0.2, 20):
            assert solve_p1_1(problem(epsilon=float(eps))).n_d_star == 50
        assert len(scored) <= 102  # 306 stepping by one count


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
    def test_search_equals_full_enumeration(self, prob):
        # Either reported power depends on the count alone: the closed form,
        # and the exact design's cold root, however the search reached its
        # count.  So where the search picks the enumeration's count (no two
        # throughputs within solver.TOL), it gives the enumeration's bits.
        assert design(solve_p1_1(prob)) == enumerate_designs(prob, power_for_covertness_suboptimal)
        assert design(solve_p1(prob)) == enumerate_designs(prob)

    @pytest.mark.parametrize("prob", SEEDED, ids=[f"seeded-{i}" for i in range(len(SEEDED))])
    def test_searched_and_forced_designs_print_the_same_row(self, capsys, prob):
        # Both designs report the cold root at the chosen count, so the rows
        # are the same bytes.
        argv = ["optimize", "--method", "exact", "--epsilon-grid", repr(prob.epsilon)]
        for name in ("sigma_b2", "sigma_w2", "rate", "p_max", "n_t", "p_t", "n_d_min", "n_d_max"):
            argv += [f"--{name.replace('_', '-')}", repr(getattr(prob, name))]
        assert main(argv) == 0
        searched = capsys.readouterr().out
        n_d = searched.splitlines()[1].split(",")[3]
        assert main([*argv, "--force-nd", n_d]) == 0
        assert capsys.readouterr().out == searched

    def test_search_forced_and_enumerated_designs_agree_bit_for_bit(self):
        # 40 random ranges of up to 150 counts within n_d 1..300, uncapped and
        # capped up to a count in mid-range, with a cold root at every count
        rng = np.random.default_rng(20261020)
        kinds = set()
        for i in range(40):
            p_max = [1.0, 2e-3, 5e-3, float(10 ** rng.uniform(-3.5, -2))][i % 4]
            n_d_min = int(rng.integers(1, 60))
            prob = problem(epsilon=float(rng.uniform(0.01, 0.5)), p_max=p_max, p_t=1.0,
                           sigma_b2=float(10 ** rng.uniform(-3, -1)), n_d_min=n_d_min,
                           n_d_max=int(rng.integers(n_d_min, min(n_d_min + 150, 300) + 1)))
            searched = design(solve_p1(prob))
            assert design(solve_p1(prob, force_nd=searched[0])) == searched
            assert enumerate_designs(prob) == searched
            kinds.add(power_for_covertness_exact(prob.n_d_min, prob).capped)
        assert kinds == {False, True}

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
    """After the first uncapped count, ``solve_p1`` takes one average at a
    certificate power before it roots a count: a reading of at most
    1 - epsilon with a losing throughput bound rules the count out, and any
    other count is rooted from that power, with that average in hand.  The
    certificate power extrapolates the ratio of the exact to the closed-form
    power from the last root and a Newton step at the last certificate."""

    @staticmethod
    def record(monkeypatch):
        calls = []

        def recording(n_d, a):
            calls.append((n_d, a))
            return csi_average_and_slope(n_d, a)

        monkeypatch.setattr(optimizer, "csi_average_and_slope", recording)
        return calls

    def test_fewer_averages_on_the_reference_grid(self, monkeypatch):
        calls = self.record(monkeypatch)
        roots, root = [], optimizer.power_for_covertness_exact
        monkeypatch.setattr(optimizer, "power_for_covertness_exact",
                            lambda *args: roots.append(args[0]) or root(*args))
        for eps in np.linspace(0.01, 0.2, 20):
            prob = problem(epsilon=float(eps))
            start = len(calls)
            assert not solve_p1(prob).power_capped
            # every count is uncapped, so only the first decides the cap
            a_max = math.exp(math.log(prob.p_max)) / SW2
            assert {n for n, a in calls[start:] if a == a_max} == {prob.n_d_min}
        # 437 averages and 107 roots with a root at each visited count
        assert len(calls) <= 190 and len(roots) <= 20

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

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2])
    def test_certificate_reading_exactly_the_target_rules_its_count_out(self, monkeypatch, eps):
        # A reading of exactly 1 - epsilon at P still proves the root at most
        # P (it is P), so every count past n_d_min is ruled out by its bound
        # without a root, and the design is the enumeration's.
        prob = problem(epsilon=eps)
        expected = enumerate_designs(prob)
        trace = SearchTrace(monkeypatch, reading=lambda n_d, a, value: 1.0 - eps)
        assert design(solve_p1(prob)) == expected
        certificates = trace.certificates()
        assert len(certificates) > 1 and {v for _, _, v in certificates} == {1.0 - eps}
        assert [n for n, _, _ in trace.roots] == [prob.n_d_min]

    def test_certificate_reading_above_the_target_roots_its_count(self, monkeypatch):
        # A reading above 1 - epsilon proves nothing, so every visited count
        # is rooted (from P, on [P, p_max] after the cap decision), and the
        # design is still the enumeration's.
        prob = problem(epsilon=0.05)
        expected = enumerate_designs(prob)
        trace = SearchTrace(monkeypatch, reading=lambda n_d, a, value: 0.975)
        assert design(solve_p1(prob)) == expected
        rooted = [n for n, start, _ in trace.roots if start]
        assert len(rooted) > 1 and rooted == [n for n, _, _ in trace.visits()[1:]]

    def test_started_root_matches_the_cold_one(self, monkeypatch):
        # From a P above or below the root, the started root takes no second
        # average at P and lands within the tolerance of the cold root; from
        # below it decides the cap first, as the cold root does.
        prob = problem(epsilon=0.2, n_d_min=1, n_d_max=400)
        for n_d in (1, 28, 400):
            cold = power_for_covertness_exact(n_d, prob).value
            for p in (cold * 1.3, cold / 1.3):
                start = (p, *csi_average_and_slope(n_d, p / SW2))
                calls = self.record(monkeypatch)
                power = power_for_covertness_exact(n_d, prob, start)
                assert power.value == pytest.approx(cold, rel=2 * solver.TOL)
                assert not power.capped and p / SW2 not in {a for _, a in calls}
                a_max = math.exp(math.log(prob.p_max)) / SW2
                assert (a_max in {a for _, a in calls}) == (p < cold)
                monkeypatch.undo()
        start = (1e-3, *csi_average_and_slope(1, 1e-3 / SW2))
        assert power_for_covertness_exact(1, problem(epsilon=0.2, p_max=2e-3), start) == (
            optimizer.CovertPower(2e-3, True))

    def test_certificate_powers_land_just_above_the_roots(self, monkeypatch):
        # On the reference grid every certificate reads at most 1 - epsilon,
        # at a power less than 1e-3 above its count's root.
        trace = SearchTrace(monkeypatch)
        certificates = []
        for eps in np.linspace(0.01, 0.2, 20):
            prob = problem(epsilon=float(eps))
            solve_p1(prob)
            certificates += [(prob, n_d, a * SW2, value) for n_d, a, value in trace.certificates()]
            trace.clear()
        monkeypatch.undo()
        assert len(certificates) == 87
        for prob, n_d, p, value in certificates:
            assert value <= 1.0 - prob.epsilon
            assert 1.0 <= p / power_for_covertness_exact(n_d, prob).value < 1.0 + 1e-3

    def test_certificate_ratio(self):
        # No certificate since the root, counts too close to tell apart, or a
        # rising ratio: the last ratio, raised by 1e-4.  A falling ratio is
        # extrapolated linearly in n_d^(-1/2) on the log scale.
        lift = 1.0 + 1e-4
        ratio = optimizer._certificate_ratio
        assert ratio((50, 0.5), (50, 0.5), 60) == 0.5 * lift
        assert ratio((10**17, 0.5), (10**17 + 1, 0.4), 10**17 + 2) == 0.4 * lift
        assert ratio((50, 0.5), (51, 0.6), 60) == 0.6 * lift
        extrapolated = ratio((50, 0.5), (51, 0.499), 60) / lift
        t = (51 ** -0.5 - 60 ** -0.5) / (50 ** -0.5 - 51 ** -0.5)
        assert extrapolated == pytest.approx(0.499 * (0.499 / 0.5) ** t, rel=1e-14)
        assert extrapolated < 0.499


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
