"""Covert design optimization over the scenario in ``SystemParams``: the data
power P_D and the block length N_D, for the budget ``epsilon``, the power cap
``p_max`` and the bounds ``n_d_min``..``n_d_max``.  The ``p_d`` and ``n_d``
fields of the scenario are ignored; candidates are scored without copies.

Both solvers are one search over the admissible symbol counts in increasing
order, and differ only in the power rule.  A throughput bound from the last
visited count lets the search jump past every count that cannot beat the best
design so far, at most doubling the count per jump, and stop once no larger
count can.  Exact solver: the data power meeting the fading-averaged
covertness constraint with equality (safeguarded Newton in ln P_D, below and
from the last uncapped count's root).  Closed-form
solver: the inverted linearized constraint.  Either solver can be pinned to
one admissible count (``force_nd``).  Either power is capped at ``p_max``, and
a capped design is checked against the fading-averaged constraint.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .detection import csi_average_and_slope, low_power_scale
from .errors import DomainError, NumericError
from .link import throughput_at
from .params import SystemParams, check_value
from .solver import newton_bracket

__all__ = [
    "DesignSolution",
    "CovertPower",
    "power_for_covertness_exact",
    "power_for_covertness_suboptimal",
    "solve_p1",
    "solve_p1_1",
]

_CONSTRAINT_SLACK = 1e-6


@dataclass(frozen=True)
class DesignSolution:
    p_d_star: float
    n_d_star: int
    throughput: float
    power_capped: bool
    constraint_violated: bool = False


class CovertPower(NamedTuple):
    value: float
    capped: bool


def _capped(p_d: float, params: SystemParams) -> CovertPower:
    return CovertPower(value=min(p_d, params.p_max), capped=p_d > params.p_max)


def _avg_error(n_d: int, p_d: float, params: SystemParams) -> float:
    return csi_average_and_slope(n_d, p_d / params.sigma_w2)[0]


def power_for_covertness_exact(n_d: int, params: SystemParams, top: float = None) -> CovertPower:
    """Data power putting the averaged detection error exactly at 1 - epsilon,
    capped at p_max when the uncapped root exceeds it.

    The averaged error is 1 at zero power and strictly decreasing, and it
    lies above its linearization, so the root is bracketed by the closed-form
    power and p_max.  One average at p_max decides the cap; otherwise
    ``solver.newton_bracket`` runs in ln P_D from the closed-form power, on
    the error and its slope, to relative tolerance ``solver.TOL``.  The
    capped case can only make the constraint slack, never violate it.  A
    ``top`` at or above this root (``solve_p1`` passes the last uncapped
    count's) starts Newton there, unless adjacent roots round together."""
    n_d = check_value("n_d", n_d, "counts")
    target = 1.0 - params.epsilon

    def gap(u):  # rises through the root in u = ln P_D, with its slope
        value, slope = csi_average_and_slope(n_d, math.exp(u) / params.sigma_w2)
        return target - value, -slope

    closed_form = power_for_covertness_suboptimal(n_d, params).value
    if closed_form == 0.0:
        raise NumericError(f"the closed-form power underflows to 0 (n_d={n_d})")
    lo = math.log(closed_form)
    if top is not None:
        x = hi = math.log(top)
        start = gap(x)
    if top is None or start[0] <= 0.0:
        hi = math.log(params.p_max)
        if gap(hi)[0] <= 0.0:
            # root lies beyond p_max: cap, constraint still satisfied
            return CovertPower(value=params.p_max, capped=True)
        x, start = lo, gap(lo)
        if start[0] > 0.0:
            raise NumericError(f"the closed-form power overshoots the covertness root (n_d={n_d})")
    return _capped(math.exp(newton_bracket(gap, lo, hi, x, *start)), params)


def power_for_covertness_suboptimal(n_d: int, params: SystemParams) -> CovertPower:
    """Closed-form power from the linearized constraint,
    epsilon * sigma_w2 * Gamma(N) / (N^N e^-N), capped at p_max."""
    return _capped(params.epsilon * params.sigma_w2 * low_power_scale(n_d), params)


def _search(params: SystemParams, candidates, power_rule, warm=False) -> DesignSolution:
    """Throughput-maximizing count in ``candidates`` (a range of step 1) with
    its power from ``power_rule(n_d, params)``; ties break toward fewer symbols.

    Both power rules are nonincreasing in n_d: with CSI the radiometer is the
    likelihood-ratio test, so its averaged error cannot rise with n_d, and the
    closed-form power falls with n_d.  At a fixed power the throughput is
    linear in n_d, so after count k with throughput ``value`` every later
    count m delivers at most value * m / k.  The search stops once that bound
    at the last count cannot beat the best design so far; otherwise it jumps
    to the smallest m whose bound can, but never past 2k: a huge range is
    crossed in doublings, not in one jump to counts where the fading average
    loses its digits.  The last uncapped power ``top`` bounds every later
    one: with ``warm``, ``power_rule(n_d, params, top)`` starts from it.
    """
    best = top = None
    n_d, n_top = candidates[0], candidates[-1]
    while True:
        try:
            power = power_rule(n_d, params) if top is None else power_rule(n_d, params, top)
        except NumericError as exc:
            raise NumericError(f"n_d={n_d}: {exc}") from exc
        top = power.value if warm and not power.capped else None
        value = throughput_at(n_d, power.value, params)
        if best is None or value > best[0]:
            best = (value, n_d, power)
        if value * (n_top / n_d) <= best[0]:
            break
        # counts up to ``reach`` cannot beat the best; the slack covers rounding
        reach = n_d * (best[0] / value) * (1.0 - 1e-12)
        n_d = min(2 * n_d if reach >= 2 * n_d else max(n_d + 1, math.floor(reach) + 1), n_top)

    value, n_d, power = best
    violated = power.capped and (
        _avg_error(n_d, power.value, params) < 1.0 - params.epsilon - _CONSTRAINT_SLACK)
    return DesignSolution(power.value, n_d, value, power.capped, violated)


def _candidates(params: SystemParams, force_nd) -> range:
    """The admissible symbol counts in increasing order, or only ``force_nd``
    (to compare against a deliberately suboptimal blocklength)."""
    if force_nd is None:
        return range(params.n_d_min, params.n_d_max + 1)
    force_nd = check_value("force_nd", force_nd, "counts")
    if not params.n_d_min <= force_nd <= params.n_d_max:
        raise DomainError(f"force_nd={force_nd} outside [{params.n_d_min}, {params.n_d_max}]")
    return range(force_nd, force_nd + 1)


def solve_p1(params: SystemParams, force_nd: int = None) -> DesignSolution:
    """Exact design: ``_search`` over ``_candidates`` with the constraint-equality
    power at each count, warm-started after the first uncapped one."""
    return _search(params, _candidates(params, force_nd), power_for_covertness_exact, warm=True)


def solve_p1_1(params: SystemParams, force_nd: int = None) -> DesignSolution:
    """Closed-form design: the same search with the linearized power.  Under
    it the throughput is unimodal in n_d, so the design is ``n_d_min`` exactly
    where the throughput already falls there (the paper's minimum-count
    result)."""
    return _search(params, _candidates(params, force_nd), power_for_covertness_suboptimal)
