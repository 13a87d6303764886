"""Covert design optimization over the scenario in ``SystemParams``: the data
power P_D and the block length N_D, for the budget ``epsilon``, the power cap
``p_max`` and the bounds ``n_d_min``..``n_d_max``.  The ``p_d`` and ``n_d``
fields of the scenario are ignored; candidate designs are evaluated on copies.

Both solvers are one search over the admissible symbol counts in increasing
order, stopped once a throughput bound proves that no larger count can do
better, and differ only in the power rule.  Exact solver: the data power
meeting the fading-averaged covertness constraint with equality (safeguarded
Newton in ln P_D from the closed-form power toward p_max).  Closed-form
solver: the inverted linearized constraint.  Either solver can be pinned to
one admissible count (``force_nd``).  Either power is capped at ``p_max``, and
a capped design is checked against the fading-averaged constraint.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .detection import (WillieParams, expected_zeta_star_csi, expected_zeta_star_csi_and_slope,
                        low_power_scale)
from .errors import DomainError, NumericError
from .link import throughput
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

_CONSTRAINT_RTOL = 1e-8
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
    return expected_zeta_star_csi(WillieParams(sigma_w2=params.sigma_w2, n_d=n_d, p_d=p_d))


def power_for_covertness_exact(n_d: int, params: SystemParams) -> CovertPower:
    """Data power putting the averaged detection error exactly at 1 - epsilon,
    capped at p_max when the uncapped root exceeds it.

    The averaged error is 1 at zero power and strictly decreasing, and it
    lies above its linearization, so the root is bracketed by the closed-form
    power and p_max.  One average at p_max decides the cap; otherwise
    ``solver.newton_bracket`` runs in ln P_D from the closed-form power, on
    the error and its slope, to relative tolerance _CONSTRAINT_RTOL.  The
    capped case can only make the constraint slack, never violate it.
    """
    target = 1.0 - params.epsilon

    def gap(u):  # rises through the root in u = ln P_D, with its slope
        value, slope = expected_zeta_star_csi_and_slope(
            WillieParams(sigma_w2=params.sigma_w2, n_d=n_d, p_d=math.exp(u)))
        return target - value, -slope

    lo = math.log(power_for_covertness_suboptimal(n_d, params).value)
    hi = math.log(params.p_max)
    if gap(hi)[0] <= 0.0:
        # root lies beyond p_max: cap, constraint still satisfied
        return CovertPower(value=params.p_max, capped=True)
    start = gap(lo)
    if start[0] > 0.0:
        raise NumericError(f"the closed-form power overshoots the covertness root (n_d={n_d})")
    return _capped(math.exp(newton_bracket(gap, lo, hi, lo, *start, _CONSTRAINT_RTOL)), params)


def power_for_covertness_suboptimal(n_d: int, params: SystemParams) -> CovertPower:
    """Closed-form power from the linearized constraint,
    epsilon * sigma_w2 * Gamma(N) / (N^N e^-N), capped at p_max."""
    return _capped(params.epsilon * params.sigma_w2 * low_power_scale(n_d), params)


def _throughput_at(n_d: int, p_d: float, params: SystemParams) -> float:
    return throughput(replace(params, p_d=p_d, n_d=n_d))


def _search(params: SystemParams, candidates, power_rule) -> DesignSolution:
    """Throughput-maximizing count in ``candidates`` (increasing) with its
    power from ``power_rule(n_d, params)``; ties break toward fewer symbols.

    Both power rules are nonincreasing in n_d: with CSI the radiometer is the
    likelihood-ratio test, so its averaged error cannot rise with n_d, and the
    closed-form power falls with n_d.  Every later count therefore delivers
    at most the last count's throughput at the current power, which is this
    count's throughput times n_top / n_d (at a fixed power the throughput is
    linear in n_d), and the search stops once that bound cannot beat the best
    design so far.
    """
    best = None
    n_top = candidates[-1]
    for n_d in candidates:
        try:
            power = power_rule(n_d, params)
        except NumericError as exc:
            raise NumericError(f"n_d={n_d}: {exc}") from exc
        value = _throughput_at(n_d, power.value, params)
        if best is None or value > best[0]:
            best = (value, n_d, power)
        if value * (n_top / n_d) <= best[0]:
            break

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
    """Exact design: ``_search`` over ``_candidates`` with the
    constraint-equality power at each count."""
    return _search(params, _candidates(params, force_nd), power_for_covertness_exact)


def solve_p1_1(params: SystemParams, force_nd: int = None) -> DesignSolution:
    """Closed-form design: the same search with the linearized power.  Under
    it the throughput is unimodal in n_d, so the design is ``n_d_min`` exactly
    where the throughput already falls there (the paper's minimum-count
    result)."""
    return _search(params, _candidates(params, force_nd), power_for_covertness_suboptimal)
