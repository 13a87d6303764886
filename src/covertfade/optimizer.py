"""Covert design optimization over the scenario in ``SystemParams``: the data
power P_D and the block length N_D, for the budget ``epsilon``, the power cap
``p_max`` and the bounds ``n_d_min``..``n_d_max``.  The ``p_d`` and ``n_d``
fields of the scenario are ignored; candidates are scored without copies.

Both solvers are one search over the admissible symbol counts in increasing
order, and differ only in the power rule.  A throughput bound from the last
visited count lets the search jump past every count that cannot beat the best
design so far, at most doubling the count per jump, and stop once no larger
count can.  Exact solver: the data power meeting the fading-averaged
covertness constraint with equality (safeguarded Newton in ln P_D).  After the
first uncapped root, one fading average at a certificate power P, predicted
just above the root, bounds a count's root by P, so a count that cannot win
even at P takes no root, and any other is rooted from P; the chosen count
reports its cold root.  Closed-form solver: the inverted linearized
constraint.  Either solver can be pinned to one
admissible count (``force_nd``).  Either power is capped at ``p_max``, and
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


def power_for_covertness_exact(n_d: int, params: SystemParams, start=None) -> CovertPower:
    """Data power putting the averaged detection error exactly at 1 - epsilon,
    capped at p_max when the uncapped root exceeds it.

    The averaged error is 1 at zero power and strictly decreasing, and it
    lies above its linearization, so the root is bracketed by the closed-form
    power and p_max.  One average at p_max decides the cap; otherwise
    ``solver.newton_bracket`` runs in ln P_D from the closed-form power, on
    the error and its slope, to relative tolerance ``solver.TOL``.  The
    capped case can only make the constraint slack, never violate it.  A
    ``start`` (P, E[zeta*](P), its slope in ln P), an average already taken
    (``solve_p1`` passes its certificate), starts Newton at P instead: on
    [closed form, P] where that average is at most 1 - epsilon, else on
    [P, p_max] after the cap decision.  Without ``start`` the root depends on
    the count alone; with it, on P too, within the tolerance."""
    n_d = check_value("n_d", n_d, "counts")
    target = 1.0 - params.epsilon

    def gap(u):  # rises through the root in u = ln P_D, with its slope
        value, slope = csi_average_and_slope(n_d, math.exp(u) / params.sigma_w2)
        return target - value, -slope

    closed_form = power_for_covertness_suboptimal(n_d, params).value
    if closed_form == 0.0:
        raise NumericError(f"the closed-form power underflows to 0 (n_d={n_d})")
    lo, hi = math.log(closed_form), math.log(params.p_max)
    if start is not None:
        x, here = math.log(start[0]), (target - start[1], -start[2])
    if (start is None or here[0] < 0.0) and gap(hi)[0] <= 0.0:
        # root lies beyond p_max: cap, constraint still satisfied
        return CovertPower(value=params.p_max, capped=True)
    if start is None:
        x, here = lo, gap(lo)
        if here[0] > 0.0:
            raise NumericError(f"the closed-form power overshoots the covertness root (n_d={n_d})")
    elif here[0] < 0.0:
        lo = x
    else:
        hi = x
    return _capped(math.exp(newton_bracket(gap, lo, hi, x, *here)), params)


def power_for_covertness_suboptimal(n_d: int, params: SystemParams) -> CovertPower:
    """Closed-form power from the linearized constraint,
    epsilon * sigma_w2 * Gamma(N) / (N^N e^-N), capped at p_max."""
    return _capped(params.epsilon * params.sigma_w2 * low_power_scale(n_d), params)


def _named(n_d, fn, *args):
    """``fn(*args)``, with a NumericError naming the count ``n_d``."""
    try:
        return fn(*args)
    except NumericError as exc:
        raise NumericError(f"n_d={n_d}: {exc}") from exc


def _certificate_ratio(rooted, estimated, n_d):
    """Predicted ratio of the exact to the closed-form power at ``n_d``, from
    (count, ratio) at the last uncapped root and at the last certificate.  The
    ratio falls as n_d grows, its logarithm close to linear in n_d^(-1/2), so
    that logarithm is extrapolated linearly in n_d^(-1/2) through both (a
    rising ratio is not), and the prediction is raised by 1e-4 to land just
    above the root."""
    (k, r_k), (m, r_m) = rooted, estimated
    run = k ** -0.5 - m ** -0.5  # 0 with no certificate since the root
    fall = math.log(r_m / r_k) * (m ** -0.5 - n_d ** -0.5) / run if run > 0.0 else 0.0
    return r_m * math.exp(min(fall, 0.0)) * (1.0 + 1e-4)


def _search(params: SystemParams, candidates, power_rule, certify=False) -> DesignSolution:
    """Throughput-maximizing count in ``candidates`` (a range of step 1) with
    its power from ``power_rule(n_d, params)``; ties break toward fewer symbols.

    Both power rules are nonincreasing in n_d: with CSI the radiometer is the
    likelihood-ratio test, so its averaged error cannot rise with n_d, and the
    closed-form power falls with n_d.  At a fixed power the throughput is
    linear in n_d, so a count k whose power is at most p, with throughput
    ``value`` at p, bounds every later count m by value * m / k.  The search
    stops once that bound at the last count cannot beat the best design so
    far; otherwise it jumps to the smallest m whose bound can, but never past
    2k: a huge range is crossed in doublings, not in one jump to counts where
    the fading average loses its digits.

    With ``certify`` (the exact rule), each count after an uncapped root
    first takes one fading average at a certificate power P.  The average
    falls strictly in the power, so a reading of at most 1 - epsilon proves
    that the count's root is at most P, and the count is skipped where its
    throughput at P cannot beat the best; that bound then steers the jump.
    Any other count is rooted by ``power_rule(n_d, params, start)`` from P
    with its average in hand.  P is the closed-form power times a predicted
    ratio (``_certificate_ratio``) from the last root and from a Newton step
    at the last certificate; the prediction only places P, the reading
    certifies it.  The chosen count reports its cold root, so its power does
    not depend on the path that reached it; the choice between counts
    compares roots good to ``solver.TOL``.
    """
    target = 1.0 - params.epsilon
    floor = params.epsilon * params.sigma_w2  # the closed form's ratio, below every root's
    best, rooted, estimated = (-math.inf,), None, None
    n_d, n_top = candidates[0], candidates[-1]
    while True:
        # value: the throughput at n_d, or its bound at a certified P; start:
        # () or the certificate (P, its average, slope) to root from
        value, start = math.inf, ()
        if rooted is not None:
            scale = low_power_scale(n_d)
            p = max(_certificate_ratio(rooted, estimated, n_d), floor) * scale
            error, slope = _named(n_d, csi_average_and_slope, n_d, p / params.sigma_w2)
            start = ((p, error, slope),)
            if error <= target:  # the root at n_d is at most p
                value = throughput_at(n_d, p, params)
                if slope < 0.0:  # a Newton step in ln P_D estimates the root
                    step = math.exp((target - error) / slope)
                    estimated = n_d, max(p * step / scale, floor)
        if value > best[0] * (1.0 - 1e-12):  # with the jump's slack
            power = _named(n_d, power_rule, n_d, params, *start)
            value = throughput_at(n_d, power.value, params)
            if certify:  # ratio to the closed form at the last uncapped root
                ratio = None if power.capped else (n_d, power.value / low_power_scale(n_d))
                rooted = estimated = ratio
            if value > best[0]:
                best = (value, n_d, power, start)
        if value * (n_top / n_d) <= best[0]:
            break
        # counts up to ``reach`` cannot beat the best; the slack covers rounding
        reach = n_d * (best[0] / value) * (1.0 - 1e-12)
        n_d = min(2 * n_d if reach >= 2 * n_d else max(n_d + 1, math.floor(reach) + 1), n_top)

    value, n_d, power, start = best
    if start:  # rooted from a certificate: report the cold root
        power = _named(n_d, power_rule, n_d, params)
        value = throughput_at(n_d, power.value, params)
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
    power at each count it cannot rule out, certified after the first
    uncapped one."""
    return _search(params, _candidates(params, force_nd), power_for_covertness_exact, certify=True)


def solve_p1_1(params: SystemParams, force_nd: int = None) -> DesignSolution:
    """Closed-form design: the same search with the linearized power.  Under
    it the throughput is unimodal in n_d, so the design is ``n_d_min`` exactly
    where the throughput already falls there (the paper's minimum-count
    result)."""
    return _search(params, _candidates(params, force_nd), power_for_covertness_suboptimal)
