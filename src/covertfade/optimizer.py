"""Covert design optimization.

Exact solver: for each admissible number of data symbols, find the data power
meeting the fading-averaged covertness constraint with equality (bisection on
a strictly decreasing function) and pick the throughput-maximizing count.
Closed-form solver: invert the linearized constraint, which pins the symbol
count at its lower bound.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from scipy import optimize

from .detection import WillieParams, expected_zeta_star_csi
from .errors import DomainError, NumericError
from .link import LinkParams, estimation_model, throughput
from .params import check_fields
from .special import ln_gamma

__all__ = [
    "DesignProblem",
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
class DesignProblem:
    epsilon: float
    p_max: float
    n_d_min: int
    n_d_max: int
    link: LinkParams
    sigma_w2: float

    def __post_init__(self):
        check_fields(
            self,
            positive=("p_max", "sigma_w2"),
            counts=("n_d_min", "n_d_max"),
            fractions=("epsilon",),
        )
        if self.n_d_min > self.n_d_max:
            raise DomainError("need n_d_min <= n_d_max")


@dataclass(frozen=True)
class DesignSolution:
    p_d_star: float
    n_d_star: int
    throughput: float
    power_capped: bool
    n_d_boundary: str  # "min" | "interior" | "max"
    constraint_violated: bool = False


class CovertPower(NamedTuple):
    value: float
    capped: bool


def power_for_covertness_exact(n_d: int, prob: DesignProblem) -> CovertPower:
    """Data power putting the averaged detection error exactly at 1 - epsilon,
    capped at p_max when the uncapped root exceeds it.

    The averaged error is 1 at zero power and strictly decreasing, so the
    capped case can only make the constraint slack, never violate it.
    """
    target = 1.0 - prob.epsilon

    def gap(p_d):
        w = WillieParams(sigma_w2=prob.sigma_w2, n_d=n_d, p_d=p_d)
        return expected_zeta_star_csi(w) - target

    hi = prob.sigma_w2
    for _ in range(80):
        if gap(hi) < 0.0:
            break
        if hi >= prob.p_max:
            # root lies beyond p_max: cap, constraint still satisfied
            return CovertPower(value=prob.p_max, capped=True)
        hi = min(2.0 * hi, prob.p_max)
    else:
        raise NumericError(f"could not bracket the covertness root (n_d={n_d})")

    root = optimize.brentq(gap, 0.0, hi, rtol=_CONSTRAINT_RTOL, maxiter=200)
    if root > prob.p_max:
        return CovertPower(value=prob.p_max, capped=True)
    return CovertPower(value=root, capped=False)


def power_for_covertness_suboptimal(n_d: int, prob: DesignProblem) -> CovertPower:
    """Closed-form power from the linearized constraint,
    epsilon * sigma_w2 * Gamma(N) / (N^N e^-N), capped at p_max."""
    n = float(n_d)
    p = prob.epsilon * prob.sigma_w2 * math.exp(ln_gamma(n) - n * math.log(n) + n)
    if p > prob.p_max:
        return CovertPower(value=prob.p_max, capped=True)
    return CovertPower(value=p, capped=False)


def _throughput_at(n_d: int, p_d: float, prob: DesignProblem) -> float:
    link = LinkParams(
        sigma_b2=prob.link.sigma_b2,
        rate=prob.link.rate,
        n_t=prob.link.n_t,
        p_t=prob.link.p_t,
        p_d=p_d,
        n_d=n_d,
    )
    return throughput(n_d, link, estimation_model(link))


def _constraint_violated(n_d: int, p_d: float, prob: DesignProblem) -> bool:
    w = WillieParams(sigma_w2=prob.sigma_w2, n_d=n_d, p_d=p_d)
    return expected_zeta_star_csi(w) < 1.0 - prob.epsilon - _CONSTRAINT_SLACK


def _boundary_label(n_d: int, prob: DesignProblem) -> str:
    if n_d <= prob.n_d_min:
        return "min"
    if n_d >= prob.n_d_max:
        return "max"
    return "interior"


def solve_p1(prob: DesignProblem, force_nd: int = None) -> DesignSolution:
    """Exhaustive search over the admissible symbol counts with the exact
    constraint-equality power at each; ties break toward fewer symbols.

    ``force_nd`` restricts the search to a single count (used for comparing
    against deliberately suboptimal blocklengths).
    """
    if force_nd is not None:
        force_nd = int(force_nd)
        if not prob.n_d_min <= force_nd <= prob.n_d_max:
            raise DomainError(
                f"force_nd={force_nd} outside [{prob.n_d_min}, {prob.n_d_max}]"
            )
        candidates = [force_nd]
    else:
        candidates = range(prob.n_d_min, prob.n_d_max + 1)

    best = None
    for n_d in candidates:
        try:
            power = power_for_covertness_exact(n_d, prob)
        except NumericError as exc:
            raise NumericError(f"n_d={n_d}: {exc}") from exc
        value = _throughput_at(n_d, power.value, prob)
        if best is None or value > best[0]:
            best = (value, n_d, power)

    value, n_d, power = best
    return DesignSolution(
        p_d_star=power.value,
        n_d_star=n_d,
        throughput=value,
        power_capped=power.capped,
        n_d_boundary=_boundary_label(n_d, prob),
        constraint_violated=power.capped
        and _constraint_violated(n_d, power.value, prob),
    )


def solve_p1_1(prob: DesignProblem) -> DesignSolution:
    """Closed-form design: minimum symbol count with the linearized power."""
    n_d = prob.n_d_min
    power = power_for_covertness_suboptimal(n_d, prob)
    return DesignSolution(
        p_d_star=power.value,
        n_d_star=n_d,
        throughput=_throughput_at(n_d, power.value, prob),
        power_capped=power.capped,
        n_d_boundary="min",
        constraint_violated=power.capped
        and _constraint_violated(n_d, power.value, prob),
    )
