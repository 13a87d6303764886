"""The benchmark's workloads: inputs generated from a seed, and their checks.

Each workload's inputs are stratified over its range (one draw per stratum,
visited in bit-reversed order) so that the mix of cheap and expensive inputs
in a run barely depends on the seed or on where the time limit cuts the loop.
"""

import functools
from typing import Callable, NamedTuple

import numpy as np

import oracle

# The reference scenario, passed on every command line so the workloads do
# not depend on the CLI's defaults.
SCENARIO = dict(sigma_b2=0.01, sigma_w2=0.05, rate=1.0, p_max=1.0, n_t=1, p_t=1.0,
                n_d_min=50, n_d_max=100)
SWEEP_P_D = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
MC_TRIALS, MC_N_D, MC_P_D = 100_000, 75, 0.02


def _flags(*names):
    out = []
    for name in names:
        out += [f"--{name.replace('_', '-')}", repr(SCENARIO[name])]
    return out


def _spread_order(k):
    """0..k-1 in bit-reversed order, so every prefix covers the range evenly."""
    bits = max(1, (k - 1).bit_length())
    return sorted(range(k), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))


def _strata(rng, lo, hi, k):
    """One uniform draw from each of k equal strata of [lo, hi], spread-ordered."""
    u = rng.random(k)
    return [lo + (hi - lo) * (i + u[i]) / k for i in _spread_order(k)]


class Op(NamedTuple):
    argv: list
    check: Callable[[str], list]


def design_inputs(rng):
    ops = []
    for eps in _strata(rng, 0.01, 0.2, 4):
        eps = float(f"{eps:.6f}")
        argv = ["optimize", "--method", "both", "--epsilon-grid", repr(eps),
                *_flags("sigma_b2", "sigma_w2", "rate", "p_max", "n_t", "p_t",
                        "n_d_min", "n_d_max")]
        ops.append(Op(argv, functools.partial(oracle.check_design, epsilon=eps, scn=SCENARIO)))
    return ops


def sweep_inputs(rng):
    ops = []
    grid = ",".join(repr(p) for p in SWEEP_P_D)
    for x in _strata(rng, 10, 201, 16):
        n_d = int(x)
        argv = ["detect-sweep", "--mode", "both", "--n-d-list", str(n_d),
                "--p-d-grid", grid, *_flags("sigma_w2")]
        ops.append(Op(argv, functools.partial(oracle.check_sweep, n_d=n_d,
                                              p_d_grid=SWEEP_P_D, scn=SCENARIO)))
    return ops


def montecarlo_inputs(rng):
    # Seeds come from this workload's own generator, spread over 62 bits;
    # consecutive integers would share RNG streams (key = seed + stream).
    seeds = [int(s) for s in rng.integers(0, 2**62, size=4)]
    ops = []
    for seed in seeds:
        argv = ["simulate", "--trials", str(MC_TRIALS), "--n-d", str(MC_N_D),
                "--p-d", repr(MC_P_D), "--policy", "csi_optimal", "--seed", str(seed),
                *_flags("sigma_b2", "sigma_w2", "rate", "p_max", "n_t", "p_t")]
        ops.append(Op(argv, functools.partial(oracle.check_montecarlo, trials=MC_TRIALS,
                                              n_d=MC_N_D, p_d=MC_P_D, scn=SCENARIO)))
    return ops


class Workload(NamedTuple):
    why: str
    inputs: Callable[[np.random.Generator], list]
    kernel: str  # the calib kernel whose work is like this workload's


WORKLOADS = {
    "design": Workload(
        "optimize at one epsilon: optimizer root-finding over n_d on fading averages"
        " of special functions; no simulation",
        design_inputs, "interp"),
    "montecarlo": Workload(
        "simulate at 1e5 trials: sample-level Monte Carlo, nearly all time in the"
        " simulator and the memory peak",
        montecarlo_inputs, "numpy"),
    "sweep": Workload(
        "detect-sweep at one n_d up to p_d=1: CDI threshold minimizer and sharply"
        " turning fading averages; no optimizer",
        sweep_inputs, "interp"),
}


def inputs(name, seed):
    return WORKLOADS[name].inputs(np.random.default_rng(seed))
