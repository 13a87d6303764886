"""Monte Carlo slot simulator.

Serves as the independent oracle for the closed forms: fading and noise are
drawn at the sample level, the channel estimate is formed from simulated pilot
observations (so the LMMSE formula itself is exercised), the adversary's
radiometer decides from the realized average power, and outage is declared
from the realized estimate/error decomposition.

All slot physics lives in ``simulate_slots``; ``simulate_slot`` is its
one-slot view with the threshold decision attached.  ``analytic_detection``
gives the closed-form counterpart of each threshold policy.

Randomness comes from numpy's counter-based Philox generator keyed by an
explicit 64-bit seed; batch estimators consume one deterministic stream per
hypothesis, so identical (params, config) pairs reproduce identical results.
Complex Gaussian CN(0, s) is drawn as two independent real normals of
variance s/2.
"""

import csv
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import detection
from .errors import DomainError
from .params import SystemParams, check_fields

__all__ = [
    "SlotTrace",
    "McConfig",
    "DetectionEstimate",
    "PccEstimate",
    "simulate_slot",
    "simulate_slots",
    "estimate_detection",
    "estimate_pcc",
    "analytic_detection",
    "write_trace_csv",
]

_POLICIES = ("csi_optimal", "cdi_exact", "cdi_approx", "fixed")
_CHUNK_SAMPLES = 1 << 22  # data samples per vectorized chunk


@dataclass(frozen=True)
class SlotTrace:
    hypothesis: str  # "H0" | "H1"
    h_b: complex
    h_w: complex
    h_b_hat: complex
    h_b_tilde: complex
    statistic: float
    threshold: float
    decision: str  # "H0" | "H1"
    outage: Optional[bool]  # None on H0 slots


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int
    threshold_policy: str = "csi_optimal"
    fixed_threshold: Optional[float] = None

    def __post_init__(self):
        check_fields(self, counts=("trials",))
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**64):
            raise DomainError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.threshold_policy not in _POLICIES:
            raise DomainError(
                f"threshold_policy must be one of {_POLICIES}, "
                f"got {self.threshold_policy!r}"
            )
        if self.threshold_policy == "fixed":
            check_fields(self, positive=("fixed_threshold",))


class DetectionEstimate(NamedTuple):
    p_fa: float
    p_md: float
    zeta: float
    se_fa: float
    se_md: float
    se_zeta: float


class PccEstimate(NamedTuple):
    p_cc: float
    se: float


def _cn(rng, size, var):
    scale = math.sqrt(var / 2.0)
    return rng.normal(0.0, scale, size) + 1j * rng.normal(0.0, scale, size)


def _rng(seed, stream):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) + np.uint64(stream)))


def _scalar_threshold(params: SystemParams, mc: Optional[McConfig]):
    """Threshold for gain-independent policies; None means per-slot CSI."""
    policy = mc.threshold_policy if mc is not None else "csi_optimal"
    if policy == "fixed":
        return mc.fixed_threshold
    if policy == "cdi_approx":
        return detection.threshold_cdi_approx(params.sigma_w2)
    if policy == "cdi_exact":
        w = detection.WillieParams(
            sigma_w2=params.sigma_w2, n_d=params.n_d, p_d=params.p_d
        )
        return detection.threshold_cdi_exact(w)
    return None


def _thresholds(params: SystemParams, lam, h_w):
    """The policy's scalar threshold, or per-slot CSI thresholds from h_w."""
    if lam is not None:
        return lam
    return detection.csi_threshold(np.abs(h_w) ** 2 * params.p_d, params.sigma_w2)


def simulate_slot(params: SystemParams, hypothesis: str,
                  rng: np.random.Generator, mc: Optional[McConfig] = None) -> SlotTrace:
    """Simulate one slot end to end and return its full trace.

    A one-slot ``simulate_slots`` batch, so a freshly seeded generator
    reproduces the trace exactly.
    """
    batch = simulate_slots(params, hypothesis, 1, rng)
    first = {key: value[0] for key, value in batch.items()}
    statistic = float(first["statistic"])
    lam = float(_thresholds(params, _scalar_threshold(params, mc), first["h_w"]))
    return SlotTrace(
        hypothesis=hypothesis,
        h_b=complex(first["h_b"]),
        h_w=complex(first["h_w"]),
        h_b_hat=complex(first["h_b_hat"]),
        h_b_tilde=complex(first["h_b_tilde"]),
        statistic=statistic,
        threshold=lam,
        decision="H1" if statistic > lam else "H0",
        outage=bool(first["outage"]) if "outage" in first else None,
    )


def simulate_slots(params: SystemParams, hypothesis: str, n_slots: int,
                   rng: np.random.Generator) -> dict:
    """Vectorized slot batch; returns arrays keyed like the trace fields."""
    if hypothesis not in ("H0", "H1"):
        raise DomainError("hypothesis must be 'H0' or 'H1'")
    if n_slots < 1:
        raise DomainError("n_slots must be >= 1")

    h_b = _cn(rng, n_slots, 1.0)
    h_w = _cn(rng, n_slots, 1.0)

    n_b = _cn(rng, (n_slots, params.n_t), params.sigma_b2)
    y_t = math.sqrt(params.p_t) * h_b[:, None] + n_b
    h_hat = (
        math.sqrt(params.p_t) / (params.sigma_b2 + params.n_t * params.p_t)
        * y_t.sum(axis=1)
    )
    h_tilde = h_b - h_hat

    statistic = np.empty(n_slots)
    chunk = max(1, _CHUNK_SAMPLES // params.n_d)
    transmit = hypothesis == "H1" and params.p_d > 0
    for start in range(0, n_slots, chunk):
        stop = min(start + chunk, n_slots)
        noise = _cn(rng, (stop - start, params.n_d), params.sigma_w2)
        if transmit:
            x_d = _cn(rng, (stop - start, params.n_d), 1.0)
            y_w = math.sqrt(params.p_d) * h_w[start:stop, None] * x_d + noise
        else:
            y_w = noise
        statistic[start:stop] = np.mean(np.abs(y_w) ** 2, axis=1)

    out = {
        "h_b": h_b,
        "h_w": h_w,
        "h_b_hat": h_hat,
        "h_b_tilde": h_tilde,
        "statistic": statistic,
    }
    if hypothesis == "H1":
        snr = (
            np.abs(h_hat) ** 2 * params.p_d
            / (np.abs(h_tilde) ** 2 * params.p_d + params.sigma_b2)
        )
        out["outage"] = np.log2(1.0 + snr) <= params.rate
    return out


def _binomial_se(p_hat, n):
    if n < 1 or not math.isfinite(p_hat):
        return float("nan")
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def estimate_detection(params: SystemParams, mc: McConfig) -> DetectionEstimate:
    """Empirical false-alarm / missed-detection / total error rates with
    binomial standard errors; half the trials run under each hypothesis."""
    n_h1 = mc.trials // 2
    n_h0 = mc.trials - n_h1

    lam = _scalar_threshold(params, mc)

    batch0 = simulate_slots(params, "H0", n_h0, _rng(mc.seed, 0))
    p_fa_hat = float(np.mean(batch0["statistic"] > _thresholds(params, lam, batch0["h_w"])))

    if n_h1 > 0:
        batch1 = simulate_slots(params, "H1", n_h1, _rng(mc.seed, 1))
        p_md_hat = float(np.mean(batch1["statistic"] <= _thresholds(params, lam, batch1["h_w"])))
    else:
        p_md_hat = float("nan")

    se_fa = _binomial_se(p_fa_hat, n_h0)
    se_md = _binomial_se(p_md_hat, n_h1)
    zeta = p_fa_hat + p_md_hat
    se_zeta = math.hypot(se_fa, se_md) if n_h1 > 0 else float("nan")
    return DetectionEstimate(p_fa_hat, p_md_hat, zeta, se_fa, se_md, se_zeta)


def estimate_pcc(params: SystemParams, mc: McConfig) -> PccEstimate:
    """Empirical connection probability: fraction of transmission slots whose
    realized post-estimation SNR supports the fixed rate."""
    batch = simulate_slots(params, "H1", mc.trials, _rng(mc.seed, 2))
    p_cc_hat = float(np.mean(~batch["outage"]))
    return PccEstimate(p_cc_hat, _binomial_se(p_cc_hat, mc.trials))


def analytic_detection(params: SystemParams, mc: McConfig):
    """Closed-form (p_fa, p_md, zeta) under the threshold rule the simulator
    applies for ``mc``'s policy."""
    w = detection.WillieParams(sigma_w2=params.sigma_w2, n_d=params.n_d, p_d=params.p_d)
    lam = _scalar_threshold(params, mc)
    if lam is None:
        fa = detection.expected_p_fa_csi(w)
        zeta = detection.expected_zeta_star_csi(w)
    else:
        fa = detection.p_fa(lam, w)
        zeta = detection.expected_zeta_cdi(lam, w)
    return fa, zeta - fa, zeta


def write_trace_csv(path, traces) -> None:
    """Dump per-slot traces: one row per slot, complex fields split re/im."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "slot", "hypothesis", "h_b_re", "h_b_im", "h_w_re", "h_w_im",
                "statistic", "decision", "outage",
            ]
        )
        for i, t in enumerate(traces):
            writer.writerow(
                [
                    i, t.hypothesis,
                    f"{t.h_b.real:.12g}", f"{t.h_b.imag:.12g}",
                    f"{t.h_w.real:.12g}", f"{t.h_w.imag:.12g}",
                    f"{t.statistic:.12g}", t.decision,
                    "" if t.outage is None else int(t.outage),
                ]
            )
