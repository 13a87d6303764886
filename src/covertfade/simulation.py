"""Monte Carlo slot simulator.

Serves as the independent oracle for the closed forms: fading and pilot noise
are drawn per slot, the channel estimate is formed from simulated pilot
observations (so the LMMSE formula itself is exercised), the adversary's
radiometer decides from its realized average power, and outage is declared
from the realized estimate/error decomposition.

A slot runs in two stages, one per receiver, and each stage is written once,
in private kernels that the estimators and ``trace_rows`` share.  Willie's
stage is ``_radiometer``, his average received power over n_d samples at
|h_w|^2, and ``_thresholds``, the run's threshold or the per-slot CSI
threshold.  Bob's stage is ``_estimate``, his LMMSE estimate of h_b from the
mean of the n_t pilot observations, and ``_outage``, whether the realized
post-estimation SNR supports the rate.  Each stage draws sufficient
statistics: the estimate reads the pilots only through their mean,
sqrt(p_t) h_b + CN(0, sigma_b2 / n_t); Willie reads h_w only through
|h_w|^2, at which the radiometer average is exactly a scaled Gamma(n_d, 1)
variate (the energy-detector law); so nothing grows with n_t or n_d.  Bob's
outage reads only |h_b_hat| and |h_b - h_b_hat|, which do not change when a
slot is rotated by the phase of h_b, and the rotated pilot noise is again
CN(0, sigma_b2 / n_t) and independent of |h_b|; so ``estimate_pcc`` draws the
gain as its magnitude |h_b| = sqrt(Exp(1)).  The symbol-level routes are kept
in the tests as their oracles.

Each estimator draws only what its decisions read.  Streams 0 and 1 (H0,
H1 of ``estimate_detection``) hold, block by block, |h_w|^2 ~ Exp(1) where a
decision reads it (under the per-slot CSI threshold, or on H1 slots at
p_d > 0), then one Gamma variate per slot: at a fixed threshold an H0 slot
draws its Gamma variate alone, and at p_d = 0 every slot does.  Stream 2
(``estimate_pcc``) holds, block by block, one exponential per slot then the
pilot-mean noise, 3 variates per trial; at p_d = 0 every slot is an outage
and nothing is drawn.  Both estimators run over blocks of ``_BLOCK`` trials,
drawn in order on the stage's one generator, and sum integer hit counts, so
their memory does not grow with the number of trials.  An estimator
allocates its block arrays once per run, draws each block's variates into
them with ``out=`` (the same values) and decides in place, Bob's side
forming |h_b_hat|^2 and |h_b - h_b_hat|^2 as re^2 + im^2 of real parts.
The two estimators share no generator, so ``cli.cmd_simulate`` runs them at
the same time, P_cc on a worker thread, with the bytes of running them one
after the other.  ``estimate_pcc`` takes a ``threading.Event`` ``stop``, and
once it is set raises KeyboardInterrupt before its next block; the CLI sets
it on an interrupt, which lands on the calling thread that runs detection.
``analytic_detection`` and ``analytic_zeta`` give the closed forms.

A run's threshold is resolved once, by ``policy_threshold``, and carried in
``McConfig.threshold`` (None: the per-slot CSI threshold set from h_w, at
p_d > 0).  The rows of ``simulate --dump-traces`` come from ``trace_rows``:
one H0 batch then one H1 batch on the trace stream (stream 9; the estimators
use 0-2), each batch drawing a complex h_b, then, in the H1 batch alone,
whose rows print the outage, the pilot-mean noise of Bob's estimate, then a
complex h_w (the file prints both gains) and one Gamma variate per slot for
the radiometer at |h_w|^2, with the run's threshold and, on H1 rows, outage
rule per slot.

Randomness comes from numpy's counter-based Philox generator keyed by the
two words (seed, stream), with a 64-bit seed; batch estimators consume one
stream per hypothesis, so identical (params, config) pairs reproduce
identical results and distinct (seed, stream) pairs never share a key.
CN(0, s) is drawn as one block of 2n standard normals scaled by sqrt(s/2)
and read as n complex values: real and imaginary parts interleave.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import detection, link
from .errors import DomainError
from .params import SystemParams, check_fields, check_value, overflow_check

__all__ = [
    "POLICIES",
    "McConfig",
    "DetectionEstimate",
    "PccEstimate",
    "policy_threshold",
    "estimate_detection",
    "estimate_pcc",
    "analytic_detection",
    "analytic_zeta",
    "trace_rows",
]

POLICIES = ("csi_optimal", "cdi_exact", "cdi_approx", "fixed")

_BLOCK = 2**14  # trials per block of either estimator


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int
    threshold: Optional[float] = None

    def __post_init__(self):
        check_fields(self, counts=("trials",),
                     positive=() if self.threshold is None else ("threshold",),
                     seeds=("seed",))


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


def _cn(rng, size, var, out=None):
    z = rng.standard_normal(2 * size, out=out)
    z *= math.sqrt(var / 2.0)
    return z.view(np.complex128)


def _rng(seed, stream):
    # Two-word Philox key: the seed in the low 64 bits, the stream above it.
    return np.random.Generator(np.random.Philox(key=int(seed) + (stream << 64)))


def _power_overflow(params: SystemParams):
    return f"p_d={params.p_d!r} with sigma_w2={params.sigma_w2!r} overflows Willie's received power"


def policy_threshold(params, policy: str, fixed_threshold=None):
    """Detector threshold of ``policy``, one of ``POLICIES``: None for
    csi_optimal, whose threshold is set per slot from h_w, except at p_d = 0,
    where it is the noise floor sigma_w2 of every slot (``csi_threshold`` at
    zero signal power); the CDI argmin or its noise-floor approximation; or
    ``fixed_threshold``.  ``params`` is a ``SystemParams`` or a
    ``detection.WillieParams``, read alike."""
    if policy == "csi_optimal":
        return None if params.p_d > 0 else params.sigma_w2
    if policy == "cdi_exact":
        return detection.threshold_cdi_exact(params)
    if policy == "cdi_approx":
        return detection.threshold_cdi_approx(params.sigma_w2)
    if policy == "fixed":
        return check_value("fixed_threshold", fixed_threshold, "positive")
    raise DomainError(f"policy must be one of {POLICIES}, got {policy!r}")


def _thresholds(params: SystemParams, lam, h_w2, s=None, out=None, work=None):
    """The run's scalar threshold, or per-slot CSI thresholds from |h_w|^2:
    the signal power h_w2 p_d goes to ``s`` (which may be h_w2), the
    thresholds to ``out`` and ``csi_threshold``'s scratch to ``work``, each
    allocated if None."""
    if lam is not None:
        return lam
    with overflow_check(_power_overflow(params)):
        s = np.multiply(h_w2, params.p_d, out=s)
    return detection.csi_threshold(s, params.sigma_w2, out, work)


def _estimate(params: SystemParams, h_b, rng, z=None, work=None):
    """Bob's LMMSE estimate of the gains ``h_b`` (complex, or their
    magnitudes), formed in place on the pilot-mean noise CN(0, sigma_b2 / n_t)
    drawn into ``z`` (2n doubles): the pilots' mean, then its LMMSE scaling.
    ``work`` (h_b's shape) holds sqrt(p_t) h_b of real gains; z and work are
    allocated if None.  Returns the estimate as n complex values."""
    amp = math.sqrt(params.p_t)
    h_hat = _cn(rng, np.size(h_b), params.sigma_b2 / params.n_t, z)
    if np.iscomplexobj(h_b):
        h_hat += amp * h_b
    else:  # real gains move the real parts only
        re = h_hat.real
        re += np.multiply(h_b, amp, out=work)
    parts = h_hat.view(np.float64)
    parts *= params.n_t * amp / (params.sigma_b2 + params.n_t * params.p_t)
    return h_hat


def _radiometer(params: SystemParams, transmit: bool, h_w2, g, work=None):
    """Willie's average received power over n_d samples at the squared gains
    ``h_w2``, v g / n_d in place in ``g``, one Gamma(n_d, 1) variate per gain:
    the samples are CN(0, v), v = |h_w|^2 p_d + sigma_w2 when ``transmit`` and
    p_d > 0 and sigma_w2 otherwise.  An array v goes to ``work`` (or a new one)."""
    with overflow_check(_power_overflow(params)):
        v = params.sigma_w2
        if transmit and params.p_d > 0:
            v = np.multiply(h_w2, params.p_d, out=work)
            v += params.sigma_w2
        g *= v
        g /= params.n_d
    return g


def _outage(params: SystemParams, h_b, h_hat, out=None, work=None):
    """Slots at the gains ``h_b`` (complex, or their magnitudes) whose realized
    post-estimation SNR, at Bob's estimates ``h_hat``, cannot support the
    rate: log2(1 + snr) <= R, into ``out``.  |h_hat|^2 and |h_b - h_hat|^2
    are formed as re^2 + im^2 from the real and imaginary parts, in ``work``
    (three float arrays of h_b's shape); out and work are allocated if None."""
    if work is None:
        work = np.empty((3,) + np.shape(h_b))
    hat2, tilde2, im2 = work
    np.multiply(h_hat.imag, h_hat.imag, out=im2)
    np.multiply(h_hat.real, h_hat.real, out=hat2)
    hat2 += im2
    np.subtract(h_b.real, h_hat.real, out=tilde2)
    tilde2 *= tilde2
    if np.iscomplexobj(h_b):
        np.subtract(h_b.imag, h_hat.imag, out=im2)
        im2 *= im2
    tilde2 += im2  # of real gains, the error's imaginary part is -Im h_hat
    snr = link.snr_bob(hat2, tilde2, params, out=hat2, work=im2)
    snr += 1.0
    np.log2(snr, out=snr)
    return np.less_equal(snr, params.rate, out=out)


def _binomial_se(p_hat, n):
    if n < 1 or not math.isfinite(p_hat):
        return float("nan")
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def _blocks(trials, stop=None):
    """Sizes of the ``_BLOCK``-trial blocks, in order, that make up ``trials``;
    KeyboardInterrupt before the next block once ``stop`` (an Event, or None)
    is set."""
    for start in range(0, trials, _BLOCK):
        if stop is not None and stop.is_set():
            raise KeyboardInterrupt("Monte Carlo stage stopped")
        yield min(_BLOCK, trials - start)


def _errors(params: SystemParams, hypothesis: str, trials: int, lam, rng, arrays) -> int:
    """Wrong decisions at threshold ``lam`` in ``trials`` slots of ``hypothesis``,
    each block drawn into and decided in ``arrays`` (four float rows and a
    bool row of at least one block).  |h_w|^2 is drawn only where a decision
    reads it: for the per-slot threshold, or for the radiometer of H1 at
    p_d > 0."""
    wrong = np.greater if hypothesis == "H0" else np.less_equal
    hits = 0
    for n in _blocks(trials):
        h_w2, g, work, log = arrays[0][:, :n]
        if lam is None or (hypothesis == "H1" and params.p_d > 0):
            rng.standard_exponential(out=h_w2)
        statistic = _radiometer(params, hypothesis == "H1", h_w2,
                                rng.standard_gamma(params.n_d, out=g), work)
        thresholds = _thresholds(params, lam, h_w2, s=h_w2, out=work, work=log)
        hits += int(np.count_nonzero(wrong(statistic, thresholds, out=arrays[1][:n])))
    return hits


def estimate_detection(params: SystemParams, mc: McConfig) -> DetectionEstimate:
    """Empirical false-alarm / missed-detection / total error rates at
    ``mc.threshold`` with binomial standard errors; half the trials run under
    each hypothesis.  The pilot budget is checked before any draw."""
    link.estimation_error_var(params)
    n_h1 = mc.trials // 2
    n_h0 = mc.trials - n_h1
    lam = mc.threshold
    size = min(_BLOCK, n_h0)
    arrays = np.empty((4, size)), np.empty(size, dtype=bool)

    p_fa_hat = _errors(params, "H0", n_h0, lam, _rng(mc.seed, 0), arrays) / n_h0
    if n_h1 > 0:
        p_md_hat = _errors(params, "H1", n_h1, lam, _rng(mc.seed, 1), arrays) / n_h1
    else:
        p_md_hat = float("nan")

    se_fa = _binomial_se(p_fa_hat, n_h0)
    se_md = _binomial_se(p_md_hat, n_h1)
    zeta = p_fa_hat + p_md_hat
    return DetectionEstimate(p_fa_hat, p_md_hat, zeta, se_fa, se_md, math.hypot(se_fa, se_md))


def estimate_pcc(params: SystemParams, mc: McConfig, stop=None) -> PccEstimate:
    """Empirical connection probability: fraction of transmission slots whose
    realized post-estimation SNR supports the fixed rate.

    Draws Bob's stage alone, on stream 2, at gain magnitudes |h_b| =
    sqrt(Exp(1)); Willie's gain is never drawn.  The pilot budget is checked
    before any draw.  At p_d = 0 every slot is an outage, so P_cc is 0 with
    standard error 0 and nothing is drawn.  Once the Event ``stop`` is set,
    the next block raises KeyboardInterrupt.
    """
    link.estimation_error_var(params)
    if params.p_d == 0:
        return PccEstimate(0.0, 0.0)
    rng = _rng(mc.seed, 2)
    size = min(_BLOCK, mc.trials)
    gains, z, work, flags = (np.empty(size), np.empty(2 * size), np.empty((3, size)),
                             np.empty(size, dtype=bool))
    outages = 0
    for n in _blocks(mc.trials, stop):
        h_b = rng.standard_exponential(out=gains[:n])
        np.sqrt(h_b, out=h_b)
        h_hat = _estimate(params, h_b, rng, z[:2 * n], work[0, :n])
        outages += int(np.count_nonzero(_outage(params, h_b, h_hat, flags[:n], work[:, :n])))
    p_cc_hat = (mc.trials - outages) / mc.trials
    return PccEstimate(p_cc_hat, _binomial_se(p_cc_hat, mc.trials))


def analytic_zeta(params, threshold) -> float:
    """Closed-form fading-averaged total error at ``threshold``, read as
    ``McConfig.threshold`` is; ``params`` as in ``policy_threshold``."""
    return (detection.expected_zeta_star_csi(params) if threshold is None
            else detection.expected_zeta_cdi(threshold, params))


def analytic_detection(params, mc: McConfig):
    """Closed-form (p_fa, p_md, zeta) at ``mc.threshold``, ``params`` as in ``policy_threshold``."""
    lam = mc.threshold
    fa = detection.expected_p_fa_csi(params) if lam is None else detection.p_fa(lam, params)
    zeta = analytic_zeta(params, lam)
    return fa, zeta - fa, zeta


def trace_rows(params: SystemParams, mc: McConfig, n_slots: int) -> list:
    """Rows (slot, hypothesis, h_b re/im, h_w re/im, statistic, decision,
    outage) of ceil(n/2) H0 then floor(n/2) H1 slots drawn on the trace stream,
    interleaved so that even slots are H0; outage is empty on H0 rows, so
    only the H1 batch forms Bob's estimate.  The radiometer reads the printed
    complex h_w through |h_w|^2.  ``n_slots`` is an integer in [0, 2**64),
    else a DomainError."""
    check_value("n_slots", n_slots, "seeds")
    rng = _rng(mc.seed, 9)
    rows = {}
    for hyp, n in (("H0", n_slots - n_slots // 2), ("H1", n_slots // 2)):
        if n == 0:
            continue
        h_b = _cn(rng, n, 1.0)
        h_hat = _estimate(params, h_b, rng) if hyp == "H1" else None
        h_w = _cn(rng, n, 1.0)
        h_w2 = np.abs(h_w) ** 2
        statistic = _radiometer(params, hyp == "H1", h_w2, rng.standard_gamma(params.n_d, n))
        decision = np.where(statistic > _thresholds(params, mc.threshold, h_w2), "H1", "H0")
        outage = [""] * n if hyp == "H0" else _outage(params, h_b, h_hat).astype(int).tolist()
        rows[hyp] = list(zip([hyp] * n, h_b.real.tolist(), h_b.imag.tolist(),
                             h_w.real.tolist(), h_w.imag.tolist(),
                             statistic.tolist(), decision.tolist(), outage))
    return [(i,) + rows["H1" if i % 2 else "H0"][i // 2] for i in range(n_slots)]
