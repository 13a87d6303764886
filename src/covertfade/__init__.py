"""Covert transmission over quasi-static Rayleigh fading with pilot-based
channel estimation: detection analysis, design optimization, and Monte Carlo
validation."""

from .errors import DegenerateHypothesesError, DomainError, NumericError
from .params import SystemParams, parse_params_file
from .detection import (
    WillieParams,
    expected_zeta_cdi,
    expected_zeta_star_csi,
    optimal_threshold_csi,
    p_fa,
    p_md,
    threshold_cdi_approx,
    threshold_cdi_exact,
    zeta_linear_csi,
    zeta_star_cdi,
    zeta_star_csi,
)
from .link import (
    covert_connection_prob,
    estimation_error_var,
    snr_bob,
    throughput,
)
from .optimizer import (
    DesignSolution,
    power_for_covertness_exact,
    power_for_covertness_suboptimal,
    solve_p1,
    solve_p1_1,
)
from .simulation import (
    McConfig,
    estimate_detection,
    estimate_pcc,
    simulate_slots,
)

__version__ = "0.1.0"
