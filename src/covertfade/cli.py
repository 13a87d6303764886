"""Command-line front end: detection-error sweeps, covert design optimization,
and Monte Carlo validation runs, all emitted as CSV (stdout or --out).

Exit codes: 0 success, 2 usage error, 3 numeric failure.
"""

import argparse
import math
import sys

import numpy as np

from . import detection, link, optimizer, simulation
from .errors import DomainError, NumericError
from .params import SystemParams, parse_params_file

__all__ = ["main", "build_parser"]

_PARAM_FLAGS = [
    ("sigma_b2", float), ("sigma_w2", float), ("rate", float),
    ("p_max", float), ("n_t", int), ("p_t", float),
    ("n_d_min", int), ("n_d_max", int), ("epsilon", float),
    ("p_d", float), ("n_d", int),
]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return "n/a"
        return f"{value:.12g}"
    return str(value)


def _emit(rows, header, out_path) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _float_list(text):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"non-finite value in {text!r}")
    return values


def _int_list(text):
    return [int(round(v)) for v in _float_list(text)]


def _add_param_flags(parser):
    group = parser.add_argument_group("scenario parameters")
    for name, kind in _PARAM_FLAGS:
        group.add_argument(f"--{name.replace('_', '-')}", type=kind, default=None)


def _resolve_params(args) -> SystemParams:
    overrides = {}
    if args.params:
        overrides.update(parse_params_file(args.params))
    for name, _ in _PARAM_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return SystemParams(**overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertfade",
        description="Covert-link detection, design and simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--params", help="key = value override file")
        p.add_argument("--out", help="output CSV path (default stdout)")
        p.add_argument("--seed", type=int, default=12345)
        _add_param_flags(p)

    p = sub.add_parser("detect-sweep", help="detection error vs data power")
    common(p)
    p.add_argument("--p-d-grid", type=_float_list, required=True)
    p.add_argument("--n-d-list", type=_int_list, default=[50, 100])
    p.add_argument(
        "--mode", choices=["csi", "cdi_exact", "cdi_approx", "both"], default="both"
    )

    p = sub.add_parser("optimize", help="covert design over a covertness grid")
    common(p)
    p.add_argument("--epsilon-grid", type=_float_list, required=True)
    p.add_argument(
        "--method", choices=["exact", "suboptimal", "both"], default="both"
    )
    p.add_argument("--force-nd", type=int, default=None,
                   help="pin the exact search to one symbol count")

    p = sub.add_parser("simulate", help="Monte Carlo vs closed-form check")
    common(p)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument(
        "--policy",
        choices=["csi_optimal", "cdi_exact", "cdi_approx", "fixed"],
        default="csi_optimal",
    )
    p.add_argument("--fixed-threshold", type=float, default=None)
    p.add_argument("--dump-traces", help="also write per-slot traces here")
    p.add_argument("--trace-slots", type=int, default=100)
    return parser


def cmd_detect_sweep(args) -> int:
    params = _resolve_params(args)
    modes = ["csi", "cdi_exact"] if args.mode == "both" else [args.mode]
    rows = []
    for n_d in args.n_d_list:
        for p_d in args.p_d_grid:
            w = detection.WillieParams(sigma_w2=params.sigma_w2, n_d=n_d, p_d=p_d)
            for mode in modes:
                if mode == "csi":
                    zeta = detection.expected_zeta_star_csi(w)
                elif mode == "cdi_exact":
                    zeta = detection.zeta_star_cdi(w)
                else:
                    zeta = detection.expected_zeta_cdi(
                        detection.threshold_cdi_approx(params.sigma_w2), w
                    )
                rows.append((p_d, n_d, mode, zeta))
    _emit(rows, ["p_d", "n_d", "mode", "zeta"], args.out)
    return 0


def _design_problem(params: SystemParams) -> optimizer.DesignProblem:
    return optimizer.DesignProblem(
        epsilon=params.epsilon,
        p_max=params.p_max,
        n_d_min=params.n_d_min,
        n_d_max=params.n_d_max,
        link=link.LinkParams(
            sigma_b2=params.sigma_b2, rate=params.rate,
            n_t=params.n_t, p_t=params.p_t,
        ),
        sigma_w2=params.sigma_w2,
    )


def cmd_optimize(args) -> int:
    params = _resolve_params(args)
    methods = ["exact", "suboptimal"] if args.method == "both" else [args.method]
    rows = []
    for eps in args.epsilon_grid:
        prob = _design_problem(params.with_overrides(epsilon=eps))
        for method in methods:
            if method == "exact":
                sol = optimizer.solve_p1(prob, force_nd=args.force_nd)
            else:
                sol = optimizer.solve_p1_1(prob)
            diagnostics = "constraint_violated" if sol.constraint_violated else "ok"
            rows.append(
                (eps, method, sol.p_d_star, sol.n_d_star, sol.throughput,
                 sol.power_capped, diagnostics)
            )
    _emit(
        rows,
        ["epsilon", "method", "p_d_star", "n_d_star", "throughput",
         "power_capped", "diagnostics"],
        args.out,
    )
    return 0


def cmd_simulate(args) -> int:
    params = _resolve_params(args)
    mc = simulation.McConfig(
        trials=args.trials,
        seed=args.seed,
        threshold_policy=args.policy,
        fixed_threshold=args.fixed_threshold,
    )
    est = simulation.estimate_detection(params, mc)
    pcc = simulation.estimate_pcc(params, mc)

    fa, md, zeta = simulation.analytic_detection(params, mc)
    lp = link.LinkParams(
        sigma_b2=params.sigma_b2, rate=params.rate, n_t=params.n_t,
        p_t=params.p_t, p_d=params.p_d, n_d=params.n_d,
    )
    pcc_analytic = link.covert_connection_prob(lp, link.estimation_model(lp))

    rows = []
    for name, emp, ana, se in [
        ("p_fa", est.p_fa, fa, est.se_fa),
        ("p_md", est.p_md, md, est.se_md),
        ("zeta", est.zeta, zeta, est.se_zeta),
        ("p_cc", pcc.p_cc, pcc_analytic, pcc.se),
    ]:
        if not (math.isfinite(se) and se > 0 and math.isfinite(emp)):
            rows.append((name, emp, ana, float("nan"), "n/a"))
        else:
            rows.append((name, emp, ana, se, abs(emp - ana) <= 3.0 * se))
    _emit(rows, ["metric", "empirical", "analytic", "stderr", "pass_3sigma"], args.out)

    if args.dump_traces:
        rng = simulation._rng(args.seed, 9)
        traces = [
            simulation.simulate_slot(params, "H0" if i % 2 == 0 else "H1", rng, mc)
            for i in range(args.trace_slots)
        ]
        simulation.write_trace_csv(args.dump_traces, traces)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "detect-sweep": cmd_detect_sweep,
        "optimize": cmd_optimize,
        "simulate": cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
