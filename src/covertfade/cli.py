"""Command-line front end: detection-error sweeps, covert design optimization,
and Monte Carlo validation runs, all emitted as CSV (stdout or --out).

Every subcommand takes ``--params``, ``--out`` and the scenario flags, which
are declared once on a shared parent parser and typed by
``params._FIELD_TYPES``; each subcommand binds its handler as ``run``, and
``main`` builds the parser once per process.  ``main`` parses with the named
subcommand's parser alone, so argv is scanned once; the top-level parser
parses only an argv that names no subcommand (none, ``-h``, an unknown one),
and reports a subcommand's unrecognized arguments.  Every count (the int fields,
``--trials``, ``--force-nd``, ``--n-d-list``) is read by ``params.count`` at the
exact decimal value of its text and judged by ``params.check_value``, so
``50.0`` runs as 50 and ``1e24`` as 10**24, while ``50.5``,
``50.0000000000000001`` and ``1e1000000000`` exit 2; ``--seed`` and
``--trace-slots`` take ints.

``simulate`` runs its two Monte Carlo stages at the same time, each on its own
streams: P_cc on a worker thread, detection on the calling thread.  The bytes
are those of running them one after the other, and when both stages fail the
detection error is the one reported.  An interrupt (SIGINT) stops both stages
within one block and exits 130 with nothing printed.

Exit codes: 0 success, 2 usage error, unusable file or no memory, 3 numeric
failure, 130 ``simulate`` interrupted.
Every output path is opened before any work, so an unusable one prints nothing,
and ``simulate`` builds its trace file before it writes its result, so a failing
trace stage prints nothing either.
"""

import argparse
import functools
import math
import os
import sys
import threading
from dataclasses import replace

from . import detection, link, optimizer, simulation
from .errors import DomainError, NumericError
from .params import _FIELD_TYPES, SystemParams, check_value, count, parse_params_file

__all__ = ["main", "build_parser"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return "n/a"
        return f"{value:.12g}"
    return str(value)


def _write(path, text="", mode="w") -> None:
    try:
        with open(path, mode, newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"{path}: {exc.strerror or exc}") from None


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text, out_path) -> None:
    if out_path:
        _write(out_path, text)
    else:
        sys.stdout.write(text)


def _parse_list(text, read):
    try:
        values = [read(tok) for tok in text.split(",") if tok.strip()]
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _float_list(text):
    return _parse_list(text, lambda tok: check_value("value", float(tok), "finite"))


def _int_list(text):
    return _parse_list(text, lambda tok: check_value("value", count(tok), "counts"))


def _resolve_params(args) -> SystemParams:
    overrides = {}
    if args.params:
        overrides.update(parse_params_file(args.params))
    for name in _FIELD_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return SystemParams(**overrides)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--params", help="key = value override file")
    shared.add_argument("--out", help="output CSV path (default stdout)")
    group = shared.add_argument_group("scenario parameters")
    for name, kind in _FIELD_TYPES.items():
        group.add_argument(f"--{name.replace('_', '-')}", type=kind, default=None)

    parser = argparse.ArgumentParser(
        prog="covertfade",
        description="Covert-link detection, design and simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect-sweep", parents=[shared], help="detection error vs data power")
    p.set_defaults(run=cmd_detect_sweep)
    p.add_argument("--p-d-grid", type=_float_list, required=True)
    p.add_argument("--n-d-list", type=_int_list, default=(50, 100))
    p.add_argument(
        "--mode", choices=["csi", "cdi_exact", "cdi_approx", "both"], default="both"
    )

    p = sub.add_parser("optimize", parents=[shared], help="covert design over a covertness grid")
    p.set_defaults(run=cmd_optimize)
    p.add_argument("--epsilon-grid", type=_float_list, required=True)
    p.add_argument(
        "--method", choices=["exact", "suboptimal", "both"], default="both"
    )
    p.add_argument("--force-nd", type=count, default=None,
                   help="pin the search to one symbol count")

    p = sub.add_parser("simulate", parents=[shared], help="Monte Carlo vs closed-form check")
    p.set_defaults(run=cmd_simulate)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--trials", type=count, default=100_000)
    p.add_argument("--policy", choices=simulation.POLICIES, default="csi_optimal")
    p.add_argument("--fixed-threshold", type=float, default=None)
    p.add_argument("--dump-traces", help="also write per-slot traces here")
    p.add_argument("--trace-slots", type=int, default=100)
    return parser


# Building the parser takes about a millisecond, so main builds one per
# process and in-process callers do not pay it per call.
_parser = functools.cache(build_parser)


def cmd_detect_sweep(args) -> int:
    params = _resolve_params(args)
    modes = ["csi", "cdi_exact"] if args.mode == "both" else [args.mode]
    # every point is validated, n_d before p_d, before any work; its one copy serves every mode
    points = [detection.WillieParams(sigma_w2=params.sigma_w2, n_d=n_d, p_d=p_d)
              for n_d in args.n_d_list for p_d in args.p_d_grid]
    zetas = {}
    for mode in modes:
        if mode == "csi":
            zetas[mode] = [detection.expected_zeta_star_csi(w) for w in points]
        else:  # one grid call: the argmins run in lockstep, the averages as one rule
            lams = None if mode == "cdi_exact" else [
                detection.threshold_cdi_approx(w.sigma_w2) for w in points]
            zetas[mode] = detection.cdi_grid(points, lams)[1]
    rows = [(w.p_d, w.n_d, mode, zetas[mode][i]) for i, w in enumerate(points) for mode in modes]
    _emit(_csv(rows, ["p_d", "n_d", "mode", "zeta"]), args.out)
    return 0


def cmd_optimize(args) -> int:
    params = _resolve_params(args)
    methods = ["exact", "suboptimal"] if args.method == "both" else [args.method]
    rows = []
    for eps in args.epsilon_grid:
        prob = replace(params, epsilon=eps)
        for method in methods:
            solve = optimizer.solve_p1 if method == "exact" else optimizer.solve_p1_1
            sol = solve(prob, force_nd=args.force_nd)
            diagnostics = "constraint_violated" if sol.constraint_violated else "ok"
            rows.append(
                (eps, method, sol.p_d_star, sol.n_d_star, sol.throughput,
                 sol.power_capped, diagnostics)
            )
    _emit(
        _csv(rows, ["epsilon", "method", "p_d_star", "n_d_star", "throughput",
                    "power_capped", "diagnostics"]),
        args.out,
    )
    return 0


def cmd_simulate(args) -> int:
    check_value("--trace-slots", args.trace_slots, "nonnegative")
    params = _resolve_params(args)
    mc = simulation.McConfig(trials=args.trials, seed=args.seed)  # checked before the policy
    mc = replace(mc, threshold=simulation.policy_threshold(
        params, args.policy, args.fixed_threshold))
    # P_cc, the longer stage, runs on the worker (numpy releases the GIL in
    # both).  The worker is joined before this returns; a detection error or
    # an interrupt first sets ``stop``, so P_cc ends at its next block and the
    # detection error propagates before the P_cc result, or its error, is read.
    from concurrent.futures import ThreadPoolExecutor  # loaded here, not at CLI start

    stop = threading.Event()
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        pcc_stage = pool.submit(simulation.estimate_pcc, params, mc, stop=stop)
        est = simulation.estimate_detection(params, mc)
        pcc = pcc_stage.result()
    except KeyboardInterrupt:
        return 130  # 128 + SIGINT, with nothing printed
    finally:
        stop.set()
        pool.shutdown()

    fa, md, zeta = simulation.analytic_detection(params, mc)
    pcc_analytic = link.covert_connection_prob(params)

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
    outputs = [(_csv(rows, ["metric", "empirical", "analytic", "stderr", "pass_3sigma"]),
                args.out)]
    if args.dump_traces:
        header = ["slot", "hypothesis", "h_b_re", "h_b_im", "h_w_re", "h_w_im",
                  "statistic", "decision", "outage"]
        outputs.append((_csv(simulation.trace_rows(params, mc, args.trace_slots), header),
                        args.dump_traces))
    # every output is built before any is written, so a failing trace stage prints nothing
    for text, path in outputs:
        _emit(text, path)
    return 0


def _parse(argv):
    """``argv`` parsed once: by the parser of the subcommand that ``argv[0]``
    names, else (no argv, ``-h``, an unknown command) by the top-level parser,
    with the usage, help and error bytes of a top-level parse either way."""
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    (commands,) = (a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:  # reported by the top-level parser, as parse_args does
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        for path in (args.out, getattr(args, "dump_traces", None)):
            if path:  # an unusable path exits 2 before any work; no file is left
                new = not os.path.lexists(path)
                _write(path, mode="a")
                if new:
                    os.remove(path)
        return args.run(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's, from a run too large for this process
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
