"""covertfade benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload design --seed 1 --seconds 28 --trace 0

Runs from the root of a source checkout; the library is imported from its
``src/``.  Set-up time is the median of several fresh interpreters importing
``covertfade.cli`` and building its parser.  The workload itself runs as a
closed loop with one client in one child process (``worker.py``), which
reports per-operation timings, its peak RSS and the CSV of every input.
Every output is checked against ``oracle.py``, and repeats of one input must
give byte-identical CSV.  With ``--trace 1`` the child repeats its operations
with every layer wrapped (``spans.py``) and the per-layer metrics are printed
instead of the end-to-end ones.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
The human-readable lines above it and ``bench/out/`` record the machine, the
versions, the seed and why the workload exists.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import calib
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_SAMPLES = 6
# Seeds below this were used while tuning the benchmark; re-check a claimed
# gain on a seed at or above it.
HELD_OUT_FROM = 1_000_000
DEADLINE_S = 170.0

SETUP_CODE = (
    "import sys, time\n"
    f"sys.path.insert(0, {str(BENCH)!r})\n"
    "from calib import kernel_s\n"
    "kernel_s('interp')\n"
    "before = kernel_s('interp')\n"
    "t = time.perf_counter()\n"
    "import covertfade.cli\n"
    "covertfade.cli.build_parser()\n"
    "t = time.perf_counter() - t\n"
    "print(t, (before + kernel_s('interp')) / 2)\n"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one client, no worker threads in the numeric libraries
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_samples(env, count, deadline):
    """(import-and-parser seconds, kernel seconds) of ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()), check=True)
        samples.append(tuple(float(v) for v in proc.stdout.split()))
    return samples


def run_worker(env, ops, seconds, trace, kernel, deadline):
    job = json.dumps({"ops": [op.argv for op in ops], "seconds": seconds, "trace": trace,
                      "kernel": kernel})
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=job, env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout)


def check_outputs(ops, result):
    """Oracle problems of each input's CSV (inputs that ran successfully)."""
    verdicts = {}
    for key, text in result["csv"].items():
        try:
            verdicts[int(key)] = ops[int(key)].check(text)
        except (ValueError, ArithmeticError) as exc:
            verdicts[int(key)] = [f"unreadable output: {exc}"]
    return verdicts


def input_median(inputs, times):
    """Median over inputs of each input's median time.  Inputs cycle and the
    time limit cuts the last cycle anywhere, so each input counts once and
    the mix stays that of the workload."""
    by_input = {}
    for idx, t in zip(inputs, times):
        by_input.setdefault(idx, []).append(t)
    return statistics.median(statistics.median(v) for v in by_input.values())


def environment(args):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload].why,
        "seed": args.seed,
        "held_out": args.seed >= HELD_OUT_FROM,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def trace_metrics(args, result, notes):
    """Per-layer metrics of the traced pass; writes its spans to OUT."""
    metrics, self_sum_error, n_ops = spans.layer_metrics([tuple(s) for s in result["spans"]])
    untraced = sum(calib.scaled(t, k) for _, _, t, k in result["timed"])
    traced = sum(calib.scaled(t, k) for _, _, t, k in result["traced"])
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    if not result["restored"]:
        notes.append("tracer did not restore every original binding")
    if n_ops != len(result["traced"]):
        notes.append(f"{n_ops} root spans for {len(result['traced'])} traced operations")
    if self_sum_error > 1e-9:
        notes.append(f"layer self times miss the traced op time by {self_sum_error:.3g}")
    print(f"# traced operations: {n_ops}; layer self times sum to the traced op time "
          f"within {self_sum_error:.2g}")
    with open(OUT / f"spans-{args.workload}-{args.seed}.jsonl", "w") as fh:
        fh.write(json.dumps(list(spans.SPAN_FIELDS)) + "\n")
        for s in result["spans"]:
            fh.write(json.dumps(s) + "\n")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "covertfade" / "cli.py").is_file():
        print(f"error: no covertfade source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    env = child_env()
    ops = workloads.inputs(args.workload, args.seed)
    setup = []
    if not args.trace:
        # The first interpreter compiles the checkout's bytecode and is not
        # counted; the others are split around the loop so that one slow
        # spell of a shared machine does not set the median.
        setup = setup_samples(env, 1 + SETUP_SAMPLES // 2, deadline)[1:]
    kernel = workloads.WORKLOADS[args.workload].kernel
    result = run_worker(env, ops, args.seconds, bool(args.trace), kernel, deadline)
    if not args.trace:
        setup += setup_samples(env, SETUP_SAMPLES - len(setup), deadline)

    verdicts = check_outputs(ops, result)
    records = [result["warmup"]] + result["timed"] + result.get("traced", [])
    failed = sum(1 for idx, rc, *_ in records if rc != 0 or verdicts.get(idx))
    attempted = len(records)
    notes = [f"{idx}: {'; '.join(p)}" for idx, p in verdicts.items() if p]
    notes += result["errors"]
    if result["csv_mismatch"]:
        notes.append(f"{result['csv_mismatch']} operations gave other CSV bytes than "
                     "the first run of their input")

    env_rec = environment(args)
    print("# covertfade benchmark: "
          + " ".join(f"{k}={v}" for k, v in env_rec.items() if k != "why"))
    print(f"# why: {env_rec['why']}")
    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics = trace_metrics(args, result, notes)
    else:
        n_ok = sum(1 for idx, rc, *_ in result["timed"] if rc == 0 and not verdicts.get(idx))
        raw = [t for _, _, t, _ in result["timed"]]
        times = [calib.scaled(t, k) for _, _, t, k in result["timed"]]
        inputs = [idx for idx, *_ in result["timed"]]
        setup_raw = [t for t, _ in setup]
        metrics = {
            "setup_s": (statistics.median(calib.scaled(t, k) for t, k in setup), "s"),
            "ops_per_s": (n_ok / sum(times), "1/s"),
            "op_p50_s": (input_median(inputs, times), "s"),
            "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
        }
        print(f"# times are scaled to a host where the {kernel!r} calibration kernel takes "
              f"{calib.REF_S} s (set-up: 'interp'); unscaled: setup_s {statistics.median(setup_raw):.4g}, "
              f"ops_per_s {n_ok / sum(raw):.4g}, op_p50_s {input_median(inputs, raw):.4g}, "
              f"kernel median {statistics.median(k for *_, k in result['timed']):.4g} s")
        print(f"# setup_s is the median of {SETUP_SAMPLES} fresh interpreters; op_p50_s is "
              f"the median over {len(set(inputs))} inputs of their medians over "
              f"n={len(times)} timed operations")
    print(f"{'failed_frac':40s} {failed / attempted:.6g} frac ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    for note in notes:
        print(f"# FAILED {note}")

    record = {"environment": env_rec, "correct": not notes and failed == 0,
              "attempted": attempted, "failed": failed, "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "setup_samples_s_kernel_s": setup,
              "ops_input_rc_s_kernel_s": result["timed"]}
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
