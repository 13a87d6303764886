"""Closed-loop client for one benchmark workload, run as a child of run.py.

Reads a job from stdin:
``{"ops": [argv, ...], "seconds": s, "trace": bool, "kernel": kind}``.
From this one thread it calls ``covertfade.cli.main`` on the inputs in turn,
each after the previous one returns, until ``seconds`` have passed, and
writes one JSON result to stdout.  It runs in a process of its own so that
its peak RSS is that of the workload alone.  The calibration kernel ``kind``
(``calib.py``) is timed before the first operation and after each one.

With ``trace`` it measures for half the time untraced, then repeats the same
sequence of operations with every layer wrapped by ``spans.Tracer``, so the
traced and untraced passes do the same work and their CSV bytes can be
compared.
"""

import contextlib
import io
import itertools
import json
import resource
import sys
import time
import traceback

import calib
import spans
from covertfade import cli


def run_op(main, argv):
    """Run one CLI call; return (exit code, seconds, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an operation's crash is a failed operation, not a failed run
            rc = 1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()


class Recorder:
    """Keeps each op's (input, exit code, seconds) and one CSV per input."""

    def __init__(self, ops):
        self.ops = ops
        self.csv = {}
        self.mismatch = 0
        self.errors = []

    def run(self, main, idx):
        rc, elapsed, out, err = run_op(main, self.ops[idx])
        if rc != 0 and len(self.errors) < 5:
            self.errors.append(f"input {idx} exit {rc}: {err.strip()[-400:]}")
        if rc == 0:
            first = self.csv.setdefault(idx, out)
            if out != first:
                self.mismatch += 1
                rc = "csv_mismatch"
        return [idx, rc, elapsed]


def run_ops(rec, main, indices, stop, kernel):
    """Run the inputs ``indices`` names, one after another, until they end or
    ``stop()``; each record gets the mean calibration-kernel time around it."""
    records = []
    before = calib.kernel_s(kernel)
    for idx in indices:
        if records and stop():
            break
        record = rec.run(main, idx)
        after = calib.kernel_s(kernel)
        records.append(record + [(before + after) / 2])
        before = after
    return records


def main():
    job = json.load(sys.stdin)
    rec = Recorder(job["ops"])
    warmup = rec.run(cli.main, 0)
    calib.kernel_s(job["kernel"])  # its first run pays for allocation too
    seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
    start = time.perf_counter()
    timed = run_ops(rec, cli.main, itertools.cycle(range(len(rec.ops))),
                    lambda: time.perf_counter() - start >= seconds, job["kernel"])
    result = {"warmup": warmup, "timed": timed}

    if job["trace"]:
        tracer = spans.Tracer()
        root = tracer.span(spans.ROOT_SPAN, cli.main)
        tracer.patch()
        try:
            result["traced"] = run_ops(rec, root, [r[0] for r in timed], lambda: False,
                                       job["kernel"])
        finally:
            result["restored"] = tracer.unpatch()
        result["spans"] = tracer.spans
    else:
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result["csv"] = rec.csv
    result["csv_mismatch"] = rec.mismatch
    result["errors"] = rec.errors
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
