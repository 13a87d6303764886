"""In-memory span tracer that wraps covertfade's layers from outside.

Every public function of a layer module is replaced, at each module
namespace that binds it, by a wrapper that records a span: id, parent id,
operation id, name, start and end.  Special-function calls are too many to
keep one span each (about 10^5 per ``optimize`` operation), so they are
aggregated onto the span that made them: call count, elements evaluated and
time.  ``unpatch`` restores every original binding.

``layer_metrics`` turns the spans of a traced pass into per-operation layer
metrics.  A layer's self time is its spans' durations minus the time covered
by their child spans and special-function calls, so the self times of all
layers add up to the traced operation time.
"""

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("special", "detection", "link", "optimizer", "simulation")
LEAF_LAYER = "special"
ROOT_SPAN = "cli.main"

EXPECTATION = {"detection.expected_zeta_star_csi", "detection.expected_zeta_cdi"}
CDI_THRESHOLD = {"detection.threshold_cdi_exact"}
SOLVE_P1 = {"optimizer.solve_p1"}
ROOT_FIND = {"optimizer.power_for_covertness_exact"}
EST_DETECTION = {"simulation.estimate_detection"}
EST_PCC = {"simulation.estimate_pcc"}
SIM_BATCH = "simulation.simulate_slots"

SPAN_FIELDS = ("id", "parent", "op", "name", "start", "end",
               "special_calls", "special_evals", "special_s", "slots", "samples")
ID, PARENT, OP, NAME, START, END, SP_CALLS, SP_EVALS, SP_S, SLOTS, SAMPLES = range(len(SPAN_FIELDS))


def _elements(args):
    """Number of elements a special-function call evaluates (1 for scalars)."""
    for v in args:
        if type(v) is not float and type(v) is not int:
            return int(np.broadcast(*args).size)
    return 1


def _batch_size(args, kwargs):
    """(slots, radiometer samples) of one simulate_slots(params, hyp, n_slots, rng) call."""
    params = args[0] if args else kwargs["params"]
    n_slots = args[2] if len(args) > 2 else kwargs["n_slots"]
    return int(n_slots), int(n_slots) * int(params.n_d)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ops = 0
        self._stack = []
        self._next_id = 0
        self._patches = []

    def span(self, name, fn):
        """Wrap ``fn`` so each call records one span called ``name``."""
        stack = self._stack
        spans = self.spans
        counts_slots = name == SIM_BATCH

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            if stack:
                parent = stack[-1][0]
            else:  # a root span starts the next operation
                parent = None
                self._ops += 1
            slots, samples = _batch_size(args, kwargs) if counts_slots else (0, 0)
            frame = [sid, 0, 0, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, self._ops, name, start, end,
                              frame[1], frame[2], frame[3], slots, samples))

        return wrapped

    def leaf(self, fn):
        """Wrap a special function: aggregate onto the calling span."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if stack:
                    frame = stack[-1]
                    frame[1] += 1
                    frame[2] += _elements(args + tuple(kwargs.values()))
                    frame[3] += elapsed

        return wrapped

    def patch(self, package="covertfade"):
        """Wrap each layer's public functions at every binding in ``package``."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self.leaf(fn) if layer == LEAF_LAYER else self.span(f"{layer}.{attr}", fn)
                for target in modules:
                    for bound, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, bound, wrapper)
                            self._patches.append((target, bound, fn))

    def unpatch(self):
        """Restore the original bindings; return True if every one is back."""
        for target, bound, fn in reversed(self._patches):
            setattr(target, bound, fn)
        restored = all(getattr(t, b) is fn for t, b, fn in self._patches)
        self._patches = []
        return restored


def _outermost(spans, by_id, names):
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    out = []
    for s in spans:
        if s[NAME] not in names:
            continue
        parent = s[PARENT]
        while parent is not None and by_id[parent][NAME] not in names:
            parent = by_id[parent][PARENT]
        if parent is None:
            out.append(s)
    return out


def _under(spans, by_id, names, field):
    """Sum of ``field`` over spans that have an ancestor named in ``names``."""
    total = 0
    for s in spans:
        parent = s[PARENT]
        while parent is not None:
            if by_id[parent][NAME] in names:
                total += s[field]
                break
            parent = by_id[parent][PARENT]
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-operation layer metrics, the self-time sum check, and op count.

    Returns ``(metrics, self_sum_error, n_ops)`` where ``self_sum_error`` is
    the relative gap between the summed layer self times and the summed
    traced operation times (0 up to rounding).
    """
    by_id = {s[ID]: s for s in spans}
    roots = [s for s in spans if s[PARENT] is None and s[NAME] == ROOT_SPAN]
    n_ops = len(roots)

    # Spans complete before their parents, so one pass in completion order
    # accumulates inclusive special work and child durations upward.
    incl_evals = {s[ID]: 0 for s in spans}
    child_s = {s[ID]: 0.0 for s in spans}
    for s in spans:
        incl_evals[s[ID]] += s[SP_EVALS]
        if s[PARENT] is not None:
            incl_evals[s[PARENT]] += incl_evals[s[ID]]
            child_s[s[PARENT]] += s[END] - s[START]
    layer_self = {layer: 0.0 for layer in ("cli",) + LAYERS}
    for s in spans:
        own = s[END] - s[START] - child_s[s[ID]] - s[SP_S]
        layer_self[s[NAME].split(".", 1)[0]] += own
        layer_self[LEAF_LAYER] += s[SP_S]
    op_total = sum(s[END] - s[START] for s in roots)
    self_sum_error = abs(sum(layer_self.values()) - op_total) / op_total if op_total else 1.0

    def group(names):
        chosen = _outermost(spans, by_id, names)
        calls = len(chosen)
        secs = sum(s[END] - s[START] for s in chosen)
        evals = sum(incl_evals[s[ID]] for s in chosen)
        return calls, secs, evals

    per_op = lambda v: _ratio(v, n_ops)
    sp_evals = sum(s[SP_EVALS] for s in spans)
    sp_s = layer_self[LEAF_LAYER]
    exp_calls, exp_s, exp_evals = group(EXPECTATION)
    cdi_calls, cdi_s, cdi_evals = group(CDI_THRESHOLD)
    p1_calls, p1_s, _ = group(SOLVE_P1)
    root_calls, root_s, root_evals = group(ROOT_FIND)
    _, det_s, _ = group(EST_DETECTION)
    _, pcc_s, _ = group(EST_PCC)
    det_samples = _under(spans, by_id, EST_DETECTION, SAMPLES)
    pcc_slots = _under(spans, by_id, EST_PCC, SLOTS)

    metrics = {
        "special.evals": (per_op(sp_evals), "count/op"),
        "special.s": (per_op(sp_s), "s/op"),
        "special.us_per_eval": (_ratio(sp_s * 1e6, sp_evals), "us"),
        "detection.expectation.calls": (per_op(exp_calls), "count/op"),
        "detection.expectation.s": (per_op(exp_s), "s/op"),
        "detection.expectation.evals_per_call": (_ratio(exp_evals, exp_calls), "count/call"),
        "detection.cdi_threshold.calls": (per_op(cdi_calls), "count/op"),
        "detection.cdi_threshold.s": (per_op(cdi_s), "s/op"),
        "detection.cdi_threshold.evals_per_call": (_ratio(cdi_evals, cdi_calls), "count/call"),
        "detection.self_s": (per_op(layer_self["detection"]), "s/op"),
        "optimizer.solve_p1.calls": (per_op(p1_calls), "count/op"),
        "optimizer.solve_p1.s": (per_op(p1_s), "s/op"),
        "optimizer.root.calls": (per_op(root_calls), "count/op"),
        "optimizer.root.s": (per_op(root_s), "s/op"),
        "optimizer.root.evals_per_root": (_ratio(root_evals, root_calls), "count/call"),
        "optimizer.self_s": (per_op(layer_self["optimizer"]), "s/op"),
        "link.s": (per_op(layer_self["link"]), "s/op"),
        "simulation.slots": (per_op(sum(s[SLOTS] for s in spans)), "count/op"),
        "simulation.estimate_detection.s": (per_op(det_s), "s/op"),
        "simulation.detection.ns_per_sample": (_ratio(det_s * 1e9, det_samples), "ns"),
        "simulation.estimate_pcc.s": (per_op(pcc_s), "s/op"),
        "simulation.pcc.us_per_slot": (_ratio(pcc_s * 1e6, pcc_slots), "us"),
        "simulation.self_s": (per_op(layer_self["simulation"]), "s/op"),
        "cli.self_s": (per_op(layer_self["cli"]), "s/op"),
        "trace.op_s": (per_op(op_total), "s/op"),
    }
    return metrics, self_sum_error, n_ops
