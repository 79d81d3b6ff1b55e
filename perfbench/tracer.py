"""Span tracing of fiokit from outside the library.

A Recorder wraps public fiokit functions with timers.  Each wrapper is
put into every fiokit module namespace that holds the original, so
calls between fiokit modules are timed as well as calls from the
benchmark.  A call records one span: name, start, end, parent span and
run id ("setup", "pass-<i>", "check" or "memory"; see phase_of).  Spans
stay in memory until the benchmark writes them out.  Nothing is wrapped
until install() runs, and uninstall() puts every original back.

Counters that need the call's inputs or results (FFT sizes, frame
nonzeros, direction usage) are taken by hooks that run after the call's
span has closed, so their cost is not in that span.  Peak memory is
measured by finish(), after the passes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import tracemalloc

import numpy as np

MB = 1e6


def _fft_counts(rec, bound, result):
    size = result.size if isinstance(result, np.ndarray) else result.samples.size
    rec.add("fft_points", size)
    # computed, not measured: 5 M log2 M flops, one input and one output
    # array of complex128 per transform
    rec.add("fft_flops", 5.0 * size * np.log2(size))
    rec.add("fft_bytes", 2 * 16 * size)


def _fiof_bytes(rec, bound, result):
    field = result if result is not None else bound.arguments["f"]
    rec.add("fiof_bytes", 24 + 16 * field.samples.size)


def _frame_counts(rec, bound, result):
    frame = bound.arguments["self"]
    rec.add("frame_nnz", sum(frame.sparse(l)[0].size for l in range(frame.n_directions)))
    rec.add("directions", frame.n_directions)


def _sector_row_fraction(frame) -> float:
    """Mean share of first-axis rows that a direction's support touches."""
    N = frame.spec.N
    rows = [np.unique(frame.sparse(l)[0] // N**(frame.spec.n - 1)).size
            for l in range(frame.n_directions)]
    return float(np.mean(rows)) / N


def _hpfio_counts(rec, bound, result):
    """Directions whose masked spectrum is nonzero, out of those run.

    Repeats hpfio_norm's masking with the unwrapped grid functions, so
    that the count matches the inverse FFTs the call actually ran."""
    f, s, frame = bound.arguments["f"], bound.arguments["s"], bound.arguments["frame"]
    grid = rec.originals["fiokit.grid"]
    flat = grid["forward_transform"](f).ravel()
    bess = grid["bessel_values"](f.spec, s).ravel()
    nonzero = 0
    for l in range(frame.n_directions):
        idx, vals = frame.sparse(l)
        nonzero += bool(np.any(vals * bess[idx] * flat[idx]))
    rec.add("hpfio_dirs_run", frame.n_directions)
    rec.add("hpfio_dirs_nonzero", nonzero)
    key = id(frame)
    if key not in rec.row_fraction:
        rec.row_fraction[key] = _sector_row_fraction(frame)
    rec.add("sector_row_fraction_sum", rec.row_fraction[key])


def _split_evals(rec, bound, result):
    """Time every later evaluation of the split's two symbols."""
    for sym in (result.sharp, result.flat):
        sym.field = rec.wrap("symbols.split_eval", sym.field)


def _count_power_applies(rec, original):
    """power_iteration with its apply_fn counted; a call that used every
    iteration it was allowed is counted as capped."""
    sig = inspect.signature(original)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        inner = bound.arguments["apply_fn"]
        applies = 0

        def apply_fn(v):
            nonlocal applies
            applies += 1
            return inner(v)

        bound.arguments["apply_fn"] = apply_fn
        try:
            return original(*bound.args, **bound.kwargs)
        finally:
            rec.add("power_applies", applies)
            rec.add("power_capped", int(applies >= bound.arguments["iters"]))

    return counted


def _cm_peak(rec, bound, result):
    """Queue one more call with the same arguments for finish(), which
    measures its peak allocation.  tracemalloc slows every allocation, so
    no timed call runs with it."""
    if not any(phase == rec.phase for phase, _ in rec.deferred):
        rec.deferred.append((rec.phase, bound))


# profiles.self_s is a set-up metric.  In passes the profiles run on
# scalars inside symbol evaluation, hundreds of thousands of times a pass,
# so their wrappers call straight through there and record no span.
SETUP_ONLY = {"profiles"}

# (module, attribute, span name, hook run after the span, call modifier)
TARGETS = [
    ("fiokit.grid", "forward_transform", "grid.fft", _fft_counts, None),
    ("fiokit.grid", "inverse_transform", "grid.fft", _fft_counts, None),
    ("fiokit.grid", "lp_norm", "grid.lp_norm", None, None),
    ("fiokit.grid", "write_fiof", "grid.fiof", _fiof_bytes, None),
    ("fiokit.grid", "read_fiof", "grid.fiof", _fiof_bytes, None),
    ("fiokit.profiles", "smooth_step", "profiles", None, None),
    ("fiokit.profiles", "rising", "profiles", None, None),
    ("fiokit.profiles", "falling", "profiles", None, None),
    ("fiokit.parabolic", "ParabolicFrame.__init__", "parabolic.frame_build", _frame_counts, None),
    ("fiokit.parabolic", "frame_analyze", "parabolic.analyze", None, None),
    ("fiokit.parabolic", "frame_synthesize", "parabolic.synthesize", None, None),
    ("fiokit.norms", "hpfio_norm", "norms.hpfio", _hpfio_counts, None),
    ("fiokit.norms", "zygmund_norm", "norms.zygmund", None, None),
    ("fiokit.dyadic", "LittlewoodPaleyFamily.__init__", "dyadic.family_build", None, None),
    ("fiokit.dyadic", "square_function_norm", "dyadic.square_function", None, None),
    ("fiokit.dyadic", "lp_project", "dyadic.lp_project", None, None),
    ("fiokit.symbols", "preset_rough_chirp", "symbols.chirp_build", None, None),
    ("fiokit.symbols", "paraproduct_hh", "symbols.paraproduct", None, None),
    ("fiokit.symbols", "paraproduct_hl", "symbols.paraproduct", None, None),
    ("fiokit.symbols", "paraproduct_lh", "symbols.paraproduct", None, None),
    ("fiokit.symbols", "smooth_split", "symbols.smooth_split", _split_evals, None),
    ("fiokit.symbols", "coifman_meyer_decompose", "symbols.cm_decompose", _cm_peak, None),
    ("fiokit.operators", "apply_separable", "operators.apply", None, None),
    ("fiokit.operators", "apply_separable_adjoint", "operators.apply", None, None),
    ("fiokit.operators", "apply_dense", "operators.dense_apply", None, None),
    ("fiokit.operators", "apply_dense_adjoint", "operators.dense_apply", None, None),
    ("fiokit.operators", "power_iteration", "operators.power_iteration", None,
     _count_power_applies),
    ("fiokit.families", "build_test_family", "families.build", None, None),
]


def phase_of(run_id: str) -> str:
    """"setup", "timed" for a pass, or the run id itself ("check" for
    output checks, "memory" for the peak-memory repeat)."""
    if run_id.startswith("pass-"):
        return "timed"
    return run_id


class Recorder:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, run id)
        self.stack = []
        self.run_id = "setup"
        self.counters = {}  # (phase, counter) -> value
        self.row_fraction = {}
        self.originals = {}  # module -> {attribute: original}, for hooks
        self.deferred = []  # (phase, arguments) of coifman_meyer_decompose calls
        self._undo = []

    @property
    def phase(self) -> str:
        return phase_of(self.run_id)

    def add(self, counter: str, value):
        key = (self.phase, counter)
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name, fn, hook=None):
        rec = self
        sig = inspect.signature(fn) if hook is not None else None
        setup_only = name in SETUP_ONLY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if setup_only and rec.run_id != "setup":
                return fn(*args, **kwargs)
            parent = rec.stack[-1] if rec.stack else -1
            index = len(rec.spans)
            rec.spans.append(None)
            rec.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec.stack.pop()
                rec.spans[index] = (name, start, end, parent, rec.run_id)
            if hook is not None:
                hook(rec, sig.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fiokit" or n.startswith("fiokit.")]
        for module_name, attr, name, hook, modify in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self._wrapped(name, original, hook, modify))
                continue
            original = getattr(module, attr)
            self.originals.setdefault(module_name, {})[attr] = original
            wrapper = self._wrapped(name, original, hook, modify)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)
        grid = importlib.import_module("fiokit.grid")
        self.originals["fiokit.grid"]["bessel_values"] = grid.bessel_values

    def _wrapped(self, name, original, hook, modify):
        inner = modify(self, original) if modify is not None else original
        return self.wrap(name, inner, hook)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def finish(self):
        """Peak traced allocation (numpy buffers included) of one repeat of
        the first coifman_meyer_decompose call of each phase.  Spans of the
        repeats get the run id "memory", which no metric counts."""
        original = self.originals["fiokit.symbols"]["coifman_meyer_decompose"]
        run_id = self.run_id
        for phase, bound in self.deferred:
            self.run_id = "memory"
            tracemalloc.start()
            try:
                original(*bound.args, **bound.kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.counters[(phase, "cm_peak_mb")] = peak / MB
        self.deferred = []
        self.run_id = run_id

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _aggregate(rec) -> dict:
    """Per (phase, span name): calls, self time, total time of outermost
    spans, and the list of span durations."""
    spans = rec.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            # calls are sequential on one thread, so children never overlap
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent, run_id) in enumerate(spans):
        phase = phase_of(run_id)
        agg = out.setdefault((phase, name), {"calls": 0, "self": 0.0, "total": 0.0,
                                             "durations": []})
        duration = end - start
        agg["calls"] += 1
        agg["self"] += duration - child_time[i]
        agg["durations"].append(duration)
        outermost = True
        while parent >= 0:
            if spans[parent][0] == name:
                outermost = False
                break
            parent = spans[parent][3]
        if outermost:
            agg["total"] += duration
    return out


# name -> (unit, phase, how it is computed)
LAYER_METRICS = {
    "grid.fft_calls": ("count", "timed", ("calls", "grid.fft")),
    "grid.fft_self_s": ("s", "timed", ("self", "grid.fft")),
    "grid.fft_points": ("count", "timed", ("counter", "fft_points")),
    "grid.fft_flops_computed": ("flop", "timed", ("counter", "fft_flops")),
    "grid.fft_bytes_computed": ("B", "timed", ("counter", "fft_bytes")),
    "grid.lp_norm_calls": ("count", "timed", ("calls", "grid.lp_norm")),
    "grid.lp_norm_self_s": ("s", "timed", ("self", "grid.lp_norm")),
    "grid.fiof_bytes": ("B", "timed", ("counter", "fiof_bytes")),
    "grid.fiof_s": ("s", "timed", ("total", "grid.fiof")),
    "profiles.self_s": ("s", "setup", ("self", "profiles")),
    "parabolic.frame_build_s": ("s", "setup", ("total", "parabolic.frame_build")),
    "parabolic.frame_nnz": ("count", "setup", ("counter", "frame_nnz")),
    "parabolic.directions": ("count", "setup", ("counter", "directions")),
    "parabolic.analyze_s": ("s", "timed", ("total", "parabolic.analyze")),
    "parabolic.synthesize_s": ("s", "timed", ("total", "parabolic.synthesize")),
    "norms.hpfio_calls": ("count", "timed", ("calls", "norms.hpfio")),
    "norms.hpfio_s": ("s", "timed", ("total", "norms.hpfio")),
    "norms.hpfio_self_s": ("s", "timed", ("self", "norms.hpfio")),
    "norms.hpfio_call_s.p50": ("s", "timed", ("p50", "norms.hpfio")),
    "norms.nonzero_direction_ratio": ("ratio", "timed",
                                      ("ratio", "hpfio_dirs_nonzero", "hpfio_dirs_run")),
    "norms.sector_row_fraction": ("ratio", "timed",
                                  ("per_call", "sector_row_fraction_sum", "norms.hpfio")),
    "norms.zygmund_s": ("s", "timed", ("total", "norms.zygmund")),
    "dyadic.family_build_s": ("s", "timed", ("total", "dyadic.family_build")),
    "dyadic.square_function_s": ("s", "timed", ("total", "dyadic.square_function")),
    "dyadic.lp_project_calls": ("count", "timed", ("calls", "dyadic.lp_project")),
    "symbols.chirp_build_s": ("s", "setup", ("total", "symbols.chirp_build")),
    "symbols.paraproduct_s": ("s", "timed", ("total", "symbols.paraproduct")),
    "symbols.split_eval_s": ("s", "timed", ("total", "symbols.split_eval")),
    "symbols.cm_decompose_s": ("s", "timed", ("total", "symbols.cm_decompose")),
    "symbols.cm_peak_mb": ("MB", "timed", ("peak", "cm_peak_mb")),
    "operators.apply_calls": ("count", "timed", ("calls", "operators.apply")),
    "operators.apply_self_s": ("s", "timed", ("self", "operators.apply")),
    "operators.power_applies": ("count", "timed", ("counter", "power_applies")),
    "operators.power_capped": ("count", "timed", ("counter", "power_capped")),
    "operators.dense_apply_s": ("s", "timed", ("total", "operators.dense_apply")),
    "families.build_s": ("s", "setup", ("total", "families.build")),
}


def layer_metrics(rec, passes: int) -> dict:
    """Every per-layer metric: set-up metrics for the one traced set-up,
    timed-phase metrics per pass.  A layer that was never called reads 0."""
    agg = _aggregate(rec)
    empty = {"calls": 0, "self": 0.0, "total": 0.0, "durations": []}
    out = {}
    for name, (unit, phase, how) in LAYER_METRICS.items():
        per = passes if phase == "timed" else 1
        kind = how[0]
        if kind in ("calls", "self", "total"):
            value = agg.get((phase, how[1]), empty)[kind] / per
        elif kind == "p50":
            durations = agg.get((phase, how[1]), empty)["durations"]
            value = statistics.median(durations) if durations else 0.0
        elif kind == "counter":
            value = rec.counters.get((phase, how[1]), 0) / per
        elif kind == "peak":
            value = rec.counters.get((phase, how[1]), 0.0)
        elif kind == "ratio":
            den = rec.counters.get((phase, how[2]), 0)
            value = rec.counters.get((phase, how[1]), 0) / den if den else 0.0
        else:  # per_call
            calls = agg.get((phase, how[2]), empty)["calls"]
            value = rec.counters.get((phase, how[1]), 0.0) / calls if calls else 0.0
        out[name] = (float(value), unit)
    return out
