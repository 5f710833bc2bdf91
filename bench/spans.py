"""In-memory span tracing of the nsprofile layers, from outside the package.

The tracer replaces the module attributes through which the CLI pipeline
looks up each layer's public functions (``nsprofile.decay.zone_norm_sq``,
``nsprofile.cli.emit_csv``, ...) with wrappers that record a span per call:
name, start, end and the span that caused it.  Parents come from a
thread-local stack; tasks of ``ordered_map`` run on pool threads and get the
map's span as an explicit parent.  Counts (frequency points, RK4 steps,
integrand points, bytes) are taken at the same boundaries.  Spans stay in
memory; :meth:`Tracer.metrics` reduces them when the pass ends.

A layer's self time is the duration of its spans minus the part of each
interval that child spans cover (the union, so parallel tasks are not counted
twice).
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# every per-layer metric a traced pass reports, with its unit;
# ``cli.<subcommand>.s`` entries are added per subcommand in run_bench.py
LAYER_METRICS = {
    "cli.import_s": "s",
    "config.load_s": "s",
    "spectral.solve_exact_batch.points": "count",
    "spectral.solve_exact_batch.self_s": "s",
    "spectral.solve_exact_batch.ns_per_point": "ns",
    "spectral.oracle.steps": "count",
    "spectral.oracle.self_s": "s",
    "spectral.oracle.steps_per_s": "1/s",
    "profiles.points": "count",
    "profiles.self_s": "s",
    "profiles.ns_per_point": "ns",
    "quadrature.zone_norm_sq.calls": "count",
    "quadrature.zone_norm_sq.points": "count",
    "quadrature.zone_norm_sq.self_s": "s",
    "quadrature.zone_norm_sq.levels_mean": "level",
    "quadrature.zone_norm_sq.max_points_per_call": "count",
    "quadrature.useful_ratio": "ratio",
    "quadrature.osc_integral.calls": "count",
    "quadrature.osc_integral.self_s": "s",
    "decay.ordered_map.busy_ratio": "ratio",
    "decay.fit_s": "s",
    "reporting.emit_s": "s",
    "reporting.bytes": "B",
}

_PROFILE_FUNCTIONS = ("velocity_profile", "density_profile", "moment_flow",
                      "moment_defect_term", "sine_correction_term")

# span name -> the (module, attribute) lookups the CLI pipeline goes through.
# ``measured_remainder_norms`` imports ``zone_norm_sq`` from the quadrature
# module at call time, so that attribute is wrapped as well.
LAYERS = {
    "config.load": [("nsprofile.cli", "load_config_file")],
    "spectral.solve_exact_batch": [("nsprofile.decay", "solve_exact_batch"),
                                   ("nsprofile.cli", "solve_exact_batch"),
                                   ("nsprofile.profiles", "solve_exact_batch")],
    "spectral.oracle": [("nsprofile.cli", "solve_ode_oracle_batch")],
    "profiles": ([("nsprofile.decay", "velocity_profile"),
                  ("nsprofile.decay", "density_profile")]
                 + [("nsprofile.profiles", name) for name in _PROFILE_FUNCTIONS]),
    "quadrature.zone_norm_sq": [("nsprofile.decay", "zone_norm_sq"),
                                ("nsprofile.quadrature", "zone_norm_sq")],
    "quadrature.osc_integral": [("nsprofile.decay", "sine_kernel_integral"),
                                ("nsprofile.decay", "cone_cosine_integral")],
    "decay.ordered_map": [("nsprofile.decay", "ordered_map"),
                          ("nsprofile.cli", "ordered_map")],
    "decay.fit": [("nsprofile.cli", "fit_loglog"), ("nsprofile.decay", "fit_loglog"),
                  ("nsprofile.decay", "fit_semilog")],
    "reporting.emit": [("nsprofile.cli", "emit_csv"), ("nsprofile.cli", "emit_svg")],
}


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children.

    ``spans`` is a sequence of ``(name, start, end, parent_index)``; a root
    has parent ``None``.  Child intervals are clipped to the parent's.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def refinement_levels(sizes: list[int], chunk: int | None) -> tuple[int, int]:
    """(accepted refinement level, points of the accepted level) of one
    ``zone_norm_sq`` call, inferred from the sizes of its integrand calls.

    A level evaluation is split into calls of ``chunk`` points plus a shorter
    last call, so consecutive full-chunk calls are merged first.  Each
    refinement doubles the point count of the level before it; the trailing
    run of doubling evaluations is the refinement sequence, and everything
    before it (symmetry spot checks, the active-range probe, the edge value)
    is overhead.
    """
    evaluations = []
    pending = 0
    for size in sizes:
        pending += size
        if chunk is None or size != chunk:
            evaluations.append(pending)
            pending = 0
    if pending:
        evaluations.append(pending)
    if not evaluations:
        return 0, 0
    level = 0
    while (level + 1 < len(evaluations)
           and evaluations[-1 - level] == 2 * evaluations[-2 - level]):
        level += 1
    return level, evaluations[-1]


def _integrand_chunk() -> int | None:
    from nsprofile import quadrature
    fn = getattr(quadrature, "_eval_abs_sq", None)
    if fn is None:
        return None
    param = inspect.signature(fn).parameters.get("chunk")
    return None if param is None or param.default is param.empty else int(param.default)


def _rows(xi) -> int:
    shape = getattr(xi, "shape", ())
    return 1 if len(shape) < 2 else int(shape[0])


class Tracer:
    """Span recorder; :meth:`install` wraps the layer functions in place."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._chunk: int | None = None  # integrand call size that splits a level
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span recording -------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: int | None = None) -> int:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        idx = self._open(name, parent)
        try:
            yield idx
        finally:
            self._close(idx)

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def _peak(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima[key], value)

    # -- layer wrappers -------------------------------------------------
    def _wrapper(self, name: str, fn):
        sig = inspect.signature(fn)
        hooks = {
            "spectral.solve_exact_batch": self._count_points,
            "profiles": self._count_points,
            "spectral.oracle": self._count_steps,
            "quadrature.zone_norm_sq": self._count_integrand,
            "decay.ordered_map": self._time_tasks,
            "reporting.emit": self._count_bytes,
        }
        hook = hooks.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name) as idx:
                if hook is None:
                    return fn(*args, **kwargs)
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return hook(name, idx, fn, bound)

        return wrapper

    def _count_points(self, name, idx, fn, bound):
        self.add(name + ".points", _rows(bound.arguments["xi"]))
        return fn(*bound.args, **bound.kwargs)

    def _count_steps(self, name, idx, fn, bound):
        t, step = float(bound.arguments["t"]), float(bound.arguments["step"])
        steps = max(1, math.ceil(t / step)) if t > 0 else 0
        self.add(name + ".steps", _rows(bound.arguments["xi"]) * steps)
        return fn(*bound.args, **bound.kwargs)

    def _count_integrand(self, name, idx, fn, bound):
        f = bound.arguments["f"]
        sizes = []

        def counted(xi):
            sizes.append(_rows(xi))
            return f(xi)

        bound.arguments["f"] = counted
        try:
            return fn(*bound.args, **bound.kwargs)
        finally:
            level, accepted = refinement_levels(sizes, self._chunk)
            total = sum(sizes)
            self.add(name + ".calls", 1)
            self.add(name + ".points", total)
            self.add(name + ".levels", level)
            self.add(name + ".accepted_points", accepted)
            self._peak(name + ".max_points_per_call", total)

    def _time_tasks(self, name, idx, fn, bound):
        task_fn = bound.arguments["fn"]
        threads = max(1, int(bound.arguments["threads"]))

        def task(item):
            start = time.perf_counter()
            with self.span(name + ".task", parent=idx):
                result = task_fn(item)
            self.add(name + ".task_s", time.perf_counter() - start)
            return result

        bound.arguments["fn"] = task
        start = time.perf_counter()
        try:
            return fn(*bound.args, **bound.kwargs)
        finally:
            self.add(name + ".capacity_s", threads * (time.perf_counter() - start))

    def _count_bytes(self, name, idx, fn, bound):
        result = fn(*bound.args, **bound.kwargs)
        self.add(name + ".bytes", os.path.getsize(bound.arguments["path"]))
        return result

    def install(self) -> None:
        """Wrap every attribute in :data:`LAYERS`; one wrapper per function."""
        self._chunk = _integrand_chunk()
        wrappers = {}
        for name, sites in LAYERS.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrapper(name, fn)
                setattr(module, attr, wrappers[id(fn)])

    # -- reduction ------------------------------------------------------
    def metrics(self, import_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far (see LAYER_METRICS)."""
        totals = defaultdict(float)
        selfs = defaultdict(float)
        for (name, start, end, _), own in zip(self.spans, self_times(self.spans)):
            totals[name] += end - start
            selfs[name] += own
        c = self.counts

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        zn = "quadrature.zone_norm_sq"
        out = {
            "cli.import_s": import_s,
            "config.load_s": totals["config.load"],
            "spectral.solve_exact_batch.points": c["spectral.solve_exact_batch.points"],
            "spectral.solve_exact_batch.self_s": selfs["spectral.solve_exact_batch"],
            "spectral.solve_exact_batch.ns_per_point": per(
                selfs["spectral.solve_exact_batch"],
                c["spectral.solve_exact_batch.points"], 1e9),
            "spectral.oracle.steps": c["spectral.oracle.steps"],
            "spectral.oracle.self_s": selfs["spectral.oracle"],
            "spectral.oracle.steps_per_s": per(c["spectral.oracle.steps"],
                                               selfs["spectral.oracle"]),
            "profiles.points": c["profiles.points"],
            "profiles.self_s": selfs["profiles"],
            "profiles.ns_per_point": per(selfs["profiles"], c["profiles.points"], 1e9),
            zn + ".calls": c[zn + ".calls"],
            zn + ".points": c[zn + ".points"],
            zn + ".self_s": selfs[zn],
            zn + ".levels_mean": per(c[zn + ".levels"], c[zn + ".calls"]),
            zn + ".max_points_per_call": self.maxima[zn + ".max_points_per_call"],
            "quadrature.useful_ratio": per(c[zn + ".accepted_points"], c[zn + ".points"]),
            "quadrature.osc_integral.calls": float(
                sum(1 for s in self.spans if s[0] == "quadrature.osc_integral")),
            "quadrature.osc_integral.self_s": selfs["quadrature.osc_integral"],
            "decay.ordered_map.busy_ratio": per(c["decay.ordered_map.task_s"],
                                                c["decay.ordered_map.capacity_s"]),
            "decay.fit_s": totals["decay.fit"],
            "reporting.emit_s": totals["reporting.emit"],
            "reporting.bytes": c["reporting.emit.bytes"],
        }
        for name, duration in totals.items():
            if name.startswith("cli."):
                out[name + ".s"] = duration
        return out
