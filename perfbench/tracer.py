"""Span tracer for the chdp benchmark.

`Tracer.install()` wraps every public function of every loaded `chdp.*`
module (the names in its `__all__`) in a span recorder, plus the
`FlowmapResult.jacobians` method.  chdp modules bind each other's names
with `from chdp.spectral import derivative`, so each wrapper is rebound in
every chdp module that holds the original.  Counting wrappers on
`numpy.fft.rfft`/`irfft` and on `PeriodicField.__init__` give the FFT and
field-construction counts.  `uninstall()` puts every original back.

A span is recorded only while `Tracer.active` is true, as one row

    [name_id, start, end, parent_index, run_id, ffts_at_start,
     ffts_at_end, fields_at_start, fields_at_end]

Spans stay in memory; the worker writes them out when the run ends.  A
span's self time is its duration minus the union of its children's
intervals (`self_times`).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

NAME, START, END, PARENT, RUN, FFT0, FFT1, FLD0, FLD1 = range(9)

# Public functions whose spans are summed into one per-layer group.
DIAGONAL = ("spectral.derivative", "spectral.helmholtz", "spectral.helmholtz_inverse",
            "spectral.dealias", "spectral.dealiased_product")
CHRISTOFFEL = ("connection.christoffel", "connection.christoffel_ch",
               "connection.christoffel_dp", "connection.christoffel_2ch",
               "connection.christoffel_2dp")
DIAGNOSTICS = ("evolution.conserved_energy", "evolution.mean_invariants")
CSV_WRITERS = ("csvio.write_snapshot", "csvio.write_diagnostics",
               "csvio.write_flowmap_snapshot", "csvio.write_scan",
               "csvio.write_rigidbody")
WRITERS = CSV_WRITERS + ("csvio.write_manifest",)
# Spans that contain the RK4 stepping: evolve steps through step_rk4, the
# flow map inlines its RK4 loop in evolve_flowmap.  They never nest.
STEPPERS = ("evolution.step_rk4", "flowmap.evolve_flowmap")
PLANE_LOOPS = ("curvature.positivity_scan", "curvature.negative_search")

# Every per-layer metric: (name, unit, better).
PER_LAYER = [
    ("spectral.fft_calls_per_step", "count", "lower"),
    ("spectral.fields_per_step", "count", "lower"),
    ("spectral.fft_calls_per_plane", "count", "lower"),
    ("spectral.diagonal.self_s", "s", "lower"),
    ("spectral.series_matrix.calls", "count", "lower"),
    ("spectral.series_matrix.self_s", "s", "lower"),
    ("spectral.series_matrix.bytes", "bytes", "lower"),
    ("spectral.apply_series_matrix.self_s", "s", "lower"),
    ("spectral.invert_diffeo.self_s", "s", "lower"),
    ("spectral.invert_diffeo.evaluate_calls", "count", "lower"),
    ("connection.christoffel.calls", "count", "lower"),
    ("connection.christoffel.self_s", "s", "lower"),
    ("connection.metric.calls", "count", "lower"),
    ("connection.metric.self_s", "s", "lower"),
    ("evolution.rhs.calls", "count", "lower"),
    ("evolution.rhs.self_s", "s", "lower"),
    ("evolution.step_rk4.self_s", "s", "lower"),
    ("evolution.evolve.self_s", "s", "lower"),
    ("evolution.diagnostics.self_s", "s", "lower"),
    ("flowmap.evolve_flowmap.self_s", "s", "lower"),
    ("flowmap.jacobians.self_s", "s", "lower"),
    ("flowmap.momentum_drift.self_s", "s", "lower"),
    ("flowmap.history_bytes", "bytes", "lower"),
    ("curvature.unnormalized_curvature.calls", "count", "lower"),
    ("curvature.unnormalized_curvature.self_s", "s", "lower"),
    ("curvature.closed_form_curvature.self_s", "s", "lower"),
    ("curvature.positivity_scan.self_s", "s", "lower"),
    ("curvature.negative_search.self_s", "s", "lower"),
    ("rigidbody.evolve_rigidbody.self_s", "s", "lower"),
    ("rigidbody.hat.calls", "count", "lower"),
    ("rigidbody.coadjoint_drift.self_s", "s", "lower"),
    ("csvio.write.self_s", "s", "lower"),
    ("csvio.rows_written", "count", "lower"),
    ("csvio.bytes_written", "bytes", "lower"),
    ("csvio.read_snapshot.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Records spans around chdp's public functions while `active`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.run_id = 0
        self.ffts = 0
        self.fields = 0
        self.series_bytes = 0
        self.history_bytes = 0
        self.written: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_run(self, run_id: int):
        """Start a fresh span list for one repetition."""
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.series_bytes = 0
        self.history_bytes = 0
        self.written = []

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, tracer.run_id,
                   tracer.ffts, 0, tracer.fields, 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
                rec[FFT1] = tracer.ffts
                rec[FLD1] = tracer.fields
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _counting(self, fn, attr):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            setattr(tracer, attr, getattr(tracer, attr) + 1)
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _on_series_matrix(self, args, result):
        self.series_bytes += result.nbytes

    def _on_evolve_flowmap(self, args, result):
        self.history_bytes += sum(a.nbytes for a in (result.times, result.u,
                                                     result.rho, result.psi, result.f))

    def _on_csv_write(self, args, result):
        self.written.append(os.fspath(args[0]))

    def install(self):
        """Wrap chdp's public functions; every loaded chdp module is rebound."""
        import chdp.flowmap
        import chdp.spectral

        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "chdp" or name.startswith("chdp."))}
        hooks = {"spectral.series_matrix": self._on_series_matrix,
                 "flowmap.evolve_flowmap": self._on_evolve_flowmap}
        hooks.update({name: self._on_csv_write for name in CSV_WRITERS})

        wrapped = {}
        for modname, mod in modules.items():
            if modname == "chdp":
                continue
            layer = modname.split(".", 1)[1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == modname:
                    name = f"{layer}.{attr}"
                    wrapped[id(fn)] = (fn, self.wrap(name, fn, hooks.get(name)))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._set(mod, attr, wrapped[id(value)][1])

        result_cls = chdp.flowmap.FlowmapResult
        self._set(result_cls, "jacobians",
                  self.wrap("flowmap.jacobians", result_cls.jacobians))
        field_cls = chdp.spectral.PeriodicField
        self._set(field_cls, "__init__", self._counting(field_cls.__init__, "fields"))
        self._set(np.fft, "rfft", self._counting(np.fft.rfft, "ffts"))
        self._set(np.fft, "irfft", self._counting(np.fft.irfft, "ffts"))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def span_array(self) -> np.ndarray:
        """The current repetition's spans as a float array, one row per span."""
        return np.asarray(self.spans, dtype=float).reshape(-1, 9)


# -- analysis ---------------------------------------------------------------

def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals."""
    start, end = spans[:, START], spans[:, END]
    out = end - start
    parent = spans[:, PARENT].astype(int)
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return out
    # Children clipped to their parent, sorted by parent then start.
    p = parent[kids]
    s = np.maximum(start[kids], start[p])
    e = np.maximum(np.minimum(end[kids], end[p]), s)
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order] - start.min(), e[order] - start.min()
    # Running maximum of earlier ends within each parent's group: an offset
    # per group keeps np.maximum.accumulate from carrying across groups.
    first = np.r_[True, p[1:] != p[:-1]]
    offset = np.cumsum(first) * (e.max() + 1.0)
    reach = np.maximum.accumulate(e + offset) - offset
    prev_end = np.r_[-np.inf, reach[:-1]]
    prev_end[first] = -np.inf
    covered = np.maximum(e - np.maximum(s, prev_end), 0.0)
    return out - np.bincount(p, weights=covered, minlength=len(spans))


def _has_ancestor(spans: np.ndarray, i: int, ancestor_id: int) -> bool:
    parent = int(spans[i, PARENT])
    while parent >= 0:
        if int(spans[parent, NAME]) == ancestor_id:
            return True
        parent = int(spans[parent, PARENT])
    return False


def layer_metrics(tracer: Tracer, spans: np.ndarray, steps: int, planes: int) -> dict:
    """Per-layer metrics of one traced repetition (all but trace.overhead_s)."""
    ids = spans[:, NAME].astype(int) if len(spans) else np.zeros(0, dtype=int)
    self_s = self_times(spans) if len(spans) else np.zeros(0)
    ffts = spans[:, FFT1] - spans[:, FFT0] if len(spans) else np.zeros(0)
    fields = spans[:, FLD1] - spans[:, FLD0] if len(spans) else np.zeros(0)

    def mask(names):
        wanted = [tracer._ids[n] for n in names if n in tracer._ids]
        return np.isin(ids, wanted)

    def calls(*names):
        return int(mask(names).sum())

    def self_sum(*names):
        return float(self_s[mask(names)].sum())

    def per(total, count):
        return float(total) / count if count else 0.0

    evaluate_calls = 0
    if "spectral.invert_diffeo" in tracer._ids and "spectral.evaluate" in tracer._ids:
        inv_id = tracer._ids["spectral.invert_diffeo"]
        evaluate_calls = sum(1 for i in np.flatnonzero(mask(["spectral.evaluate"]))
                             if _has_ancestor(spans, i, inv_id))

    rows = 0
    size = 0
    for path in set(tracer.written):
        size += os.path.getsize(path)
        with open(path, "rb") as handle:
            rows += handle.read().count(b"\n") - 1

    return {
        "spectral.fft_calls_per_step": per(ffts[mask(STEPPERS)].sum(), steps),
        "spectral.fields_per_step": per(fields[mask(STEPPERS)].sum(), steps),
        "spectral.fft_calls_per_plane": per(ffts[mask(PLANE_LOOPS)].sum(), planes),
        "spectral.diagonal.self_s": self_sum(*DIAGONAL),
        "spectral.series_matrix.calls": calls("spectral.series_matrix"),
        "spectral.series_matrix.self_s": self_sum("spectral.series_matrix"),
        "spectral.series_matrix.bytes": tracer.series_bytes,
        "spectral.apply_series_matrix.self_s": self_sum("spectral.apply_series_matrix"),
        "spectral.invert_diffeo.self_s": self_sum("spectral.invert_diffeo"),
        "spectral.invert_diffeo.evaluate_calls": evaluate_calls,
        "connection.christoffel.calls": calls("connection.christoffel"),
        "connection.christoffel.self_s": self_sum(*CHRISTOFFEL),
        "connection.metric.calls": calls("connection.metric"),
        "connection.metric.self_s": self_sum("connection.metric"),
        "evolution.rhs.calls": calls("evolution.rhs"),
        "evolution.rhs.self_s": self_sum("evolution.rhs"),
        "evolution.step_rk4.self_s": self_sum("evolution.step_rk4"),
        "evolution.evolve.self_s": self_sum("evolution.evolve"),
        "evolution.diagnostics.self_s": self_sum(*DIAGNOSTICS),
        "flowmap.evolve_flowmap.self_s": self_sum("flowmap.evolve_flowmap"),
        "flowmap.jacobians.self_s": self_sum("flowmap.jacobians"),
        "flowmap.momentum_drift.self_s": self_sum("flowmap.momentum_drift"),
        "flowmap.history_bytes": tracer.history_bytes,
        "curvature.unnormalized_curvature.calls": calls("curvature.unnormalized_curvature"),
        "curvature.unnormalized_curvature.self_s": self_sum("curvature.unnormalized_curvature"),
        "curvature.closed_form_curvature.self_s": self_sum("curvature.closed_form_curvature"),
        "curvature.positivity_scan.self_s": self_sum("curvature.positivity_scan"),
        "curvature.negative_search.self_s": self_sum("curvature.negative_search"),
        "rigidbody.evolve_rigidbody.self_s": self_sum("rigidbody.evolve_rigidbody"),
        "rigidbody.hat.calls": calls("rigidbody.hat"),
        "rigidbody.coadjoint_drift.self_s": self_sum("rigidbody.coadjoint_drift"),
        "csvio.write.self_s": self_sum(*WRITERS),
        "csvio.rows_written": rows,
        "csvio.bytes_written": size,
        "csvio.read_snapshot.self_s": self_sum("csvio.read_snapshot"),
        "cli.run.self_s": self_sum("cli.run"),
    }
