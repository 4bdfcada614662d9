"""Spans around the public functions of kummerflat, installed from outside.

The tracer replaces every public module-level function of the six
kummerflat modules (and a few named methods) with a wrapper that
records a span: name, start, end, parent span, and whether it raised.
The program's own code is unchanged; the wrappers are removed again by
uninstall().  Spans stay in memory until the pass ends.  Self time is a
span's duration minus the durations of its direct child spans; busy
time of a layer counts each interval once, even when the layer calls
itself.

Calls made through a name bound before install() (a closure or an
object captured at import time) are not seen; the preconditioner is a
closure inside invert_laplacian, so it is traced through
solver._flat_inverse, its only module-level callee.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import time


def _targets():
    """Modules, methods and private functions the tracer wraps.

    Imported here, not at module level, so that the runner can list the
    metric names without importing the program."""
    import kummerflat.cli
    import kummerflat.eguchi_hanson
    import kummerflat.forms
    import kummerflat.gibbons_hawking
    import kummerflat.kummer
    import kummerflat.solver

    modules = (
        kummerflat.kummer,
        kummerflat.solver,
        kummerflat.forms,
        kummerflat.eguchi_hanson,
        kummerflat.gibbons_hawking,
        kummerflat.cli,
    )
    methods = (
        (kummerflat.solver.Problem, "build"),
        (kummerflat.forms.Chart, "validate"),
        (kummerflat.forms.CoefficientForm, "max_abs"),
        (kummerflat.eguchi_hanson.MetricTensor, "__post_init__"),
    )
    private = ((kummerflat.solver, "_flat_inverse"),)
    return modules, methods, private


MB = 1024.0 * 1024.0


def _short(module_name):
    return module_name.rsplit(".", 1)[-1]


# Probes record array sizes after a call returns, for the computed
# per-layer numbers below.  They run outside the span they describe.
def _size_of_first(args, kwargs, result):
    return int(getattr(args[0], "size", 0))


def _holder_args(args, kwargs, result):
    f, dx, alpha, r_ball = args[:4]
    return [int(f.size), float(dx), float(r_ball)]


def _field_bytes(args, kwargs, result):
    return int(result.data.nbytes)


def _file_bytes(args, kwargs, result):
    return int(os.path.getsize(args[1]))


PROBES = {
    "solver.complex_hessian": _size_of_first,
    "solver._flat_inverse": _size_of_first,
    "solver.holder_seminorm": _holder_args,
    "kummer.build_omega0": _field_bytes,
    "kummer.save_field": _file_bytes,
}

# Per-layer metrics: (metric prefix, span name, fields).  "s" is busy
# time, "self_s" self time, "calls" the number of spans.
LAYERS = (
    ("kummer.build_omega0", "kummer.build_omega0", ("s", "self_s", "calls")),
    ("kummer.save_field", "kummer.save_field", ("s",)),
    ("solver.Problem.build", "solver.Problem.build", ("s", "self_s", "calls")),
    ("solver.invert_laplacian", "solver.invert_laplacian", ("s", "self_s", "calls")),
    ("solver.complex_hessian", "solver.complex_hessian", ("s", "calls")),
    ("solver.hermitian_bracket", "solver.hermitian_bracket", ("s", "calls")),
    ("solver.precondition", "solver._flat_inverse", ("s", "calls")),
    ("solver.flat_symbol", "solver.flat_symbol", ("s", "calls")),
    ("solver.y_norm", "solver.y_norm", ("s", "self_s", "calls")),
    ("solver.holder_seminorm", "solver.holder_seminorm", ("s", "calls")),
    ("solver.banach_solve", "solver.banach_solve", ("s", "self_s")),
    ("solver.ma_residual", "solver.ma_residual", ("s", "calls")),
    ("solver.corrected_min_eigenvalue", "solver.corrected_min_eigenvalue", ("s", "calls")),
    ("solver.quadratic_Q", "solver.quadratic_Q", ("s", "calls")),
    ("solver.laplacian", "solver.laplacian", ("s", "calls")),
    ("solver.lambda1_estimate", "solver.lambda1_estimate", ("s", "self_s", "calls")),
    ("solver.poincare_check", "solver.poincare_check", ("s",)),
    ("eguchi_hanson.eh_metric", "eguchi_hanson.eh_metric", ("s", "self_s", "calls")),
    ("eguchi_hanson.MetricTensor.post_init", "eguchi_hanson.MetricTensor.__post_init__",
     ("s", "calls")),
    ("eguchi_hanson.ricci_residual", "eguchi_hanson.ricci_residual", ("s",)),
    ("forms.max_abs", "forms.CoefficientForm.max_abs", ("s", "calls")),
    ("forms.chart_validate", "forms.Chart.validate", ("s", "calls")),
    ("gibbons_hawking.curl_residual", "gibbons_hawking.curl_residual", ("s",)),
    ("gibbons_hawking.harmonic_residual", "gibbons_hawking.harmonic_residual", ("s",)),
    ("gibbons_hawking.isometry_residual", "gibbons_hawking.isometry_residual", ("s",)),
    ("cli.verify_eh_checks", "cli.verify_eh_checks", ("s",)),
    ("cli.verify_gh_checks", "cli.verify_gh_checks", ("s",)),
)
ARTIFACT_WRITERS = ("solver.write_trace_csv", "solver.write_summary_json", "solver.dump_json")

# Names of every per-layer metric layer_metrics() returns, besides the
# pass-level trace.* numbers run.py adds.
UNIT = {"s": "s", "self_s": "s", "calls": "count"}
EXTRA_METRICS = {
    "kummer.save_field.mb": "MB",
    "kummer.field_storage.mb": "MB",
    "solver.invert_laplacian.pcg_iters": "count",
    "solver.invert_laplacian.failed": "count",
    "solver.banach_solve.picard_iters": "count",
    "solver.artifacts.s": "s",
    "solver.complex_hessian.flops_computed": "count",
    "solver.complex_hessian.bytes_computed": "B",
    "solver.precondition.flops_computed": "count",
    "solver.precondition.bytes_computed": "B",
    "solver.holder_seminorm.flops_computed": "count",
    "solver.holder_seminorm.bytes_computed": "B",
}


def metric_units():
    """Every metric name layer_metrics() returns, with its unit."""
    units = {f"{prefix}.{f}": UNIT[f] for prefix, _, fields in LAYERS for f in fields}
    units.update(EXTRA_METRICS)
    return units


# Computed work models, from array sizes only (cache misses ignored).
# complex_hessian on N nodes: four 3-point second differences (4 flops
# each), four central-central mixed differences (2 x 2 flops each), and
# 10 flops to combine them into p11, p22 and the complex p12 and its
# conjugate; traffic counted is reading u (8 B) and writing the complex
# 2x2 result (64 B) per node.
HESSIAN_FLOPS_PER_NODE = 4 * 4 + 4 * 4 + 10
HESSIAN_BYTES_PER_NODE = 8 + 64


def _fft_flops(n):
    # 5 N log2 N per complex N-point transform, forward plus inverse,
    # plus a complex-by-real division per node
    return 2 * 5 * n * math.log2(n) + 2 * n


# _flat_inverse reads the real right-hand side and the real symbol,
# writes a complex spectrum, reads it back and writes the real result.
PRECONDITION_BYTES_PER_NODE = 8 + 8 + 16 + 16 + 8


def _holder_offset_count(dx, r_ball):
    from kummerflat.solver import _holder_offsets

    return len(_holder_offsets(dx, r_ball))


class Tracer:
    """Records spans around kummerflat's public functions."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, raised, probe]
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, False, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                span[5] = probe(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules, methods, private = _targets()
        wrappers = {}
        for module in modules:
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(f"{_short(module.__name__)}.{attr}", value)
        for module, attr in private:
            value = getattr(module, attr)
            wrappers[value] = self._wrap(f"{_short(module.__name__)}.{attr}", value)
        # patch every module that holds the function, including names
        # bound by "from .module import function"
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        for cls, attr in methods:
            raw = cls.__dict__[attr]
            name = f"{_short(cls.__module__)}.{cls.__qualname__}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(cls, attr, self._wrap(name, raw))

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def dump_spans(self, fh):
        """Write the spans as JSON lines: name, start, end, parent index, raised."""
        for name, start, end, parent, raised, _ in self.spans:
            fh.write(json.dumps([name, start, end, parent, raised]) + "\n")

    def layer_metrics(self):
        spans = self.spans
        duration = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        for s, d in zip(spans, duration):
            if s[3] >= 0:
                child_time[s[3]] += d

        def outermost(i, names):
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] in names:
                    return False
                parent = spans[parent][3]
            return True

        stats = {}
        for i, s in enumerate(spans):
            st = stats.setdefault(s[0], {"s": 0.0, "self_s": 0.0, "calls": 0})
            st["calls"] += 1
            st["self_s"] += duration[i] - child_time[i]
            if outermost(i, (s[0],)):
                st["s"] += duration[i]

        out = {}
        for prefix, span_name, fields in LAYERS:
            st = stats.get(span_name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for f in fields:
                out[f"{prefix}.{f}"] = st[f]

        def named(name):
            return [i for i, s in enumerate(spans) if s[0] == name]

        def children_named(parent_name, child_name):
            return sum(1 for s in spans
                       if s[0] == child_name and s[3] >= 0 and spans[s[3]][0] == parent_name)

        out["kummer.save_field.mb"] = sum(spans[i][5] or 0 for i in named("kummer.save_field")) / MB
        out["kummer.field_storage.mb"] = max(
            [spans[i][5] or 0 for i in named("kummer.build_omega0")], default=0) / MB
        # each PCG iteration makes exactly one preconditioner call,
        # including the iteration that converges or stagnates
        out["solver.invert_laplacian.pcg_iters"] = children_named(
            "solver.invert_laplacian", "solver._flat_inverse")
        out["solver.invert_laplacian.failed"] = sum(
            1 for i in named("solver.invert_laplacian") if spans[i][4])
        out["solver.banach_solve.picard_iters"] = children_named(
            "solver.banach_solve", "solver.fixed_point_map")
        out["solver.artifacts.s"] = sum(
            duration[i] for i, s in enumerate(spans)
            if s[0] in ARTIFACT_WRITERS and outermost(i, ARTIFACT_WRITERS))

        hess = [spans[i][5] for i in named("solver.complex_hessian") if spans[i][5] is not None]
        out["solver.complex_hessian.flops_computed"] = sum(HESSIAN_FLOPS_PER_NODE * n for n in hess)
        out["solver.complex_hessian.bytes_computed"] = sum(HESSIAN_BYTES_PER_NODE * n for n in hess)
        pre = [spans[i][5] for i in named("solver._flat_inverse") if spans[i][5] is not None]
        out["solver.precondition.flops_computed"] = sum(_fft_flops(n) for n in pre)
        out["solver.precondition.bytes_computed"] = sum(PRECONDITION_BYTES_PER_NODE * n for n in pre)
        # per lattice offset: one subtraction, one absolute value and one
        # comparison per node; reads f and its shifted copy
        flops = nbytes = 0
        offsets = {}
        for i in named("solver.holder_seminorm"):
            if spans[i][5] is None:
                continue
            size, dx, r_ball = spans[i][5]
            if (dx, r_ball) not in offsets:
                offsets[(dx, r_ball)] = _holder_offset_count(dx, r_ball)
            flops += 3 * size * offsets[(dx, r_ball)]
            nbytes += 16 * size * offsets[(dx, r_ball)]
        out["solver.holder_seminorm.flops_computed"] = flops
        out["solver.holder_seminorm.bytes_computed"] = nbytes
        return out
