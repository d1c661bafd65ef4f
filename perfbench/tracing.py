"""Spans around calls into projnav, recorded from the benchmark's side.

The program itself carries no tracing.  ``Tracer.install`` replaces each
traced name where its caller looks it up -- a module global such as
``projnav.scheme.bicgstab_solve`` or a class attribute such as
``CsrMatrix.matvec`` -- by a wrapper that records one span per call: name,
start, end, parent span and run id.  Spans stay in memory until the run
ends; ``write_jsonl`` then writes them out and ``layer_metrics`` reduces
them to the per-layer figures the benchmark reports.
"""

import functools
import importlib
import json
import os
import statistics
import time

# span fields, kept as lists to hold 10^5 spans per run cheaply
NAME, PARENT, START, END, ATTRS = range(5)

# the spans of a step that are not its energy audit
AUDIT_SIBLINGS = ("fem.load", "scheme.predict", "scheme.correct")


def _solver_iters(args, kwargs, result):
    return {"iters": int(result[1].iterations)}


def _matvec_bytes(args, kwargs, result):
    # computed, not measured: data, column index, row index and gathered x
    # per stored entry (8 bytes each), plus the output vector
    a = args[0]
    return {"bytes": 32 * a.nnz + 8 * a.shape[0]}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, annotation); "module:Class" wraps a class
# attribute.  Each entry is the name its caller looks up at call time.
TRACE_POINTS = (
    ("projnav.mesh", "build_structured_unit_square", "mesh.build", None),
    ("projnav.mesh", "read_mesh_file", "mesh.read", None),
    ("projnav.cli", "build_structured_unit_square", "mesh.build", None),
    ("projnav.cli", "build_pathological_mesh", "mesh.build", None),
    ("projnav.scheme", "assemble_mass_p2", "fem.assemble_static", None),
    ("projnav.scheme", "assemble_stiffness_p2", "fem.assemble_static", None),
    ("projnav.scheme", "assemble_grad_coupling", "fem.assemble_static", None),
    ("projnav.scheme", "assemble_pressure_laplacian", "fem.assemble_static",
     None),
    ("projnav.scheme", "assemble_convection", "fem.convection", None),
    ("projnav.scheme", "assemble_load", "fem.load", None),
    ("projnav.fem", "weak_div_moments", "fem.weak_div_moments", None),
    ("projnav.cli", "div_moments", "fem.div_moments", None),
    ("projnav.mms", "forcing", "mms.forcing", None),
    ("projnav.sparse:CsrMatrix", "matvec", "sparse.matvec", _matvec_bytes),
    ("projnav.sparse:CsrMatrix", "rmatvec", "sparse.rmatvec", _matvec_bytes),
    ("projnav.sparse:CsrMatrix", "from_coo", "sparse.from_coo", None),
    ("projnav.scheme", "bicgstab_solve", "sparse.bicgstab", _solver_iters),
    ("projnav.scheme", "cg_solve", "sparse.cg", _solver_iters),
    ("projnav.scheme", "run", "scheme.run", None),
    ("projnav.scheme", "initialize", "scheme.initialize", None),
    ("projnav.scheme", "step", "scheme.step", None),
    ("projnav.scheme", "predict", "scheme.predict", None),
    ("projnav.scheme", "correct", "scheme.correct", None),
    ("projnav.scheme", "l2l2_velocity_error", "scheme.l2l2_error", None),
    ("projnav.cli", "edge_bubble", "interp.edge_bubble", None),
    ("projnav.cli", "divergence_correct", "interp.divergence_correct", None),
    ("projnav.cli", "pi_n", "interp.pi_n", None),
    ("projnav.interp", "pi_n", "interp.pi_n", None),
    ("projnav.cli", "pi_n_convergence_study", "interp.study", None),
    ("projnav.vtk", "write_vtk_fields", "vtk.write", _file_bytes),
    ("projnav.cli", "cmd_interp_verify", "cli.interp_verify", None),
)


class Tracer:
    """In-memory span recorder for one run of one process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else None, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[ATTRS] = note(args, kwargs, result)
            return result

        return traced

    def region(self, name):
        """Span around a block of the benchmark's own code."""
        return _Region(self, name)

    def install(self, points=TRACE_POINTS):
        for module_name, attr, name, note in points:
            module_name, _, class_name = module_name.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                raw = owner.__dict__[attr]
            else:
                raw = getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, note))
            else:
                new = self._wrap(name, raw, note)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "parent": parent,
                       "start": start, "end": end, "run": self.run_id}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


class _Region:
    def __init__(self, tracer, name):
        self.rec = [name, None, 0.0, 0.0, None]
        self.tracer = tracer

    def __enter__(self):
        stack = self.tracer._stack
        self.rec[PARENT] = stack[-1] if stack else None
        self.tracer.spans.append(self.rec)
        stack.append(len(self.tracer.spans) - 1)
        self.rec[START] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[END] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def self_times(spans):
    """Duration of each span minus the durations of its direct children.

    Calls are sequential in one thread, so children never overlap and the
    part of a span they cover is the sum of their durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans):
    """Per-layer figures of one traced run (see README for each metric).

    Times of a function are inclusive of its callees unless the name says
    ``self``; per-step figures are medians over the steps of the run.
    """
    selft = self_times(spans)
    total = {}
    calls = {}
    attr_sum = {}
    for s in spans:
        d = s[END] - s[START]
        total[s[NAME]] = total.get(s[NAME], 0.0) + d
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        for key, value in (s[ATTRS] or {}).items():
            k = (s[NAME], key)
            attr_sum[k] = attr_sum.get(k, 0) + value

    def per_step(name, use_self=False):
        vals = [selft[i] if use_self else s[END] - s[START]
                for i, s in enumerate(spans) if s[NAME] == name]
        return statistics.median(vals) if vals else 0.0

    steps = [i for i, s in enumerate(spans) if s[NAME] == "scheme.step"]
    uncovered = [selft[i] / (spans[i][END] - spans[i][START]) for i in steps]
    # a step is load, predict, correct, then the energy audit
    audit = {i: spans[i][END] - spans[i][START] for i in steps}
    for s in spans:
        if s[PARENT] in audit and s[NAME] in AUDIT_SIBLINGS:
            audit[s[PARENT]] -= s[END] - s[START]
    mv_time = total.get("sparse.matvec", 0.0)
    t = total.get
    c = calls.get
    return {
        "mesh.read_s": t("mesh.read", 0.0),
        "mesh.build_s": t("mesh.build", 0.0),
        "fem.assemble_static_s": t("fem.assemble_static", 0.0),
        "fem.convection_s": t("fem.convection", 0.0),
        "fem.convection_calls": c("fem.convection", 0),
        "fem.load_s": t("fem.load", 0.0),
        "fem.div_moments_s": t("fem.div_moments", 0.0),
        "fem.div_moments_calls": c("fem.div_moments", 0),
        "mms.forcing_s": t("mms.forcing", 0.0),
        "sparse.matvec_s": mv_time,
        "sparse.matvec_calls": c("sparse.matvec", 0),
        "sparse.matvec_bytes_per_s": (
            attr_sum.get(("sparse.matvec", "bytes"), 0) / mv_time
            if mv_time > 0 else 0.0),
        "sparse.bicgstab_s": t("sparse.bicgstab", 0.0),
        "sparse.bicgstab_iters": attr_sum.get(("sparse.bicgstab", "iters"), 0),
        "sparse.cg_s": t("sparse.cg", 0.0),
        "sparse.cg_iters": attr_sum.get(("sparse.cg", "iters"), 0),
        "sparse.from_coo_s": t("sparse.from_coo", 0.0),
        "sparse.from_coo_calls": c("sparse.from_coo", 0),
        "scheme.initialize_s": t("scheme.initialize", 0.0),
        "scheme.step_s": per_step("scheme.step"),
        "scheme.predict_self_s": per_step("scheme.predict", use_self=True),
        "scheme.correct_s": per_step("scheme.correct"),
        "scheme.audit_s": statistics.median(audit.values()) if audit else 0.0,
        "scheme.step_uncovered_share": (statistics.median(uncovered)
                                        if uncovered else 0.0),
        "interp.edge_bubble_s": t("interp.edge_bubble", 0.0),
        "interp.edge_bubble_calls": c("interp.edge_bubble", 0),
        "interp.divergence_correct_s": t("interp.divergence_correct", 0.0),
        "interp.pi_n_s": t("interp.pi_n", 0.0),
        "interp.study_s": t("interp.study", 0.0),
        "vtk.write_s": t("vtk.write", 0.0),
        "vtk.bytes": attr_sum.get(("vtk.write", "bytes"), 0),
        "cli.interp_verify_self_s": sum(
            selft[i] for i, s in enumerate(spans)
            if s[NAME] == "cli.interp_verify"),
    }
