"""The benchmark's workloads: inputs from a seed, timed phases, output checks.

Every workload runs four phases in one process, each timed with the clock
around plain library calls, so no tracing is needed for them:

  setup   build or read the mesh, the spaces and what the solve needs
  solve   the program's main computation
  output  write the result files
  verify  the program's own invariant computations on the result

The Navier-Stokes workloads call the library in the order ``projnav run``
does.  ``interp-verify`` runs the CLI command of that name in-process as
its verify phase; its setup, solve and output phases build the level
meshes, compute the divergence-preserving interpolants and write them.

Checks compare against the closed-form manufactured solution and against
identities the method must satisfy, never against stored output.
"""

import contextlib
import csv
import io
import os
import re
import statistics
import time

import numpy as np

from projnav import cli, fem, interp, mesh, mms, scheme, vtk

# phases other than the solve and the interp-verify command are timed again
# in at least MIN_RUNS rounds, which take at least MIN_PHASE_S per phase:
# a single sample of a sub-second phase moves by 10-80 % with the load
MIN_PHASE_S = 0.5
MIN_RUNS = 3

# err_max bounds the L2(0,T;L2) error of the corrected velocity against
# mms.velocity; see README for the measured values and the margin.
SIZES = {
    "full": {
        "ns-large": {"n": 64, "steps": 2, "err_max": 8e-3},
        "ns-long": {"n": 16, "steps": 200, "err_max": 7e-5},
        "interp-verify": {"levels": (8, 16, 32)},
    },
    "tiny": {
        "ns-large": {"n": 4, "steps": 2, "err_max": 2e-2},
        "ns-long": {"n": 4, "steps": 16, "err_max": 2e-2},
        "interp-verify": {"levels": (8, 16)},
    },
}

ENERGY_RESIDUAL_MAX = 1e-14
WEAK_DIV_MAX = 1e-10
# the interp-verify command's own tolerances, per lemma
LEMMA_TOL = {"bij": 1e-12, "antisymmetry": 0.0, "piddiv": 1e-11,
             "divpinzero": 1e-11}


def _signed_areas(vertices, cells):
    p0, p1, p2 = (vertices[cells[:, k]] for k in range(3))
    return ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
            - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0]))


def make_inputs(workload, seed, size, out_dir):
    """Write the workload's input files; returns their paths by role.

    ns-long: the structured n x n mesh with every interior vertex moved by
    a seeded offset below a quarter cell in each coordinate.  A draw that
    would shrink some cell below a tenth of its area (or flip it) is
    replaced by the next draw of the same generator, so the mesh depends on
    the seed alone.
    """
    if workload != "ns-long":
        return {}
    n = size["n"]
    base = mesh.build_structured_unit_square(n)
    inner = base.interior_vertices
    area0 = _signed_areas(base.vertices, base.cells)
    rng = np.random.default_rng(seed)
    while True:
        verts = base.vertices.copy()
        verts[inner] += rng.uniform(-1.0, 1.0, size=(len(inner), 2)) * 0.25 / n
        if np.all(_signed_areas(verts, base.cells) > 0.1 * area0):
            break
    path = os.path.join(out_dir, "mesh.txt")
    mesh.write_mesh_file(mesh.build_from_arrays(verts, base.cells), path)
    return {"mesh": path}


class _Phases:
    """Wall time of each phase; a span per phase when traced.

    ``once`` times one call.  Untraced, ``sample`` then times the short
    phases again in rounds, one call of each per round, so the samples of
    every phase are spread over the whole window instead of one slice of
    it: the machine's speed moves by up to a factor 1.8 from one second to
    the next.  Traced, nothing is repeated, so the per-layer totals count
    one pass of the workload.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.samples = {}

    @property
    def times(self):
        return {k: statistics.median(v) for k, v in self.samples.items()}

    def once(self, name, fn):
        ctx = (self.tracer.region(f"bench.{name}") if self.tracer
               else contextlib.nullcontext())
        with ctx:
            t0 = time.perf_counter()
            out = fn()
            self.samples.setdefault(f"{name}_s", []).append(
                time.perf_counter() - t0)
        return out

    def sample(self, fns, seconds):
        """Rounds of every phase in ``fns`` (name -> function), at least
        MIN_RUNS of them and until they have taken ``seconds``."""
        if self.tracer is not None:
            return
        t0 = time.perf_counter()
        rounds = 0
        while rounds < MIN_RUNS or time.perf_counter() - t0 < seconds:
            for name, fn in fns.items():
                self.once(name, fn)
            rounds += 1


def _check_vtk(path, n_points, n_subcells, failures):
    with open(path) as fh:
        head = [fh.readline().strip() for _ in range(5)]
    if head[0] != "# vtk DataFile Version 2.0":
        failures.append(f"{path}: not a legacy VTK file")
    elif head[4] != f"POINTS {n_points} double":
        failures.append(f"{path}: expected {n_points} points, header "
                        f"{head[4]!r}")
    with open(path) as fh:
        if f"CELLS {n_subcells} {4 * n_subcells}\n" not in fh:
            failures.append(f"{path}: expected {n_subcells} subcells")
    os.remove(path)


def run_ns(size, inputs, out_dir, tracer=None):
    """ns-large / ns-long: MMS Navier-Stokes with convection, T = 1."""
    phases = _Phases(tracer)

    def setup():
        if "mesh" in inputs:
            m = mesh.read_mesh_file(inputs["mesh"])
        else:
            m = mesh.build_structured_unit_square(size["n"])
        s2 = fem.SpaceP2Vector(m)
        s1 = fem.SpaceP1(m, zero_mean=True)
        return s2, s1, scheme.SchemeOperators(s2, s1)

    s2, s1, ops = phases.once("setup", setup)
    config = scheme.SchemeConfig(n_steps=size["steps"], t_final=1.0,
                                 pred_tol=1e-12, corr_tol=1e-12,
                                 store_fields=True)
    result = phases.once("solve", lambda: scheme.run(
        s2, s1, mms.initial_velocity, mms.forcing, config, ops=ops))

    csv_path = os.path.join(out_dir, "diagnostics.csv")
    vtk_path = os.path.join(out_dir, "fields_final.vtk")

    def output():
        with open(csv_path, "w") as fh:
            fh.write(scheme.diagnostics_csv(result.diagnostics))
        vtk.write_vtk_fields(vtk_path, s2, u_tilde=result.state.u_tilde,
                             u=result.state.u, pressure=result.state.p)

    phases.once("output", output)

    def verify():
        wdm = max(float(np.abs(fem.weak_div_moments(
            u, s1, grad=ops.grad, lap=ops.lap)).max())
            for u in result.u_history)
        err = scheme.l2l2_velocity_error(result, mms.velocity, which="u")
        return wdm, err

    wdm, err = phases.once("verify", verify)
    short = {"setup": setup, "output": output, "verify": verify}
    phases.sample(short, MIN_PHASE_S * len(short))

    failures = []
    rows = np.array([d.row() for d in result.diagnostics], dtype=float)
    if len(rows) != size["steps"] or not np.all(np.isfinite(rows)):
        failures.append("diagnostics missing or not finite")
    worst = max(d.energy_residual for d in result.diagnostics)
    if not worst <= ENERGY_RESIDUAL_MAX:
        failures.append(f"energy residual {worst:.3e} > {ENERGY_RESIDUAL_MAX}")
    if not wdm <= WEAK_DIV_MAX:
        failures.append(f"max |weak div moment| {wdm:.3e} > {WEAK_DIV_MAX}")
    if not 0.0 < err <= size["err_max"]:
        failures.append(f"L2L2 velocity error {err:.6e} outside "
                        f"(0, {size['err_max']}]")
    _check_vtk(vtk_path, s2.n_scalar, 4 * s2.mesh.n_cells, failures)
    return {
        "phases": phases.times,
        "samples": phases.samples,
        "failures": failures,
        "checks": {"energy_residual_max": worst, "weak_div_max": wdm,
                   "l2l2_error": err,
                   "pred_iters": int(rows[:, 8].sum()),
                   "corr_iters": int(rows[:, 9].sum())},
        "diagnostics": csv_path,
    }


_LEMMA_LINE = re.compile(r"lemma (\w+): max residual (\S+) \(tol [^)]*\) "
                         r"(PASS|FAIL)")


def _check_interp_command(rc, text, levels, study_path, failures):
    if rc != 0:
        failures.append(f"interp-verify exit code {rc}")
    lemmas = {m.group(1): (float(m.group(2)), m.group(3))
              for m in _LEMMA_LINE.finditer(text)}
    for name, tol in LEMMA_TOL.items():
        if name not in lemmas:
            failures.append(f"lemma {name} not reported")
        elif not (lemmas[name][0] <= tol and lemmas[name][1] == "PASS"):
            failures.append(f"lemma {name} residual {lemmas[name][0]:.3e} "
                            f"above {tol:g}")
    aligned = [n for n in levels if n % 8 == 0] or [8]
    expected = "interpolator branch per level: " + ", ".join(
        f"n={n}:corrected" for n in aligned)
    if expected not in text.splitlines():
        failures.append("interpolator branch is not 'corrected' at "
                        "every level")
    with open(study_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    h = [float(r["h"]) for r in rows]
    err = [float(r["err_w1inf"]) for r in rows]
    if [int(r["n"]) for r in rows] != list(levels):
        failures.append("interp_study.csv does not list every level")
    elif any(r["status"] != "corrected" for r in rows):
        failures.append("interp_study.csv has a level not 'corrected'")
    elif not all(h1 < h0 and e1 < e0 for h0, h1, e0, e1
                 in zip(h, h[1:], err, err[1:])):
        failures.append("err_w1inf is not strictly decreasing with h")
    return {"lemmas": {k: v[0] for k, v in lemmas.items()},
            "err_w1inf": err}


def run_interp_verify(size, inputs, out_dir, tracer=None):
    """The interpolation toolbox: interpolants, then the lemma command."""
    levels = size["levels"]
    phases = _Phases(tracer)
    field = mms.spline_bump_field()

    def setup():
        return [fem.SpaceP2Vector(mesh.build_structured_unit_square(n))
                for n in levels]

    spaces = phases.once("setup", setup)

    def solve():
        return [interp.pi_n(field, s) for s in spaces]

    interpolants = phases.once("solve", solve)
    paths = [os.path.join(out_dir, f"interp_{n}.vtk") for n in levels]

    def output():
        for path, space, (u, _) in zip(paths, spaces, interpolants):
            vtk.write_vtk_fields(path, space, u_tilde=u)

    phases.once("output", output)

    def verify():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["interp-verify", "--levels",
                           ",".join(str(n) for n in levels),
                           "--out", out_dir])
        return rc, buf.getvalue()

    # the short phases are sampled on both sides of the command, so their
    # samples come from two moments of the machine ten seconds apart
    short = {"setup": setup, "solve": solve, "output": output}
    phases.sample(short, MIN_PHASE_S * len(short) / 2)
    rc, text = phases.once("verify", verify)
    phases.sample(short, MIN_PHASE_S * len(short) / 2)

    failures = []
    for n, (u, status) in zip(levels, interpolants):
        if status != "corrected" or not u.in_velocity_space():
            failures.append(f"pi_n at n={n}: branch {status}")
    for path, space in zip(paths, spaces):
        _check_vtk(path, space.n_scalar, 4 * space.mesh.n_cells, failures)
    checks = _check_interp_command(
        rc, text, levels, os.path.join(out_dir, "interp_study.csv"), failures)
    return {"phases": phases.times, "samples": phases.samples,
            "failures": failures, "checks": checks}


def run_workload(workload, size, inputs, out_dir, tracer=None):
    if workload == "interp-verify":
        return run_interp_verify(size, inputs, out_dir, tracer)
    return run_ns(size, inputs, out_dir, tracer)
