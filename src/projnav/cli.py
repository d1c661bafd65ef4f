"""Command line front end.

Subcommands mesh, run, mms and interp-verify.  Options come from an
optional flat "key = value" config file plus flag overrides; every reject
path names the offending key.  Each command reads the config keys
``_COMMANDS`` lists and takes --config and the flags that set them: a
config file may hold only those keys, as the command line only those
flags.  ``n`` sizes a ``structured`` mesh and is a usage error beside any
other mesh.  Every step of ``run`` and ``mms`` passes
``scheme.ENERGY_BOUND`` or fails the command.  Exit codes: 0 success, 1
usage errors, 2 bad input data, 3 numerical failures, each failure with
one JSON line.  A closed stdout also exits 1, with nothing on stderr: no
JSON line can be written there.  PROJNAV_SEED seeds the random trials of
the property suites (default 42).
"""

import argparse
import json
import os
import sys

import numpy as np

from . import mms
from .fem import SpaceP1, SpaceP2Vector, cell_div_moments, div_moments
# edge_bubble stays importable here: the benchmark's tracer wraps the
# interpolation names by their lookup on this module
from .interp import (divergence_correct, edge_bubble, edge_bubble_residuals,
                     pi_n, pi_n_convergence_study)
from .mesh import (MeshError, build_pathological_mesh,
                   build_structured_unit_square, mesh_metrics, read_mesh_file,
                   write_mesh_file)
from .scheme import (SchemeConfig, SchemeError, csv_text, diagnostics_csv,
                     l2l2_velocity_error, run)
from .vtk import write_vtk_fields

USAGE_ERROR = 1
DATA_ERROR = 2
NUMERICAL_ERROR = 3

_AT_LEAST_1 = (lambda v: v is None or v >= 1, "must be >= 1")
_UNIT = (lambda v: 0 < v < 1, "must lie in (0, 1)")
_FINITE = (lambda v: 0 < v < np.inf, "must be positive and finite")

# every config key: its type, its default and its range check (test,
# message) or None; a key is checked where its command reads it
_CONFIG_KEYS = {
    "mesh": (str, "structured:8", None), "n": (int, None, _AT_LEAST_1),
    "steps": (int, 8, _AT_LEAST_1), "T": (float, 1.0, _FINITE),
    "pred_tol": (float, 1e-12, _UNIT), "corr_tol": (float, 1e-12, _UNIT),
    "problem": (str, "mms", None), "out": (str, ".", None),
    "emit_fields": (bool, False, None), "levels": (str, "8,16,32", None),
}
_DEFAULTS = {key: default for key, (_, default, _) in _CONFIG_KEYS.items()}


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as CliError; subcommand parsers inherit it."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}", USAGE_ERROR)


def _fail(reason, code):
    print(json.dumps({"status": "fail", "code": code, "reason": reason}))
    return code


def _parse_bool(text, key):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise CliError(f"config key '{key}': expected a boolean, got {text!r}",
                   USAGE_ERROR)


def load_config(path, command=None):
    """Flat 'key = value' file; '#' starts a comment.  With ``command``, a
    key that command does not read is a usage error."""
    keys = _CONFIG_KEYS if command is None else _COMMANDS[command][3]
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as err:
        raise CliError(f"cannot read config file {path}: {err}", USAGE_ERROR)
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'",
                           USAGE_ERROR)
        key, _, value = (t.strip() for t in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key '{key}'",
                           USAGE_ERROR)
        if key not in keys:
            raise CliError(f"{path}:{lineno}: config key '{key}' is not read "
                           f"by command '{command}'", USAGE_ERROR)
        caster = _CONFIG_KEYS[key][0]
        try:
            values[key] = (_parse_bool(value, key) if caster is bool
                           else caster(value))
        except ValueError:
            raise CliError(
                f"{path}:{lineno}: config key '{key}': cannot parse {value!r}",
                USAGE_ERROR)
    return values


def gather_options(args):
    """Defaults, then the config file, then the flags given."""
    given = {k: v for k, v in vars(args).items() if k != "command"}
    opts = dict(_DEFAULTS)
    config = given.pop("config", None)
    if config:
        opts.update(load_config(config, args.command))
    if "pred_tol" in given:  # --tol sets both tolerances
        given["corr_tol"] = given["pred_tol"]
    opts.update(given)
    for key in _COMMANDS[args.command][3]:
        check = _CONFIG_KEYS[key][2]
        if check and not check[0](opts[key]):
            raise CliError(f"config key '{key}': {check[1]}", USAGE_ERROR)
    return opts


def build_mesh(opts):
    kind, _, arg = opts["mesh"].partition(":")
    if opts["n"] is not None:
        if kind != "structured":
            raise CliError(f"config key 'n': only a structured mesh has a "
                           f"size, got mesh '{opts['mesh']}'", USAGE_ERROR)
        arg = str(opts["n"])
    try:
        if kind == "structured":
            arg = arg or "8"
            if not arg.strip().isdecimal() or int(arg) < 1:
                raise CliError("config key 'mesh': structured n must be an "
                               f"integer >= 1, got {arg!r}", USAGE_ERROR)
            return build_structured_unit_square(int(arg))
        if kind == "file":
            if not arg:
                raise CliError("config key 'mesh': file path missing",
                               USAGE_ERROR)
            return read_mesh_file(arg)
        if kind == "pathological" and arg in ("", "all_boundary_cell"):
            return build_pathological_mesh()
    except MeshError as err:
        raise CliError(f"invalid mesh: {err}", DATA_ERROR)
    except OSError as err:
        raise CliError(f"cannot read mesh file: {err}", DATA_ERROR)
    raise CliError(f"config key 'mesh': unknown mesh '{opts['mesh']}'",
                   USAGE_ERROR)


def _problem_data(opts):
    problem = opts["problem"]
    if problem == "mms":
        return mms.initial_velocity, mms.forcing, False
    if problem == "zero":
        zero2 = lambda pts: np.zeros((len(pts), 2))
        return zero2, (lambda pts, t: np.zeros((len(pts), 2))), False
    if problem == "stokes":
        return mms.initial_velocity, mms.forcing, True
    raise CliError(f"config key 'problem': unknown value '{problem}'",
                   USAGE_ERROR)


def _outdir(opts):
    out = opts["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _seed():
    try:
        return int(os.environ.get("PROJNAV_SEED", "42"))
    except ValueError:
        raise CliError("PROJNAV_SEED must be an integer", USAGE_ERROR)


def cmd_mesh(args):
    opts = gather_options(args)
    mesh = build_mesh(opts)
    out = _outdir(opts)
    path = os.path.join(out, "mesh.txt")
    write_mesh_file(mesh, path)
    h_t, theta_t = mesh_metrics(mesh)
    print(f"mesh: {mesh.n_vertices} vertices, {mesh.n_cells} cells, "
          f"{mesh.n_edges} edges, {len(mesh.boundary_edges)} boundary edges")
    print(f"h_T = {h_t:.6g}, theta_T = {theta_t:.6g}")
    print(f"wrote {path}")
    return 0


def _run_scheme(opts, store_fields=False):
    mesh = build_mesh(opts)
    space2 = SpaceP2Vector(mesh)
    space1 = SpaceP1(mesh, zero_mean=True)
    u0, f, skip_conv = _problem_data(opts)
    config = SchemeConfig(n_steps=opts["steps"], t_final=opts["T"],
                          pred_tol=opts["pred_tol"], corr_tol=opts["corr_tol"],
                          skip_convection=skip_conv,
                          store_fields=store_fields)
    return run(space2, space1, u0, f, config)


def cmd_run(args):
    opts = gather_options(args)
    result = _run_scheme(opts)
    out = _outdir(opts)
    path = os.path.join(out, "diagnostics.csv")
    with open(path, "w") as fh:
        fh.write(diagnostics_csv(result.diagnostics))
    print(f"wrote {path}")
    if opts["emit_fields"]:
        vtk_path = os.path.join(out, "fields_final.vtk")
        write_vtk_fields(vtk_path, result.ops.space2,
                         u_tilde=result.state.u_tilde,
                         u=result.state.u, pressure=result.state.p)
        print(f"wrote {vtk_path}")
    last = result.diagnostics[-1]
    print(f"final: t={last.t:.6g} u_l2={last.u_l2:.6e} "
          f"energy_residual={last.energy_residual:.3e}")
    return 0


def _parse_levels(opts):
    try:
        levels = [int(t) for t in opts["levels"].split(",") if t.strip()]
    except ValueError:
        raise CliError(f"config key 'levels': cannot parse {opts['levels']!r}",
                       USAGE_ERROR)
    if not levels or any(n < 1 for n in levels):
        raise CliError("config key 'levels': need positive integers",
                       USAGE_ERROR)
    return levels


def cmd_mms(args):
    opts = gather_options(args)
    levels = _parse_levels(opts)
    out = _outdir(opts)
    rows = []
    for n in levels:
        sub = dict(opts)
        sub["mesh"] = f"structured:{n}"
        sub["n"] = None
        sub["steps"] = n
        result = _run_scheme(sub, store_fields=True)
        err_u = l2l2_velocity_error(result, mms.velocity, which="u")
        err_ut = l2l2_velocity_error(result, mms.velocity, which="ut")
        h, _ = mesh_metrics(result.ops.space2.mesh)
        order = (np.log2(rows[-1]["err_u"] / err_u) if rows else float("nan"))
        rows.append({"n": n, "h": h, "N": n, "dt": result.dt,
                     "err_u": err_u, "err_ut": err_ut, "order_u": order})
    path = os.path.join(out, "mms.csv")
    header = ("n", "h", "N", "dt", "err_u", "err_ut", "order_u")
    with open(path, "w") as fh:
        fh.write(csv_text(header, [[r[k] for k in header] for r in rows]))
    print(f"wrote {path}")
    for r in rows:
        print(f"n={r['n']}: err_u={r['err_u']:.6e} err_ut={r['err_ut']:.6e} "
              f"order={r['order_u']:.3f}")
    errs = [r["err_u"] for r in rows]
    if any(b >= a for a, b in zip(errs, errs[1:])):
        raise CliError("velocity error is not strictly decreasing",
                       NUMERICAL_ERROR)
    print("mms study: PASS")
    return 0


def _piddiv_gaps(space2, rng, count):
    """(count, nv) vertex moments of div(divergence_correct(w) - w) for
    ``count`` random interior fields w, drawn and corrected as one batch;
    the draw gives the numbers of ``count`` draws of one field."""
    mesh = space2.mesh
    fields = np.zeros((count, space2.n_scalar, 2))
    fields[:, space2.interior_dofs] = rng.standard_normal(
        (count, len(space2.interior_dofs), 2))
    cells = np.tile(np.arange(mesh.n_cells), count)
    keys = np.arange(count)[:, None] * mesh.n_vertices + mesh.cells.ravel()

    # one pass per side: a single pass over both raised the peak RSS
    def moments(w):
        local = space2.local(w).reshape(-1, 6, 2)
        cell = cell_div_moments(mesh, local, cells)
        return np.bincount(keys.ravel(), cell.ravel()).reshape(count, -1)

    return moments(divergence_correct(fields, space2)) - moments(fields)


def _interp_lemma_suite(levels, spaces, study, seed):
    """Max residuals of the edge-bubble and divergence-preservation lemmas.

    ``spaces`` holds the P2 space of each level and ``study`` its row of
    ``pi_n_convergence_study`` for the spline bump field.
    """
    report = {"bij": 0.0, "antisymmetry": 0.0, "piddiv": 0.0,
              "divpinzero": 0.0}
    bubble_spaces = spaces + [
        SpaceP2Vector(build_pathological_mesh(n_cells=k))
        for k in (1, 3)]
    for space2 in bubble_spaces:
        for name, worst in edge_bubble_residuals(space2).items():
            report[name] = max(report[name], worst)

    space2 = SpaceP2Vector(build_structured_unit_square(4))
    gaps = _piddiv_gaps(space2, np.random.default_rng(seed), 200)
    report["piddiv"] = float(np.abs(gaps).max())

    # both branches of the composite interpolator satisfy the zero-moment
    # lemma: corrected outputs by construction, zeroed ones trivially.
    # The built-in test field is piecewise polynomial with knots at
    # multiples of 1/8; only levels aligned with them integrate exactly.
    aligned = [(n, space2, row["field"], row["status"])
               for n, space2, row in zip(levels, spaces, study) if n % 8 == 0]
    if not aligned:
        space2 = SpaceP2Vector(build_structured_unit_square(8))
        aligned = [(8, space2, *pi_n(mms.spline_bump_field(), space2))]
    statuses = []
    for n, space2, out, status in aligned:
        statuses.append((n, status))
        report["divpinzero"] = max(
            report["divpinzero"],
            float(np.abs(div_moments(out, SpaceP1(space2.mesh))).max()),
            float(np.abs(out.coeffs[~space2.interior_mask]).max()))
    return report, statuses


def cmd_interp_verify(args):
    opts = gather_options(args)
    levels = _parse_levels(opts)
    out = _outdir(opts)
    seed = _seed()
    spaces = [SpaceP2Vector(build_structured_unit_square(n)) for n in levels]
    rows = pi_n_convergence_study(mms.spline_bump_field(), spaces)
    report, statuses = _interp_lemma_suite(levels, spaces, rows, seed)
    tolerances = {"bij": 1e-12, "antisymmetry": 0.0, "piddiv": 1e-11,
                  "divpinzero": 1e-11}
    failed = []
    for name, worst in report.items():
        ok = worst <= tolerances[name]
        print(f"lemma {name}: max residual {worst:.3e} "
              f"(tol {tolerances[name]:g}) {'PASS' if ok else 'FAIL'}")
        if not ok:
            failed.append(name)
    print("interpolator branch per level: "
          + ", ".join(f"n={n}:{s}" for n, s in statuses))

    path = os.path.join(out, "interp_study.csv")
    header = ("n", "h", "status", "err_linf", "err_w1inf", "err_h1", "e_norm",
              "observed_order")
    with open(path, "w") as fh:
        fh.write(csv_text(header, [[r[k] for k in header] for r in rows]))
    print(f"wrote {path}")
    if failed:
        raise CliError(f"lemma checks failed: {', '.join(failed)}",
                       NUMERICAL_ERROR)
    print("interp verification: PASS")
    return 0


# every flag once, each setting the config key its dest names; --tol sets
# both tolerances, and every command takes --config
_FLAGS = {
    "config": {"help": "flat key = value config file"},
    "out": {"help": "output directory"},
    "n": {"type": int, "help": "structured mesh resolution"},
    "steps": {"type": int, "help": "number of time steps"},
    "tol": {"type": float, "dest": "pred_tol", "metavar": "TOL",
            "help": "relative residual at which each solve stops at the "
                    "latest (both solves)"},
    "emit-fields": {"action": "store_true", "dest": "emit_fields",
                    "help": "also write fields_final.vtk"},
    "levels": {"help": "comma separated resolutions"},
}

# per command: the name of its function, looked up when it is called so
# that a wrapper set on this module is the one that runs, its help text,
# its flags, those of the keys it reads in _FLAGS order, and those keys
_COMMANDS = {
    name: (fn, text, tuple(f for f, spec in _FLAGS.items()
                           if f == "config" or spec.get("dest", f) in keys),
           keys)
    for name, (fn, text, keys) in {
        "mesh": ("cmd_mesh", "generate and inspect a mesh",
                 ("mesh", "n", "out")),
        "run": ("cmd_run", "run the projection scheme",
                ("mesh", "n", "steps", "T", "pred_tol", "corr_tol",
                 "problem", "out", "emit_fields")),
        "mms": ("cmd_mms", "manufactured-solution convergence",
                ("T", "pred_tol", "corr_tol", "problem", "out", "levels")),
        "interp-verify": ("cmd_interp_verify",
                          "interpolation lemma suite and study",
                          ("out", "levels")),
    }.items()}


def main(argv=None):
    parser = _Parser(
        prog="projnav",
        description="Incremental projection Navier-Stokes on Taylor-Hood "
                    "triangles: audited runs and interpolation checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, flags, _) in _COMMANDS.items():
        # a flag not given sets no attribute for gather_options to copy
        p = sub.add_parser(name, help=text,
                           argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    try:
        return _dispatch(parser, argv)
    except BrokenPipeError:
        # as the Python docs' note on SIGPIPE does: the interpreter's own
        # flush at exit then has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_ERROR


def _dispatch(parser, argv):
    try:
        args = parser.parse_args(argv)
        return globals()[_COMMANDS[args.command][0]](args)
    except CliError as err:
        return _fail(str(err), err.code)
    except MeshError as err:
        return _fail(str(err), DATA_ERROR)
    except SchemeError as err:
        return _fail(str(err), NUMERICAL_ERROR)
    finally:
        # a buffered stdout meets a closed reader here, not at exit;
        # --help too, whose SystemExit this replaces
        sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
