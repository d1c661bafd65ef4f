import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from projnav import cli, mms
from projnav.fem import SpaceP1, SpaceP2Vector
from projnav.mesh import (SimplicialMesh, build_from_arrays,
                          build_structured_unit_square, read_mesh_file,
                          write_mesh_file)
from projnav.scheme import (ENERGY_BOUND, SchemeConfig, SchemeOperators,
                            StepDiagnostics, csv_text, diagnostics_csv,
                            initialize, step)

from oracles import (diagnostics_csv_writer, eval_basis,
                     interp_study_csv_fstring, mms_csv_fstring,
                     piddiv_gaps_by_field)


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_mesh_command_writes_readable_file(tmp_path, capsys):
    code, out = run_cli(["mesh", "--n", "3", "--out", str(tmp_path)], capsys)
    assert code == 0
    mesh = read_mesh_file(tmp_path / "mesh.txt")
    assert mesh.n_cells == 18
    assert "theta_T" in out


def test_run_zero_data_all_norms_vanish(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = zero\nmesh = structured:4\nsteps = 4\nT = 1.0\n")
    code, _ = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)],
                      capsys)
    assert code == 0
    with open(tmp_path / "diagnostics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        for key in ("u_l2", "ut_l2", "ut_h1", "gradp_l2", "gap_l2"):
            assert abs(float(row[key])) <= 1e-14


def test_diagnostics_header_stable(tmp_path, capsys):
    code, _ = run_cli(["run", "--n", "2", "--steps", "2",
                       "--out", str(tmp_path)], capsys)
    assert code == 0
    header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
    assert header == ("n,t,energy_residual,u_l2,ut_l2,ut_h1,gradp_l2,"
                      "gap_l2,pred_iters,corr_iters")


def test_run_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code, _ = run_cli(["run", "--n", "4", "--steps", "3",
                           "--out", str(out)], capsys)
        assert code == 0
    assert (a / "diagnostics.csv").read_bytes() == (b / "diagnostics.csv").read_bytes()


def test_emit_fields_vtk(tmp_path, capsys):
    code, _ = run_cli(["run", "--n", "2", "--steps", "2", "--emit-fields",
                       "--out", str(tmp_path)], capsys)
    assert code == 0
    text = (tmp_path / "fields_final.vtk").read_text().splitlines()
    assert text[0] == "# vtk DataFile Version 2.0"
    assert text[3] == "DATASET UNSTRUCTURED_GRID"
    n_points = int(text[4].split()[1])
    assert n_points == 9 + 16       # vertices + edge midpoints at n=2
    assert any(line.startswith("CELLS 32 ") for line in text)
    assert any(line == "VECTORS u_tilde double" for line in text)
    assert any(line == "VECTORS u_corrected double" for line in text)


def test_only_mms_stores_step_fields(tmp_path, capsys, monkeypatch):
    # run writes the final state alone, so emitting fields must not keep
    # every step's fields
    stored = []
    real_run = cli.run

    def recording_run(space2, space1, u0, f, config, **kwargs):
        stored.append(config.store_fields)
        return real_run(space2, space1, u0, f, config, **kwargs)

    monkeypatch.setattr(cli, "run", recording_run)
    for args in (["run", "--n", "2", "--steps", "2", "--emit-fields"],
                 ["mms", "--levels", "4,8"]):
        code, _ = run_cli(args + ["--out", str(tmp_path)], capsys)
        assert code == 0
    assert stored == [False, True, True]


def test_vtk_cell_data_matches_composite_evaluation(tmp_path, capsys):
    # the combined corrected-velocity cell data must equal the quadratic
    # part at the subcell centroid minus the scaled increment gradient
    import numpy as np
    from projnav import fem
    from projnav.mesh import build_structured_unit_square
    from projnav.scheme import SchemeConfig, run as run_scheme
    from projnav.vtk import write_vtk_fields
    from projnav import mms

    mesh = build_structured_unit_square(2)
    s2 = fem.SpaceP2Vector(mesh)
    s1 = fem.SpaceP1(mesh, zero_mean=True)
    result = run_scheme(s2, s1, mms.initial_velocity, mms.forcing,
                        SchemeConfig(n_steps=2, t_final=0.5))
    path = tmp_path / "f.vtk"
    write_vtk_fields(path, s2, u=result.state.u)
    lines = path.read_text().splitlines()
    start = lines.index("VECTORS u_corrected double") + 1
    emitted = np.array([[float(t) for t in lines[start + k].split()[:2]]
                        for k in range(4 * mesh.n_cells)])

    u = result.state.u
    grads = u.grad_part_cell_gradients()
    from projnav.vtk import _SUBTRIANGLES
    corners = np.array([(1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0),
                        (0, 0.5, 0.5), (0.5, 0, 0.5), (0.5, 0.5, 0)])
    k = 0
    for c in range(mesh.n_cells):
        local = u.p2_part.coeffs[s2.gdof[c]]
        for tri in _SUBTRIANGLES:
            bary = corners[list(tri)].mean(axis=0)
            vals, _ = eval_basis(s2, c, bary)
            expected = vals @ local - u.scale * grads[c]
            assert np.abs(emitted[k] - expected).max() <= 1e-12
            k += 1


def test_energy_audit_pass(tmp_path, capsys):
    code, _ = run_cli(["run", "--n", "4", "--steps", "4",
                       "--out", str(tmp_path)], capsys)
    assert code == 0
    with open(tmp_path / "diagnostics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        assert float(row["energy_residual"]) <= ENERGY_BOUND


def test_loose_tolerance_run_fails_energy_audit(tmp_path, capsys):
    code, out = run_cli(["run", "--n", "16", "--steps", "8", "--tol", "1e-2",
                         "--out", str(tmp_path)], capsys)
    assert code == 3
    reason = _fail_payload(out)["reason"]
    assert reason.startswith("energy identity residual ")
    assert reason.endswith(" exceeds 1e-08 at step 2")


def test_loose_projection_run_fails_divergence_gate(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 16\nsteps = 8\ncorr_tol = 0.1\n")
    code, out = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)],
                        capsys)
    assert code == 3
    reason = _fail_payload(out)["reason"]
    assert reason.startswith("weak-divergence moment ")
    assert reason.endswith(" exceeds 1e-06 at step 1")


def test_mms_levels_pass_and_csv(tmp_path, capsys):
    code, out = run_cli(["mms", "--levels", "4,8", "--out", str(tmp_path)],
                        capsys)
    assert code == 0
    lines = (tmp_path / "mms.csv").read_text().splitlines()
    assert lines[0] == "n,h,N,dt,err_u,err_ut,order_u"
    assert len(lines) == 3
    errs = [float(line.split(",")[4]) for line in lines[1:]]
    assert errs[1] < errs[0]


def test_mms_order_divides_by_the_mesh_size_ratio(tmp_path, capsys):
    # h does not halve from 4 to 6 or from 6 to 8, so the log2 of the
    # error ratio alone is not the order
    code, _ = run_cli(["mms", "--levels", "4,6,8", "--out", str(tmp_path)],
                      capsys)
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in
            (tmp_path / "mms.csv").read_text().splitlines()[1:]]
    for prev, row in zip(rows, rows[1:]):
        assert row[6] == pytest.approx(
            np.log2(prev[4] / row[4]) / np.log2(prev[1] / row[1]), rel=1e-14)


def test_csv_text_matches_the_writers_it_replaced():
    floats = [float("nan"), -0.0, 1e-300, 0.1 + 0.2, np.float64(2.0 / 3.0),
              1.0, -1.2345678901234567e300]
    ints = [0, 7, np.int64(12)]
    rows = [{"n": ints[i % 3], "N": ints[(i + 1) % 3],
             "status": ("corrected", "zeroed")[i % 2],
             **{k: floats[(i + j) % len(floats)] for j, k in enumerate(
                 ("t", "h", "dt", "err_u", "err_ut", "order_u", "err_linf",
                  "err_w1inf", "err_h1", "e_norm", "observed_order"))}}
            for i in range(len(floats))]
    diagnostics = [StepDiagnostics(r["n"], r["t"], r["h"], r["dt"],
                                   r["err_u"], r["err_ut"], r["order_u"],
                                   r["err_linf"], r["N"], r["n"])
                   for r in rows]
    assert diagnostics_csv(diagnostics) == diagnostics_csv_writer(diagnostics)
    for oracle in (mms_csv_fstring, interp_study_csv_fstring):
        header = oracle([]).strip().split(",")
        assert (csv_text(header, [[r[k] for k in header] for r in rows])
                == oracle(rows))


def test_mms_detects_nondecreasing_error(tmp_path, capsys):
    code, out = run_cli(["mms", "--levels", "8,4", "--out", str(tmp_path)],
                        capsys)
    assert code == 3
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["code"] == 3


def test_interp_verify_pass(tmp_path, capsys):
    code, out = run_cli(["interp-verify", "--levels", "2,4,8",
                         "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "lemma bij" in out
    assert "lemma piddiv" in out
    assert "interp verification: PASS" in out
    lines = (tmp_path / "interp_study.csv").read_text().splitlines()
    assert lines[0] == "n,h,status,err_linf,err_w1inf,err_h1,e_norm,observed_order"


def test_interp_verify_div_moments_calls_do_not_grow_with_edges(
        tmp_path, capsys, monkeypatch):
    calls = []

    def counting(name):
        fn = getattr(cli, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(cli, "div_moments", counting("div_moments"))
    monkeypatch.setattr(cli, "cell_div_moments",
                        counting("cell_div_moments"))
    monkeypatch.setattr(cli, "divergence_correct",
                        counting("divergence_correct"))
    code, _ = run_cli(["interp-verify", "--levels", "8,16", "--out",
                       str(tmp_path)], capsys)
    assert code == 0
    # the 200 random fields of the divergence-preservation lemma are one
    # batch: one correction, one moment pass for the corrections and one
    # for the fields; then one div_moments per level aligned with the test
    # field's knots.  None per field or per edge (the two levels and the
    # two small meshes have 1 020 edges)
    assert calls == ["divergence_correct", "cell_div_moments",
                     "cell_div_moments", "div_moments", "div_moments"]


@pytest.mark.parametrize("seed", [42, 7])
def test_piddiv_batch_equals_field_by_field(seed):
    space2 = SpaceP2Vector(build_structured_unit_square(4))
    batched = cli._piddiv_gaps(space2, np.random.default_rng(seed), 200)
    expected = piddiv_gaps_by_field(space2, np.random.default_rng(seed), 200)
    assert batched.shape == expected.shape == (200, 25)
    assert np.array_equal(batched, expected)


def test_program_paths_leave_incidence_lists_unbuilt(tmp_path, capsys,
                                                     monkeypatch):
    meshes = []
    init = SimplicialMesh.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        meshes.append(self)

    monkeypatch.setattr(SimplicialMesh, "__init__", recording)
    mesh = build_structured_unit_square(4)
    s2, s1 = SpaceP2Vector(mesh), SpaceP1(mesh)
    ops = SchemeOperators(s2, s1)
    config = SchemeConfig(n_steps=1, t_final=0.25)
    state = initialize(s2, s1, mms.initial_velocity, ops=ops)
    step(state, mms.forcing, ops, config, ops.prediction_precond(config.dt))
    code, _ = run_cli(["interp-verify", "--levels", "8", "--out",
                       str(tmp_path)], capsys)
    assert code == 0
    # the scheme's mesh, the level, the two pathological meshes and the
    # mesh of the random trials
    assert len(meshes) == 5
    for m in meshes:
        assert "edge_cells" not in m.__dict__
        assert "vertex_cells" not in m.__dict__


def test_interp_verify_respects_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PROJNAV_SEED", "7")
    code, _ = run_cli(["interp-verify", "--levels", "2", "--out",
                       str(tmp_path)], capsys)
    assert code == 0


@pytest.mark.parametrize("args", [
    ["run", "--bogus"], ["run", "--n", "abc"], [], ["mms", "--steps", "4"],
    ["energy-audit"]])
def test_command_line_usage_error_exits_1_with_json(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    payload = _fail_payload(captured.out)
    assert payload["code"] == 1
    assert payload["reason"].startswith("projnav")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "--help"])
    assert err.value.code == 0
    assert "--emit-fields" in capsys.readouterr().out


def test_commands_reject_the_flags_they_do_not_read(tmp_path, capsys):
    # 16 registered flags; the 12 others are usage errors, not ignored
    assert sum(len(flags) for _, _, flags, _ in cli._COMMANDS.values()) == 16
    for name, (_, _, flags, _) in cli._COMMANDS.items():
        for flag in set(cli._FLAGS) - set(flags):
            code = cli.main([name, f"--{flag}", "4", "--out", str(tmp_path)])
            assert code == 1
            reason = _fail_payload(capsys.readouterr().out)["reason"]
            assert f"--{flag}" in reason


# a valid value of every config key
_KEY_VALUES = {
    "mesh": "structured:4", "n": "4", "steps": "2", "T": "0.5",
    "pred_tol": "1e-10", "corr_tol": "1e-10", "problem": "zero",
    "out": "o", "emit_fields": "yes", "levels": "4,8",
}


def test_commands_reject_the_config_keys_they_do_not_read(tmp_path, capsys):
    assert set(_KEY_VALUES) == set(cli._CONFIG_KEYS)
    assert sum(len(keys) for *_, keys in cli._COMMANDS.values()) == 19
    cfg = tmp_path / "c.cfg"
    for name, (*_, keys) in cli._COMMANDS.items():
        for key in set(cli._CONFIG_KEYS) - set(keys):
            cfg.write_text(f"{key} = {_KEY_VALUES[key]}\n")
            code = cli.main([name, "--config", str(cfg), "--out",
                             str(tmp_path)])
            assert code == 1
            reason = _fail_payload(capsys.readouterr().out)["reason"]
            assert f"'{key}'" in reason and f"'{name}'" in reason


def test_commands_accept_the_config_keys_they_read(tmp_path):
    cfg = tmp_path / "c.cfg"
    for name, (*_, keys) in cli._COMMANDS.items():
        cfg.write_text("".join(f"{k} = {_KEY_VALUES[k]}\n" for k in keys))
        opts = cli.gather_options(argparse.Namespace(command=name,
                                                     config=str(cfg)))
        assert opts == {**cli._DEFAULTS,
                        **cli.load_config(cfg, name)}
        assert set(cli.load_config(cfg, name)) == set(keys)


@pytest.mark.parametrize("name, line", [
    ("mms", "mesh = file:/nonexistent"),
    ("interp-verify", "mesh = file:/nonexistent"),
    ("mms", "steps = 0"),
    ("mms", "problem = zero"),
])
def test_unread_config_key_is_a_usage_error(name, line, tmp_path, capsys):
    # each of these was read and then ignored, or rejected for its value
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    code = cli.main([name, "--config", str(cfg), "--levels", "2",
                     "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    key = line.split()[0]
    assert _fail_payload(captured.out)["reason"].endswith(
        f"config key '{key}' is not read by command '{name}'")
    assert not (tmp_path / "mms.csv").exists()


# argparse itself drops a help text it cannot write unbuffered, and exits
# 0; buffered, the failure surfaces at the flush in main
@pytest.mark.parametrize("unbuffered, command",
                         [("1", "mesh"), ("", "mesh"), ("", "help")])
def test_closed_stdout_exits_1_without_traceback(unbuffered, command,
                                                 tmp_path):
    # the read end is closed before the child writes its first line
    read, write = os.pipe()
    os.close(read)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = (["--help"] if command == "help"
            else ["--n", "4", "--out", str(tmp_path)])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "projnav.cli", "mesh", *args],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == 1
    if command == "mesh":
        assert read_mesh_file(tmp_path / "mesh.txt").n_cells == 32


def test_non_integer_structured_size_names_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mesh = structured:abc\n")
    code, out = run_cli(["mesh", "--config", str(cfg), "--out",
                         str(tmp_path)], capsys)
    assert code == 1
    assert "'mesh'" in _fail_payload(out)["reason"]


def test_unknown_config_key_names_it(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 3\n")
    code, out = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 1
    payload = json.loads(out.strip().splitlines()[-1])
    assert "bogus" in payload["reason"]


def test_bad_value_names_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("steps = soon\n")
    code, out = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 1
    assert "steps" in json.loads(out.strip().splitlines()[-1])["reason"]


def test_invalid_steps_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("steps = 0\n")
    code, out = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 1


def test_unreadable_config(tmp_path, capsys):
    code, out = run_cli(["run", "--config", str(tmp_path / "missing.cfg")],
                        capsys)
    assert code == 1


def test_invalid_mesh_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "mesh.txt"
    bad.write_text("not a mesh\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mesh = file:{bad}\nsteps = 1\n")
    code, out = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)],
                        capsys)
    assert code == 2


def test_malformed_mesh_line_is_data_error(tmp_path, capsys):
    bad = tmp_path / "mesh.txt"
    bad.write_text("mesh 2\nvertices 3\n0 0\n1 x\n0 1\ncells 1\n0 1 2\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mesh = file:{bad}\nsteps = 1\n")
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["code"] == 2
    assert f"{bad}:4" in payload["reason"]


def test_mesh_error_reason_prints_plain_integers(tmp_path, capsys):
    bad = tmp_path / "mesh.txt"
    bad.write_text("mesh 2\nvertices 3\n0 0\n1 0\n2 0\ncells 1\n0 1 2\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mesh = file:{bad}\nsteps = 1\n")
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["reason"] == "invalid mesh: cell 0 has zero area: (0, 1, 2)"
    assert "np.int64" not in payload["reason"]


def test_pathological_mesh_through_cli(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh = pathological:all_boundary_cell\nsteps = 2\n")
    code, _ = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)],
                      capsys)
    assert code == 0


def test_omega_is_an_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega = 1.5\n")
    for name in ("mesh", "run"):
        code, out = run_cli([name, "--config", str(cfg), "--out",
                             str(tmp_path)], capsys)
        assert code == 1
        assert "unknown config key 'omega'" in _fail_payload(out)["reason"]


def test_boundary_strip_mesh_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "mesh.cfg"
    for value in ("pathological:boundary_strip", "pathological:foo",
                  "foo:bar"):
        cfg.write_text(f"mesh = {value}\n")
        code, out = run_cli(["mesh", "--config", str(cfg), "--out",
                             str(tmp_path)], capsys)
        assert code == 1
        assert _fail_payload(out)["reason"] == (
            f"config key 'mesh': unknown mesh '{value}'")
    assert not (tmp_path / "mesh.txt").exists()


@pytest.mark.parametrize("via", ["flag", "key"])
@pytest.mark.parametrize("mesh", ["file", "pathological:all_boundary_cell"])
@pytest.mark.parametrize("command", ["mesh", "run"])
def test_size_beside_a_non_structured_mesh_is_a_usage_error(command, mesh, via,
                                                            tmp_path, capsys):
    if mesh == "file":
        write_mesh_file(build_structured_unit_square(2), tmp_path / "m.txt")
        mesh = f"file:{tmp_path / 'm.txt'}"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"mesh = {mesh}\n" + ("n = 40\n" if via == "key" else ""))
    out_dir = tmp_path / "out"
    code, out = run_cli([command, "--config", str(cfg), "--out", str(out_dir)]
                        + (["--n", "40"] if via == "flag" else []), capsys)
    assert code == 1
    assert _fail_payload(out)["reason"].startswith("config key 'n': ")
    assert not out_dir.exists()


@pytest.mark.parametrize("via, value", [("flag", 0), ("key", -1)])
@pytest.mark.parametrize("command", ["mesh", "run"])
def test_bad_size_names_key_n(command, via, value, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"n = {value}\n" if via == "key" else "")
    out_dir = tmp_path / "out"
    code, out = run_cli([command, "--config", str(cfg), "--out", str(out_dir)]
                        + (["--n", str(value)] if via == "flag" else []),
                        capsys)
    assert code == 1
    assert _fail_payload(out)["reason"] == "config key 'n': must be >= 1"
    assert not out_dir.exists()


def test_dispatch_calls_the_handler_set_on_the_module(tmp_path, monkeypatch):
    # a tracer wraps handlers by their module attribute
    calls = []
    monkeypatch.setattr(cli, "cmd_interp_verify",
                        lambda args: calls.append(args.levels) or 0)
    assert cli.main(["interp-verify", "--levels", "2,4",
                     "--out", str(tmp_path)]) == 0
    assert calls == ["2,4"]


def test_unused_vertex_and_trailing_line_are_data_errors(tmp_path, capsys):
    write_mesh_file(build_structured_unit_square(4), tmp_path / "base.txt")
    head, cells = (tmp_path / "base.txt").read_text().split("cells")
    path = tmp_path / "mesh.txt"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mesh = file:{path}\nsteps = 1\n")
    for text, reason in (
            # classed as interior, an unused vertex ended in a traceback
            # from the AMG setup, or ran on a small mesh
            (head.replace("vertices 25", "vertices 26")
             + "0.1 0.2\ncells" + cells, "vertex 25 belongs to no cell"),
            (head + "cells" + cells + "\ngarbage here\n",
             f"{path}:62: expected the end of the file after the last "
             "cell, got 'garbage here'")):
        path.write_text(text)
        code = cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert _fail_payload(captured.out)["reason"] == (
            f"invalid mesh: {reason}")
    assert not (tmp_path / "diagnostics.csv").exists()


def test_stokes_problem_mode(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = stokes\nsteps = 2\nmesh = structured:2\n")
    code, _ = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)],
                      capsys)
    assert code == 0


def test_config_comments_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nsteps = 9\nT = 2.0  # trailing\n")
    code, _ = run_cli(["run", "--config", str(cfg), "--n", "2", "--steps",
                       "2", "--out", str(tmp_path)], capsys)
    assert code == 0
    with open(tmp_path / "diagnostics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2                       # flag override wins
    assert abs(float(rows[-1]["t"]) - 2.0) < 1e-15   # config T retained


def _fail_payload(out):
    lines = out.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_non_finite_load_stopped_at_its_step(tmp_path, capsys, monkeypatch):
    dt = 1.0 / 4
    base = mms.forcing

    def forcing(points, t):
        value = base(points, t)
        return value + (np.inf if t > dt else 0.0)

    monkeypatch.setattr(cli.mms, "forcing", forcing)
    code, out = run_cli(["run", "--n", "3", "--steps", "4", "--out",
                         str(tmp_path)], capsys)
    assert code == 3
    payload = _fail_payload(out)
    assert payload["code"] == 3
    assert payload["reason"] == "non-finite load vector at step 2"


def test_non_finite_initial_velocity_stopped(tmp_path, capsys, monkeypatch):
    base = mms.initial_velocity

    def initial_velocity(points):
        value = base(points)
        value[len(value) // 2, 1] = np.nan
        return value

    monkeypatch.setattr(cli.mms, "initial_velocity", initial_velocity)
    code, out = run_cli(["run", "--n", "3", "--steps", "2", "--out",
                         str(tmp_path)], capsys)
    assert code == 3
    payload = _fail_payload(out)
    assert payload["code"] == 3
    assert payload["reason"] == "non-finite initial velocity at step 0"


def test_overflowing_energy_audit_fails(tmp_path, capsys):
    # dt = 2.5e199, so dt * dt overflows in the composite norms
    cfg = tmp_path / "run.cfg"
    cfg.write_text("T = 1e200\nsteps = 4\nmesh = structured:2\n")
    code, out = run_cli(["run", "--config", str(cfg), "--out",
                         str(tmp_path)], capsys)
    assert code == 3
    payload = _fail_payload(out)
    assert payload["reason"] == "non-finite energy audit at step 1"


def test_overflowing_run_fails(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("T = 1e308\nsteps = 1\nmesh = structured:2\n")
    code, out = run_cli(["run", "--config", str(cfg), "--out",
                         str(tmp_path)], capsys)
    assert code == 3
    assert _fail_payload(out)["reason"] == "non-finite energy audit at step 1"


def test_non_finite_final_time_rejected(tmp_path, capsys):
    for value in ("inf", "nan", "-inf"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"T = {value}\n")
        code, out = run_cli(["run", "--config", str(cfg), "--out",
                             str(tmp_path)], capsys)
        assert code == 1
        assert "'T'" in _fail_payload(out)["reason"]


def test_folded_mesh_file_is_data_error(tmp_path, capsys):
    base = build_structured_unit_square(4)
    verts = base.vertices.copy()
    verts[12] = (0.9, 0.1)
    path = tmp_path / "mesh.txt"
    path.write_text("\n".join(
        ["mesh 2", f"vertices {len(verts)}"]
        + [f"{x!r} {y!r}" for x, y in verts.tolist()]
        + [f"cells {base.n_cells}"]
        + [" ".join(map(str, c)) for c in base.cells.tolist()]) + "\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mesh = file:{path}\nsteps = 1\n")
    code, out = run_cli(["run", "--config", str(cfg), "--out",
                         str(tmp_path)], capsys)
    assert code == 2
    assert _fail_payload(out)["reason"] == (
        "invalid mesh: folded mesh: both cells of edge (6, 7) lie on the "
        "same side of it")


def test_two_component_mesh_file_runs(tmp_path, capsys):
    # only the global pressure constant is deflated; each component's
    # constant is in the kernel of the pressure Laplacian
    base = build_structured_unit_square(3)
    mesh = build_from_arrays(
        np.vstack([base.vertices, base.vertices + [2.0, 0.0]]),
        np.vstack([base.cells, base.cells + base.n_vertices]))
    write_mesh_file(mesh, tmp_path / "mesh.txt")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mesh = file:{tmp_path / 'mesh.txt'}\nsteps = 3\n"
                   "T = 0.3\n")
    code, _ = run_cli(["run", "--config", str(cfg), "--out",
                       str(tmp_path)], capsys)
    assert code == 0
    with open(tmp_path / "diagnostics.csv") as fh:
        rows = list(csv.DictReader(fh))
    # the unpreconditioned solves gave these
    expected = [(0.077659022008961243, 0.74171226201587137),
                (0.18007993332574534, 2.1836441757021818),
                (0.28255047652558363, 4.2890688213381951)]
    assert len(rows) == 3
    for row, (u_l2, gradp_l2) in zip(rows, expected):
        assert abs(float(row["u_l2"]) - u_l2) <= 1e-10 * u_l2
        assert abs(float(row["gradp_l2"]) - gradp_l2) <= 1e-10 * gradp_l2
        assert float(row["energy_residual"]) <= 1e-14


@pytest.mark.parametrize("config, args, code, named", [
    ("emit_fields = maybe\n", [], 1, "'emit_fields'"),
    ("mesh = file:\n", [], 1, "'mesh'"),
    ("mesh = file:{tmp}/missing.txt\n", [], 2, "missing.txt"),
    ("mesh = file:{tmp}\n", [], 2, "Is a directory"),
    ("problem = bogus\n", [], 1, "'problem'"),
    ("", ["--levels", "a,b"], 1, "'levels'"),
    ("", ["--levels", "0"], 1, "'levels'"),
    ("", ["--levels", ","], 1, "'levels'"),
], ids=["bool", "file-path-missing", "missing-file", "directory",
        "problem", "levels-words", "levels-zero", "levels-empty"])
def test_rejected_option_exits_with_one_json_line(config, args, code, named,
                                                  tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config.format(tmp=tmp_path))
    command = "interp-verify" if args else "run"
    assert cli.main([command, "--config", str(cfg), *args, "--out",
                     str(tmp_path / "o")]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = _fail_payload(captured.out)
    assert payload["code"] == code and named in payload["reason"]


def test_emit_fields_off_is_accepted(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("emit_fields = off\nmesh = structured:2\nsteps = 1\n")
    assert cli.main(["run", "--config", str(cfg), "--out",
                     str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "diagnostics.csv").exists()
    assert not (tmp_path / "fields_final.vtk").exists()


def test_non_integer_seed_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PROJNAV_SEED", "x")
    assert cli.main(["interp-verify", "--levels", "2", "--out",
                     str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "PROJNAV_SEED" in _fail_payload(captured.out)["reason"]


def test_hanging_node_mesh_file_is_data_error(tmp_path, capsys):
    # the 3-cell unit square with vertex 4 on the diagonal of cell 0: it
    # read as 7 boundary edges, the slit a no-slip wall
    path = tmp_path / "mesh.txt"
    path.write_text("mesh 2\nvertices 5\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n"
                    "cells 3\n0 1 2\n0 4 3\n4 2 3\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"mesh = file:{path}\n")
    assert cli.main(["mesh", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _fail_payload(captured.out)["reason"] == (
        "invalid mesh: hanging node: boundary vertex 4 lies inside "
        "boundary edge (0, 2)")
