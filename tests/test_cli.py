import csv
import json

import numpy as np

from projnav import cli, mms
from projnav.fem import div_moments
from projnav.mesh import read_mesh_file


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
            vals, _ = fem.eval_basis(s2, c, bary)
            expected = vals @ local - u.scale * grads[c]
            assert np.abs(emitted[k] - expected).max() <= 1e-12
            k += 1


def test_energy_audit_pass(tmp_path, capsys):
    code, out = run_cli(["energy-audit", "--n", "4", "--steps", "4",
                         "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "energy audit: PASS" in out
    assert (tmp_path / "energy_audit.csv").exists()


def test_mms_levels_pass_and_csv(tmp_path, capsys):
    code, out = run_cli(["mms", "--levels", "4,8", "--out", str(tmp_path)],
                        capsys)
    assert code == 0
    lines = (tmp_path / "mms.csv").read_text().splitlines()
    assert lines[0] == "n,h,N,dt,err_u,err_ut,order_u"
    assert len(lines) == 3
    errs = [float(line.split(",")[4]) for line in lines[1:]]
    assert errs[1] < errs[0]


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

    def counting(*args, **kwargs):
        calls.append(1)
        return div_moments(*args, **kwargs)

    monkeypatch.setattr(cli, "div_moments", counting)
    code, _ = run_cli(["interp-verify", "--levels", "8,16", "--out",
                       str(tmp_path)], capsys)
    assert code == 0
    # two per random field of the divergence-preservation lemma and one per
    # level aligned with the test field's knots; none per edge (the two
    # levels and the two small meshes have 1 020 edges)
    assert len(calls) == 2 * 200 + 2


def test_interp_verify_respects_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PROJNAV_SEED", "7")
    code, _ = run_cli(["interp-verify", "--levels", "2", "--out",
                       str(tmp_path)], capsys)
    assert code == 0


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


def test_boundary_strip_mesh_keeps_kind_with_n(tmp_path, capsys):
    # --n sets the resolution of the strip construction without hijacking
    # the mesh kind
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh = pathological:boundary_strip\nomega = 1.5\n")
    code, out = run_cli(["mesh", "--config", str(cfg), "--n", "4",
                         "--out", str(tmp_path)], capsys)
    assert code == 0
    mesh = read_mesh_file(tmp_path / "mesh.txt")
    assert mesh.n_cells == 32

    code, _ = run_cli(["run", "--config", str(cfg), "--n", "4", "--steps",
                       "2", "--out", str(tmp_path)], capsys)
    assert code == 0


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
