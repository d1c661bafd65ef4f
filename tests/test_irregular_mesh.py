"""The discrete identities do not depend on mesh structure: re-run the
edge-bubble lemma, divergence preservation, and the energy audit on an
irregular triangulation (structured mesh with deterministically perturbed
interior vertices; the ``irregular_mesh`` fixture is in conftest)."""

import numpy as np

from projnav import cli, mms
from projnav.fem import (FieldP2Vector, SpaceP1, SpaceP2Vector, div_moments,
                         weak_div_moments)
from projnav.interp import divergence_correct, edge_bubble
from projnav.mesh import write_mesh_file
from projnav.scheme import GUESS_HISTORY, SchemeConfig, SchemeOperators, run


def test_invariants_hold(irregular_mesh):
    mesh = irregular_mesh
    assert mesh.n_vertices - mesh.n_edges + mesh.n_cells == 1
    assert abs(mesh.cell_areas.sum() - 1.0) <= 1e-12
    assert np.all(mesh.cell_areas > 0.0)
    assert np.all(mesh.cell_diameters >= mesh.cell_inball)
    for e in range(mesh.n_edges):
        expected = mesh.cell_areas[mesh.edge_cells[e]].sum()
        assert abs(mesh.edge_patch_area[e] - expected) <= 1e-15


def test_bubble_moments_on_irregular_mesh(irregular_mesh):
    s2 = SpaceP2Vector(irregular_mesh)
    s1 = SpaceP1(irregular_mesh)
    for e in range(irregular_mesh.n_edges):
        i, j = irregular_mesh.edges[e]
        moments = div_moments(edge_bubble(s2, (i, j)), s1)
        expected = np.zeros(s1.ndof)
        expected[i] = 1.0
        expected[j] = -1.0
        assert np.abs(moments - expected).max() <= 1e-12


def test_divergence_preservation_on_irregular_mesh(irregular_mesh, rng):
    s2 = SpaceP2Vector(irregular_mesh)
    s1 = SpaceP1(irregular_mesh)
    for _ in range(20):
        field = FieldP2Vector(s2)
        field.coeffs[s2.interior_dofs] = rng.standard_normal(
            (len(s2.interior_dofs), 2))
        out = divergence_correct(field, s2)
        gap = div_moments(out, s1) - div_moments(field, s1)
        assert np.abs(gap).max() <= 1e-11


def test_scheme_audits_on_irregular_mesh(irregular_mesh):
    s2 = SpaceP2Vector(irregular_mesh)
    s1 = SpaceP1(irregular_mesh, zero_mean=True)
    ops = SchemeOperators(s2, s1)
    config = SchemeConfig(n_steps=5, t_final=1.0, store_fields=True)
    result = run(s2, s1, mms.initial_velocity, mms.forcing, config, ops=ops)
    assert max(d.energy_residual for d in result.diagnostics) <= 1e-8
    for u in result.u_history:
        moments = weak_div_moments(u, s1, grad=ops.grad, lap=ops.lap)
        assert np.abs(moments).max() <= 1e-10


def test_rerun_with_full_guess_histories_is_byte_identical(irregular_mesh,
                                                           tmp_path):
    # the last two steps' solves start from full histories
    write_mesh_file(irregular_mesh, tmp_path / "mesh.txt")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mesh = file:{tmp_path / 'mesh.txt'}\n"
                   f"steps = {GUESS_HISTORY + 2}\nT = 0.1\n")
    texts = []
    for out in ("a", "b"):
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / out)]) == 0
        texts.append((tmp_path / out / "diagnostics.csv").read_bytes())
    assert texts[0] == texts[1]
