import json

import numpy as np
import pytest

from projnav import cli, fem, interp, mms
from projnav.fem import (FieldP2Vector, SpaceP1, SpaceP2Vector, div_moments,
                         weak_div_moments)
from projnav.interp import (AnalyticVectorField, InterpError,
                            divergence_correct, edge_bubble,
                            edge_bubble_residuals, lagrange_p2, linf_estimate,
                            pi_n, pi_n_convergence_study)
from projnav.mesh import (build_from_arrays, build_pathological_mesh,
                          build_structured_unit_square, mesh_metrics)

from oracles import edge_bubble_residuals_by_edge


def spaces(n):
    mesh = build_structured_unit_square(n)
    return SpaceP2Vector(mesh), SpaceP1(mesh)


# ---------------------------------------------------------------------------
# nodal interpolation

def test_lagrange_reproduces_quadratics(rng):
    s2, _ = spaces(2)

    def value(p):
        x, y = p[:, 0], p[:, 1]
        return np.stack([1 + x - 2 * y + x * y, x ** 2 - y ** 2 + 0.5], axis=-1)

    v = AnalyticVectorField(value=value)
    field = lagrange_p2(v, s2)
    assert np.array_equal(field.coeffs, value(s2.node_coordinates()))
    vals = fem.p2_values_at(field)
    t = fem._tables(s2.mesh, fem.DEFAULT_RULE)
    exact = value(t.points.reshape(-1, 2)).reshape(vals.shape)
    assert np.abs(vals - exact).max() <= 1e-13


def test_lagrange_of_zero_is_zero():
    s2, _ = spaces(2)
    v = AnalyticVectorField(value=lambda p: np.zeros((len(p), 2)))
    assert np.abs(lagrange_p2(v, s2).coeffs).max() == 0.0


def test_lagrange_linf_order_at_least_one():
    def value(p):
        x, y = p[:, 0], p[:, 1]
        return np.stack([np.sin(np.pi * x) * np.sin(np.pi * y),
                         np.zeros_like(x)], axis=-1)

    v = AnalyticVectorField(value=value)
    errs = []
    for n in (4, 8, 16):
        s2, _ = spaces(n)
        field = lagrange_p2(v, s2)
        pts = fem._tables(s2.mesh, fem.DEFAULT_RULE).points.reshape(-1, 2)
        vals = fem.p2_values_at(field).reshape(-1, 2)
        errs.append(np.abs(vals - value(pts)).max())
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 1.0


def test_lagrange_linf_stability_constant(rng):
    # |interpolant|_inf <= C |grad v|_inf with C stable under refinement
    def value(p):
        x, y = p[:, 0], p[:, 1]
        return np.stack([np.sin(2 * x + y), np.cos(x - y)], axis=-1)

    def gradient(p):
        x, y = p[:, 0], p[:, 1]
        out = np.empty(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = 2 * np.cos(2 * x + y)
        out[..., 0, 1] = np.cos(2 * x + y)
        out[..., 1, 0] = -np.sin(x - y)
        out[..., 1, 1] = np.sin(x - y)
        return out

    v = AnalyticVectorField(value=value, gradient=gradient)
    constants = []
    for n in (4, 8, 16):
        s2, _ = spaces(n)
        field = lagrange_p2(v, s2)
        pts = s2.node_coordinates()
        grad_inf = np.abs(gradient(pts)).max()
        constants.append(linf_estimate(field) / grad_inf)
    assert all(np.isfinite(c) for c in constants)
    for a, b in zip(constants, constants[1:]):
        assert b <= 1.2 * a


# ---------------------------------------------------------------------------
# edge bubbles

def test_bubble_moments_every_edge_small_meshes():
    for mesh in (build_structured_unit_square(2),
                 build_pathological_mesh("all_boundary_cell", n_cells=1),
                 build_pathological_mesh("all_boundary_cell", n_cells=3)):
        s2 = SpaceP2Vector(mesh)
        s1 = SpaceP1(mesh)
        for e in range(mesh.n_edges):
            i, j = mesh.edges[e]
            b = edge_bubble(s2, (i, j))
            moments = div_moments(b, s1)
            expected = np.zeros(s1.ndof)
            expected[i] = 1.0
            expected[j] = -1.0
            assert np.abs(moments - expected).max() <= 1e-12


def test_bubble_antisymmetry_exact():
    s2, _ = spaces(2)
    mesh = s2.mesh
    for e in (0, 3, 7):
        i, j = mesh.edges[e]
        b_ij = edge_bubble(s2, (i, j))
        b_ji = edge_bubble(s2, (j, i))
        assert np.array_equal(b_ij.coeffs, -b_ji.coeffs)


def test_bubble_single_midpoint_support():
    s2, _ = spaces(2)
    mesh = s2.mesh
    e = mesh.edge_index(*mesh.edges[5])
    i, j = mesh.edges[e]
    b = edge_bubble(s2, (i, j))
    nz = np.nonzero(np.abs(b.coeffs).sum(axis=1))[0]
    assert list(nz) == [mesh.n_vertices + e]
    expected = 3.0 * (mesh.vertices[j] - mesh.vertices[i]) / mesh.edge_patch_area[e]
    assert np.allclose(b.coeffs[mesh.n_vertices + e], expected, atol=0.0)


def test_bubble_linf_doubles_per_refinement():
    # max norm of the bubble of the central diagonal edge scales like 1/h
    values = {}
    for n in (4, 8, 16):
        s2, _ = spaces(n)
        mesh = s2.mesh
        i = mesh.edge_index(*(mesh.cells[0][[0, 2]]))  # a diagonal edge
        a, b = mesh.edges[i]
        values[n] = linf_estimate(edge_bubble(s2, (a, b)))
    assert abs(values[8] / values[4] - 2.0) <= 0.2
    assert abs(values[16] / values[8] - 2.0) <= 0.2


def test_bubble_rejects_missing_edge():
    s2, _ = spaces(2)
    from projnav.mesh import MeshError
    with pytest.raises(MeshError):
        edge_bubble(s2, (0, 8))


def _bubble_meshes(irregular_mesh):
    base = build_structured_unit_square(5)
    perm = np.random.default_rng(11).permutation(base.n_cells)
    return {
        "structured2": build_structured_unit_square(2),
        "structured4": build_structured_unit_square(4),
        "irregular": irregular_mesh,
        "shuffled": build_from_arrays(base.vertices, base.cells[perm]),
        "all_boundary_cell1": build_pathological_mesh("all_boundary_cell",
                                                      n_cells=1),
        "all_boundary_cell3": build_pathological_mesh("all_boundary_cell",
                                                      n_cells=3),
        "boundary_strip": build_pathological_mesh("boundary_strip", n=8),
    }


@pytest.mark.parametrize("which", ["structured2", "structured4", "irregular",
                                   "shuffled", "all_boundary_cell1",
                                   "all_boundary_cell3", "boundary_strip"])
def test_edge_bubble_residuals_match_per_edge_oracle(irregular_mesh, which):
    s2 = SpaceP2Vector(_bubble_meshes(irregular_mesh)[which])
    report = edge_bubble_residuals(s2)
    assert report == edge_bubble_residuals_by_edge(s2)
    assert report["bij"] <= 1e-12 and report["antisymmetry"] == 0.0


def test_cell_div_moments_on_a_cell_subset_match_full_run(irregular_mesh, rng):
    mesh = irregular_mesh
    local = rng.standard_normal((mesh.n_cells, 6, 2))
    full = fem.cell_div_moments(mesh, local)
    cells = np.array([5, 0, 5, mesh.n_cells - 1])
    assert np.array_equal(fem.cell_div_moments(mesh, local[cells], cells),
                          full[cells])


_EDGE_BUBBLES = interp._edge_bubbles


def _neighbour_dof(mesh, i, j):
    """Bubbles on the dof of the next edge of their first cell."""
    dof, vec = _EDGE_BUBBLES(mesh, i, j)
    e = dof - mesh.n_vertices
    cell = np.array([c[0] for c in mesh.edge_cells])[e]
    local = np.argmax(mesh.cell_edges[cell] == e[:, None], axis=1)
    return mesh.n_vertices + mesh.cell_edges[cell, (local + 1) % 3], vec


def _scaled(mesh, i, j):
    dof, vec = _EDGE_BUBBLES(mesh, i, j)
    return dof, vec * (1.0 + 1e-9)


def _reverse_flipped(mesh, i, j):
    """Bubbles of decreasing pairs (i > j) get the sign of (j, i)."""
    dof, vec = _EDGE_BUBBLES(mesh, i, j)
    return dof, np.where((np.asarray(i) > np.asarray(j))[:, None], -vec, vec)


def _reverse_misplaced(mesh, i, j):
    """Bubbles of decreasing pairs (i > j) on a neighbouring edge's dof."""
    dof, vec = _EDGE_BUBBLES(mesh, i, j)
    moved, _ = _neighbour_dof(mesh, i, j)
    return np.where(np.asarray(i) > np.asarray(j), moved, dof), vec


@pytest.mark.parametrize("fault, lemma", [(_neighbour_dof, "bij"),
                                          (_scaled, "bij"),
                                          (_reverse_flipped, "antisymmetry"),
                                          (_reverse_misplaced,
                                           "antisymmetry")])
def test_edge_bubble_residuals_detect_faults(irregular_mesh, monkeypatch,
                                             fault, lemma):
    tolerance = {"bij": 1e-12, "antisymmetry": 0.0}
    monkeypatch.setattr(interp, "_edge_bubbles", fault)
    for mesh in _bubble_meshes(irregular_mesh).values():
        report = edge_bubble_residuals(SpaceP2Vector(mesh))
        assert report[lemma] > tolerance[lemma]


def test_interp_verify_fails_on_misplaced_bubble(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setattr(interp, "_edge_bubbles", _neighbour_dof)
    code = cli.main(["interp-verify", "--levels", "2", "--out",
                     str(tmp_path)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 3
    assert "lemma bij" in lines[0] and lines[0].endswith("FAIL")
    payload = json.loads(lines[-1])
    assert payload["code"] == 3 and "bij" in payload["reason"]


# ---------------------------------------------------------------------------
# divergence correction

def test_divergence_correct_zero_field():
    s2, _ = spaces(2)
    out = divergence_correct(FieldP2Vector(s2), s2)
    assert np.abs(out.coeffs).max() == 0.0


def test_divergence_correct_preserves_vertex_moments(rng):
    s2, s1 = spaces(4)
    for _ in range(25):
        field = FieldP2Vector(s2)
        field.coeffs[s2.interior_dofs] = rng.standard_normal(
            (len(s2.interior_dofs), 2))
        out = divergence_correct(field, s2)
        gap = div_moments(out, s1) - div_moments(field, s1)
        assert np.abs(gap).max() <= 1e-11


def test_divergence_correct_of_interior_bubble(rng):
    s2, s1 = spaces(4)
    mesh = s2.mesh
    interior_edges = [e for e in range(mesh.n_edges)
                      if not mesh.is_boundary_edge[e]]
    e = interior_edges[len(interior_edges) // 2]
    i, j = mesh.edges[e]
    b = edge_bubble(s2, (i, j))
    out = divergence_correct(b, s2)
    moments = div_moments(out, s1)
    expected = np.zeros(s1.ndof)
    expected[i] = 1.0
    expected[j] = -1.0
    assert np.abs(moments - expected).max() <= 1e-12


def test_divergence_correct_output_is_midpoint_only(rng):
    s2, _ = spaces(4)
    field = FieldP2Vector(s2)
    field.coeffs[s2.interior_dofs] = rng.standard_normal(
        (len(s2.interior_dofs), 2))
    out = divergence_correct(field, s2)
    assert np.abs(out.coeffs[:s2.mesh.n_vertices]).max() == 0.0


def test_divergence_correct_rejects_boundary_trace():
    s2, _ = spaces(2)
    bad = FieldP2Vector(s2, np.ones((s2.n_scalar, 2)))
    with pytest.raises(InterpError, match="vanishing boundary trace"):
        divergence_correct(bad, s2)
    const = AnalyticVectorField(value=lambda p: np.ones((len(p), 2)))
    with pytest.raises(InterpError, match="vanishing boundary trace"):
        divergence_correct(const, s2)


def test_correction_support_stays_near_input_support():
    # nonzero coefficients only on edges whose patch meets the support of
    # the input, inflated by twice the mesh size
    s2, _ = spaces(16)
    mesh = s2.mesh
    v = mms.spline_bump_field()
    out = divergence_correct(v, s2)
    h_t, _ = mesh_metrics(mesh)
    xmin, xmax, ymin, ymax = v.support
    pad = 2.0 * h_t
    mids = out.coeffs[mesh.n_vertices:]
    for e in np.nonzero(np.abs(mids).sum(axis=1))[0]:
        cells = mesh.edge_cells[e]
        pts = mesh.vertices[np.unique(mesh.cells[cells])]
        assert pts[:, 0].max() >= xmin - pad
        assert pts[:, 0].min() <= xmax + pad
        assert pts[:, 1].max() >= ymin - pad
        assert pts[:, 1].min() <= ymax + pad


# ---------------------------------------------------------------------------
# the composite interpolator

def test_pi_n_zero_field_corrected():
    s2, _ = spaces(2)
    v = AnalyticVectorField(value=lambda p: np.zeros((len(p), 2)),
                            divergence_free=True)
    out, status = pi_n(v, s2)
    assert status == "corrected"
    assert np.abs(out.coeffs).max() == 0.0


def test_pi_n_requires_divergence_free_declaration():
    s2, _ = spaces(2)
    v = AnalyticVectorField(value=lambda p: np.zeros((len(p), 2)))
    with pytest.raises(InterpError, match="divergence free"):
        pi_n(v, s2)


def test_pi_n_spline_bump_in_discrete_divfree_space():
    v = mms.spline_bump_field()
    for n in (8, 16):
        s2, s1 = spaces(n)
        out, status = pi_n(v, s2)
        assert status == "corrected"
        assert np.abs(out.coeffs[~s2.interior_mask]).max() == 0.0
        assert np.abs(div_moments(out, s1)).max() <= 1e-11
        assert np.abs(weak_div_moments(out, s1)).max() <= 1e-11


def test_pi_n_zero_branch_when_support_reaches_boundary_patches():
    # on a coarse mesh the compact field's correction lands on boundary
    # edges, and the operator must return the zero branch
    v = mms.spline_bump_field()
    s2, _ = spaces(2)
    out, status = pi_n(v, s2)
    assert status == "zeroed"
    assert np.abs(out.coeffs).max() == 0.0


def test_pi_n_zero_branch_for_boundary_reaching_field():
    # the polynomial curl bump vanishes on the boundary but is not
    # compactly supported: its correction coefficients on boundary edges
    # are tiny yet nonzero, so the combinatorial membership test must fire
    # the zero branch at every resolution
    v = mms.curl_bump_field()
    for n in (8, 16):
        s2, _ = spaces(n)
        out, status = pi_n(v, s2)
        assert status == "zeroed"
        assert np.abs(out.coeffs).max() == 0.0


def test_pi_n_e_norm_bounded_along_refinement():
    v = mms.spline_bump_field()
    norms = []
    for n in (8, 16, 32):
        s2, _ = spaces(n)
        out, status = pi_n(v, s2)
        assert status == "corrected"
        norms.append(fem.h1_seminorm(out) + linf_estimate(out))
    assert max(norms) <= 2.0 * norms[-1]


def test_pi_n_convergence_study_rows():
    v = mms.spline_bump_field()
    rows = pi_n_convergence_study(v, [spaces(8)[0], spaces(16)[0]])
    assert [r["n"] for r in rows] == [8, 16]
    assert rows[0]["status"] == "corrected"
    assert np.isnan(rows[0]["observed_order"])
    assert rows[1]["err_w1inf"] < rows[0]["err_w1inf"]
    assert rows[1]["err_h1"] < rows[0]["err_h1"]
    assert rows[1]["observed_order"] > 0.8
