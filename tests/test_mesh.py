import numpy as np
import pytest

from projnav.cli import build_mesh
from projnav.mesh import (MeshError, SimplicialMesh, build_from_arrays,
                          build_pathological_mesh,
                          build_structured_unit_square, mesh_metrics,
                          read_mesh_file, write_mesh_file)

from oracles import (edge_cells, edge_numbering_unique_rows, patch_stats,
                     vertex_cells)


def test_structured_n1_counts():
    mesh = build_structured_unit_square(1)
    assert mesh.n_cells == 2
    assert mesh.n_vertices == 4
    assert mesh.n_edges == 5
    assert len(mesh.boundary_edges) == 4
    assert mesh.n_edges - len(mesh.boundary_edges) == 1


def test_structured_n2_counts():
    mesh = build_structured_unit_square(2)
    assert mesh.n_cells == 8
    assert mesh.n_vertices == 9
    assert mesh.n_edges == 16
    assert list(mesh.interior_vertices) == [4]


def test_refinement_preserves_shape_regularity():
    _, theta2 = mesh_metrics(build_structured_unit_square(2))
    _, theta4 = mesh_metrics(build_structured_unit_square(4))
    assert theta4 == theta2


def test_refinement_halves_mesh_size_exactly():
    h4, _ = mesh_metrics(build_structured_unit_square(4))
    h8, _ = mesh_metrics(build_structured_unit_square(8))
    assert h8 == h4 / 2.0


def test_unit_right_triangle_metrics():
    mesh = build_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    h, theta = mesh_metrics(mesh)
    s2 = np.sqrt(2.0)
    assert abs(h - s2) < 1e-15
    assert abs(mesh.cell_inball[0] - (2.0 - s2)) < 1e-15
    assert abs(theta - s2 / (2.0 - s2)) < 1e-14


def test_structured_mesh_size_values():
    h1, _ = mesh_metrics(build_structured_unit_square(1))
    h8, _ = mesh_metrics(build_structured_unit_square(8))
    assert abs(h1 - np.sqrt(2.0)) < 1e-15
    assert abs(h8 - np.sqrt(2.0) / 8.0) < 1e-15


def test_single_triangle_classification():
    mesh = build_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert mesh.n_cells == 1
    assert len(mesh.boundary_edges) == 3
    assert len(mesh.interior_vertices) == 0


def test_shared_edge_is_interior():
    mesh = build_from_arrays([(0, 0), (1, 0), (1, 1), (0, 1)],
                             [(0, 1, 2), (0, 2, 3)])
    shared = mesh.edge_indices([0], [2])[0]
    assert len(edge_cells(mesh)[shared]) == 2
    assert shared not in set(mesh.boundary_edges)


def test_duplicate_cell_rejected():
    with pytest.raises(MeshError, match="duplicate cell"):
        build_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (2, 0, 1)])


def test_zero_area_cell_rejected():
    with pytest.raises(MeshError, match="zero area"):
        build_from_arrays([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])


def test_out_of_range_index_rejected():
    with pytest.raises(MeshError, match="out of range"):
        build_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 7)])


def test_non_manifold_edge_rejected():
    verts = [(0, 0), (1, 0), (0.5, 1), (0.5, -1), (1.5, 1)]
    cells = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    with pytest.raises(MeshError, match="non-manifold"):
        build_from_arrays(verts, cells)


@pytest.mark.parametrize("verts, cells, message", [
    ([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)],
     "cell 0 has zero area: (0, 1, 2)"),
    ([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (0, 2, 2)],
     "cell 1 has repeated vertices: (0, 2, 2)"),
    ([(0, 0), (1, 0), (0, 1)], [(0, 1, 7)],
     "cell 0 has vertex index out of range: (0, 1, 7)"),
    ([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (2, 0, 1)],
     "duplicate cell 1: (2, 0, 1)"),
    ([(0, 0), (1, 0), (0.5, 1), (0.5, -1), (1.5, 1)],
     [(0, 1, 2), (0, 1, 3), (0, 1, 4)],
     "non-manifold edge (0, 1): 3 incident cells"),
    # classed as interior, it would leave a zero row in every matrix
    ([(0, 0), (1, 0), (0, 1), (0.2, 0.2)], [(0, 1, 2)],
     "vertex 3 belongs to no cell"),
], ids=["zero-area", "repeated", "out-of-range", "duplicate",
        "non-manifold", "unused-vertex"])
def test_mesh_error_message_text(verts, cells, message):
    with pytest.raises(MeshError) as err:
        build_from_arrays(verts, cells)
    assert str(err.value) == message


def _shuffled_mesh():
    base = build_structured_unit_square(5)
    perm = np.random.default_rng(11).permutation(base.n_cells)
    return build_from_arrays(base.vertices, base.cells[perm])


@pytest.mark.parametrize("which", ["irregular", "shuffled"])
def test_patches_match_brute_force(irregular_mesh, which):
    mesh = irregular_mesh if which == "irregular" else _shuffled_mesh()
    by_edge = [[] for _ in range(mesh.n_edges)]
    by_vertex = [[] for _ in range(mesh.n_vertices)]
    for c in range(mesh.n_cells):
        for e in mesh.cell_edges[c]:
            by_edge[e].append(c)
        for v in mesh.cells[c]:
            by_vertex[v].append(c)
    for got, expected in ((edge_cells(mesh), by_edge),
                          (vertex_cells(mesh), by_vertex)):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.dtype == np.int64
            assert g.tolist() == e


@pytest.mark.parametrize("which", ["n1", "n2", "n3", "n8", "irregular",
                                   "all_boundary_cell_1",
                                   "all_boundary_cell_3", "cli_structured8",
                                   "file_round_trip"])
def test_edge_numbering_matches_unique_rows(irregular_mesh, tmp_path, which):
    if which == "cli_structured8":
        # the mesh a config reads, through the command-line builder
        mesh = build_mesh({"mesh": "structured:8", "n": None})
    elif which.startswith("n"):
        mesh = build_structured_unit_square(int(which[1:]))
    elif which.startswith("all_boundary_cell"):
        mesh = build_pathological_mesh(n_cells=int(which[-1]))
    elif which == "file_round_trip":
        write_mesh_file(irregular_mesh, tmp_path / "mesh.txt")
        mesh = read_mesh_file(tmp_path / "mesh.txt")
    else:
        mesh = irregular_mesh
    for name, expected in edge_numbering_unique_rows(mesh).items():
        got = getattr(mesh, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name


def test_structured_cells_follow_rows():
    n = 3
    mesh = build_structured_unit_square(n)
    expected = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v11 = v00 + n + 2
            expected += [(v00, v00 + 1, v11), (v00, v11, v11 - 1)]
    assert mesh.cells.tolist() == [list(c) for c in expected]


def test_negative_orientation_reordered():
    mesh = build_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])
    assert mesh.cell_areas[0] > 0.0
    p0, p1, p2 = mesh.vertices[mesh.cells[0]]
    cross = (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p1[1] - p0[1]) * (p2[0] - p0[0])
    assert cross > 0.0


def test_folded_mesh_rejected():
    # moving interior vertex 12 across its neighbours folds four cells
    # over the others: their signed areas sum to 1.2125, not 1
    base = build_structured_unit_square(4)
    verts = base.vertices.copy()
    verts[12] = (0.9, 0.1)
    with pytest.raises(MeshError, match=r"folded mesh: both cells of edge "
                                        r"\(6, 7\) lie on the same side"):
        build_from_arrays(verts, base.cells)


def test_clockwise_mesh_accepted():
    base = build_structured_unit_square(4)
    for cells in (base.cells[:, ::-1], np.where(
            (np.arange(base.n_cells) % 3 == 0)[:, None],
            base.cells[:, ::-1], base.cells)):
        mesh = build_from_arrays(base.vertices, cells)
        assert np.array_equal(mesh.edges, base.edges)
        assert np.allclose(mesh.cell_areas, base.cell_areas)
        assert np.array_equal(mesh.boundary_edges, base.boundary_edges)

def test_patch_stats_interior_diagonal_n2():
    mesh = build_structured_unit_square(2)
    # diagonal of the lower-left square: vertices (0,0) and (1/2,1/2)
    e = mesh.edge_indices([0], [4])[0]
    card, area, _ = patch_stats(mesh, e)
    assert card == 2
    assert abs(area - 0.25) < 1e-15


def test_patch_stats_boundary_edge_single_triangle():
    mesh = build_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    card, area, diam = patch_stats(mesh, 0)
    assert card == 1
    assert abs(area - 0.5) < 1e-15
    assert abs(diam - np.sqrt(2.0)) < 1e-15


def test_patch_diameter_bound_and_brute_force():
    mesh = build_structured_unit_square(4)
    incident = edge_cells(mesh)
    for e in range(mesh.n_edges):
        card, area, diam = patch_stats(mesh, e)
        cells = incident[e]
        # independent brute force over every vertex pair of the patch
        pts = mesh.vertices[np.unique(mesh.cells[cells])]
        brute = max(np.linalg.norm(p - q) for p in pts for q in pts)
        assert abs(diam - brute) < 1e-15
        assert diam <= 2.0 * mesh.cell_diameters[cells].max() + 1e-15
        assert abs(area - mesh.cell_areas[cells].sum()) < 1e-15


def test_patch_stats_bad_edge():
    mesh = build_structured_unit_square(1)
    with pytest.raises(MeshError):
        patch_stats(mesh, 99)


def test_euler_relation_disc_topology():
    for mesh in (build_structured_unit_square(3),
                 build_pathological_mesh(n_cells=3),
                 build_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])):
        assert mesh.n_vertices - mesh.n_edges + mesh.n_cells == 1


def test_total_area():
    mesh = build_structured_unit_square(7)
    assert abs(mesh.cell_areas.sum() - 1.0) <= 1e-12


def test_boundary_edges_equal_single_incidence_set():
    mesh = build_structured_unit_square(5)
    # oracle: recount incidences from scratch with a dictionary
    from collections import defaultdict
    count = defaultdict(int)
    for tri in mesh.cells:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
            count[frozenset((a, b))] += 1
    singles = {key for key, c in count.items() if c == 1}
    ours = {frozenset(mesh.edges[e]) for e in mesh.boundary_edges}
    assert ours == singles


def test_pathological_single_triangle():
    mesh = build_pathological_mesh(n_cells=1)
    assert mesh.n_cells == 1
    assert len(mesh.interior_vertices) == 0
    assert len(mesh.boundary_edges) == mesh.n_edges
    # every vertex belongs to that single cell only
    assert all(len(cells) == 1 for cells in vertex_cells(mesh))


def test_pathological_three_triangle_strip():
    mesh = build_pathological_mesh(n_cells=3)
    assert mesh.n_cells == 3
    middle = 1
    assert all(v in set(mesh.boundary_vertices) for v in mesh.cells[middle])
    # the leftmost vertex belongs to exactly one cell, itself all-boundary
    lone = vertex_cells(mesh)[0]
    assert len(lone) == 1
    assert all(v in set(mesh.boundary_vertices) for v in mesh.cells[lone[0]])


def test_bad_pathological_kind():
    with pytest.raises(MeshError, match="n_cells in"):
        build_pathological_mesh(n_cells=2)


def test_structured_rejects_zero():
    with pytest.raises(MeshError):
        build_structured_unit_square(0)


def test_mesh_file_roundtrip_bit_exact(tmp_path):
    verts = np.array([(0.0, 0.0), (1.0, 0.0), (1.0 / 3.0, np.sqrt(2.0)),
                      (-0.1234567890123456789, 1e-17)])
    cells = np.array([(0, 1, 2), (0, 2, 3)])
    mesh = build_from_arrays(verts, cells)
    path = tmp_path / "mesh.txt"
    write_mesh_file(mesh, path)
    back = read_mesh_file(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)


def test_mesh_file_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("mesh 3\nvertices 0\ncells 0\n")
    with pytest.raises(MeshError, match="header"):
        read_mesh_file(path)


def test_mesh_file_truncated(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("mesh 2\nvertices 3\n0 0\n1 0\n")
    with pytest.raises(MeshError):
        read_mesh_file(path)


@pytest.mark.parametrize("text, line", [
    ("mesh 2\nvertices 3\n0 0\n1 x\n0 1\ncells 1\n0 1 2\n", 4),
    # blank lines are skipped but the file's own numbering is kept
    ("\nmesh 2\n\nvertices 3\n0 0\n\n1 0 5\n0 1\ncells 1\n0 1 2\n", 7),
    ("mesh 2\nvertices three\n", 2),
    ("mesh 2\nvertices -1\ncells 0\n", 2),
    ("mesh 2\nvertices 3\n0 0\n1 0\n0 1\nfaces 1\n0 1 2\n", 6),
    ("mesh 2\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 2.0\n", 7),
    ("mesh 2\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1\n", 7),
    ("mesh 2\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 99999999999999999999\n", 7),
    ("mesh 2\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 2\n\ngarbage here\n", 9),
], ids=["coordinate", "blank-lines", "count", "negative-count", "keyword",
        "float-index", "short-cell", "huge-index", "trailing-line"])
def test_mesh_file_parse_error_names_line(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MeshError, match=f"bad.txt:{line}: expected"):
        read_mesh_file(path)


def test_mesh_file_binary_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe\x00mesh 2\n")
    with pytest.raises(MeshError):
        read_mesh_file(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinate_rejected(bad):
    with pytest.raises(MeshError, match="vertex 2 has a non-finite"):
        build_from_arrays([(0, 0), (1, 0), (bad, 1)], [(0, 1, 2)])


@pytest.mark.parametrize("far", [(1.5e154, 0.0), (1e308, 1e308)])
def test_overflowing_cell_rejected(far):
    # finite coordinates whose area or side lengths overflow to inf or nan
    with pytest.raises(MeshError, match="cell 0 has a non-finite area"):
        build_from_arrays([far, (0.5, 0.0), (0.5, 0.5), (-1e308, 0.0)],
                          [(0, 1, 2), (1, 2, 3)])


def test_mesh_without_cells_rejected():
    with pytest.raises(MeshError, match="no cells"):
        build_from_arrays([(0, 0), (1, 0), (0, 1)], np.zeros((0, 3), int))


def test_inball_positive_and_below_diameter():
    mesh = build_structured_unit_square(3)
    assert np.all(mesh.cell_inball > 0.0)
    assert np.all(mesh.cell_diameters >= mesh.cell_inball)


def test_hanging_node_rejected():
    # vertex 4 lies on the diagonal (0, 2), an edge of cell 0 alone
    verts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
    cells = [(0, 1, 2), (0, 4, 3), (4, 2, 3)]
    with pytest.raises(MeshError, match=r"boundary vertex 4 lies inside "
                                        r"boundary edge \(0, 2\)"):
        build_from_arrays(verts, cells)


def test_bisected_cell_beside_a_whole_one_rejected(tmp_path):
    # one cell of the 8 x 8 mesh cut at the midpoint of an edge it shares:
    # the new vertex hangs on its neighbour's edge
    base = build_structured_unit_square(8)
    a, b, c = base.cells[0]
    verts = np.vstack([base.vertices, 0.5 * (base.vertices[b]
                                             + base.vertices[c])])
    cells = np.vstack([base.cells[1:], [(a, b, 81), (a, 81, c)]])
    path = tmp_path / "mesh.txt"
    write_mesh_file(SimplicialMesh(verts, cells), path)
    with pytest.raises(MeshError, match="boundary vertex 81 lies inside"):
        read_mesh_file(path)


def test_collinear_boundary_vertices_accepted():
    # each side of the 4 x 4 mesh holds 5 collinear boundary vertices, none
    # strictly inside an edge
    base = build_structured_unit_square(4)
    mesh = build_from_arrays(base.vertices, base.cells)
    assert len(mesh.boundary_edges) == 16
