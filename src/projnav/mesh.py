"""Conforming 2D triangular meshes: connectivity, patches, regularity metrics.

Vertices and cells are the primary data; edges, boundary classification,
patch areas and per-cell geometry are derived at construction, incident
cells per edge and vertex on first read.  Boundary detection is purely
combinatorial: an edge is a boundary edge iff it has one incident cell.
"""

from functools import cached_property

import numpy as np

__all__ = [
    "MeshError",
    "SimplicialMesh",
    "build_from_arrays",
    "build_structured_unit_square",
    "build_pathological_mesh",
    "mesh_metrics",
    "write_mesh_file",
    "read_mesh_file",
]


class MeshError(ValueError):
    """Invalid mesh data; the message names the offending entity."""


class SimplicialMesh:
    """Immutable triangle mesh with derived connectivity.

    Attributes
    ----------
    vertices : (nv, 2) float array
    cells : (nc, 3) int array, positively oriented
    edges : (ne, 2) int array, each row sorted increasingly
    cell_edges : (nc, 3) int array; entry ``l`` is the edge opposite
        local vertex ``l`` of the cell
    boundary_edges : int array of edge indices with one incident cell
    boundary_vertices, interior_vertices : int arrays partitioning vertices
    edge_cells : list of int arrays, incident cells per edge
    vertex_cells : list of int arrays, incident cells per vertex; both are
        computed on first read, and only the tests read them
    cell_areas, cell_diameters, cell_inball : (nc,) float arrays; ``cell_inball``
        is the diameter of the largest disk inscribed in the cell
    edge_patch_area : (ne,) float array, total area of the incident cells
    """

    def __init__(self, vertices, cells):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if cells.ndim != 2 or cells.shape[1] != 3:
            raise MeshError("cells must be an (nc, 3) array")
        if not len(cells):
            raise MeshError("mesh has no cells")
        bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
        if bad.size:
            raise MeshError(f"vertex {bad[0]} has a non-finite coordinate: "
                            f"{tuple(vertices[bad[0]].tolist())}")
        nv = len(vertices)
        if cells.size and (cells.min() < 0 or cells.max() >= nv):
            bad = np.where((cells < 0) | (cells >= nv))[0][0]
            raise MeshError(f"cell {bad} has vertex index out of range: "
                            f"{tuple(cells[bad].tolist())}")
        unused = np.flatnonzero(np.bincount(cells.ravel(), minlength=nv) == 0)
        if unused.size:
            raise MeshError(f"vertex {unused[0]} belongs to no cell")
        repeated = np.flatnonzero((cells[:, 0] == cells[:, 1])
                                  | (cells[:, 1] == cells[:, 2])
                                  | (cells[:, 0] == cells[:, 2]))
        if repeated.size:
            c = repeated[0]
            raise MeshError(f"cell {c} has repeated vertices: "
                            f"{tuple(cells[c].tolist())}")

        # positive orientation (counterclockwise); reorder silently
        p0 = vertices[cells[:, 0]]
        p1 = vertices[cells[:, 1]]
        p2 = vertices[cells[:, 2]]
        # an overflow is reported as a MeshError below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            twice_area = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                          - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0]))
            s01 = np.linalg.norm(p1 - p0, axis=1)
            s12 = np.linalg.norm(p2 - p1, axis=1)
            s02 = np.linalg.norm(p2 - p0, axis=1)
            perim = s01 + s12 + s02
        overflow = np.flatnonzero(~(np.isfinite(twice_area)
                                    & np.isfinite(perim)))
        if overflow.size:
            c = overflow[0]
            raise MeshError(f"cell {c} has a non-finite area or perimeter: "
                            f"{tuple(cells[c].tolist())}")
        degenerate = np.where(twice_area == 0.0)[0]
        if degenerate.size:
            c = degenerate[0]
            raise MeshError(f"cell {c} has zero area: "
                            f"{tuple(cells[c].tolist())}")
        flip = twice_area < 0.0
        cells[flip] = cells[flip][:, [0, 2, 1]]
        twice_area = np.abs(twice_area)

        key = np.sort(cells, axis=1)
        order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
        dup = np.where((np.diff(key[order], axis=0) == 0).all(axis=1))[0]
        if dup.size:
            c = order[dup[0] + 1]
            raise MeshError(f"duplicate cell {c}: {tuple(cells[c].tolist())}")

        self.vertices = vertices
        self.cells = cells
        self.n_vertices = nv
        self.n_cells = len(cells)

        # edges: unordered pairs, canonical i<j, lexicographic order
        raw = np.concatenate([cells[:, [1, 2]], cells[:, [0, 2]], cells[:, [0, 1]]])
        raw.sort(axis=1)
        # row-major keys of sorted pairs order them as the rows do
        keys, inverse = np.unique(raw[:, 0] * nv + raw[:, 1],
                                  return_inverse=True)
        edges = np.stack([keys // nv, keys % nv], axis=1)
        self.edges = edges
        self.n_edges = len(edges)
        self.cell_edges = inverse.reshape(3, self.n_cells).T.copy()

        counts = np.bincount(inverse, minlength=self.n_edges)
        if counts.max() > 2:
            e = int(np.argmax(counts))
            raise MeshError(f"non-manifold edge {tuple(edges[e].tolist())}: "
                            f"{counts[e]} incident cells")
        # every cell is now counterclockwise, so the far vertices of an
        # interior edge lie on opposite sides of it exactly when its two
        # cells traverse it in opposite directions; on a folded mesh some
        # edge has both cells on one side
        ahead = np.where(cells[:, [1, 2, 0]] < cells[:, [2, 0, 1]], 1, -1)
        turn = np.bincount(self.cell_edges.ravel(), weights=ahead.ravel(),
                           minlength=self.n_edges)
        folded = np.flatnonzero(np.abs(turn) == 2)
        if folded.size:
            e = folded[0]
            raise MeshError(f"folded mesh: both cells of edge "
                            f"{tuple(edges[e].tolist())} lie on the same "
                            f"side of it")
        self.boundary_edges = np.where(counts == 1)[0]

        bset = np.zeros(nv, dtype=bool)
        bset[edges[self.boundary_edges].ravel()] = True
        self.boundary_vertices = np.where(bset)[0]
        self.interior_vertices = np.where(~bset)[0]
        self.is_boundary_edge = np.zeros(self.n_edges, dtype=bool)
        self.is_boundary_edge[self.boundary_edges] = True

        # geometry
        self.cell_areas = 0.5 * twice_area
        self.cell_diameters = np.maximum(np.maximum(s01, s12), s02)
        self.cell_inball = 4.0 * self.cell_areas / perim
        self.edge_patch_area = np.zeros(self.n_edges)
        np.add.at(self.edge_patch_area, self.cell_edges.ravel(),
                  np.repeat(self.cell_areas, 3))

    @cached_property
    def edge_cells(self):
        return _incident_cells(self.cell_edges, self.n_edges)

    @cached_property
    def vertex_cells(self):
        return _incident_cells(self.cells, self.n_vertices)

    def edge_indices(self, i, j):
        """Edge indices of the unordered pairs {i[k], j[k]}; MeshError names
        the first pair that is not an edge."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        pairs = np.stack([np.minimum(i, j), np.maximum(i, j)], axis=-1)
        # the rows of ``edges`` are sorted, so their row-major keys are too
        nv = self.n_vertices
        k = np.searchsorted(self.edges[:, 0] * nv + self.edges[:, 1],
                            pairs[:, 0] * nv + pairs[:, 1])
        k = np.minimum(k, self.n_edges - 1)
        missing = np.flatnonzero((self.edges[k] != pairs).any(axis=1))
        if missing.size:
            m = missing[0]
            raise MeshError(f"no edge {{{i[m]}, {j[m]}}} in mesh")
        return k


def _incident_cells(cell_entities, n):
    """Per entity, the increasing indices of the cells that list it in
    ``cell_entities`` (nc, k); each cell lists an entity at most once."""
    flat = cell_entities.ravel()
    # a stable sort keeps each entity's cells in increasing order
    order = np.argsort(flat, kind="stable")
    bounds = np.cumsum(np.bincount(flat, minlength=n))[:-1]
    return np.split(order // cell_entities.shape[1], bounds)


def build_from_arrays(vertices, cells):
    """Mesh from raw vertex/cell arrays; derives all connectivity.  A
    boundary vertex strictly inside a boundary edge, to 1e-12 of its
    length, is a hanging node: MeshError names both.  The generators below
    are conforming by construction and skip that check."""
    mesh = SimplicialMesh(vertices, cells)
    z = mesh.vertices[:, 0] + 1j * mesh.vertices[:, 1]
    ends, bv = mesh.edges[mesh.boundary_edges], mesh.boundary_vertices
    step = max(1, (1 << 14) // len(bv))  # 2^14 vertex-edge pairs at once
    for k in range(0, len(ends), step):
        a, b = (z[ends[k:k + step, j], None] for j in (0, 1))
        with np.errstate(all="ignore"):
            # where each vertex lies along each edge: a at 0, b at 1
            t = (z[bv] - a) / (b - a)
        hanging = ((1e-12 < t.real) & (t.real < 1.0 - 1e-12)
                   & (np.abs(t.imag) <= 1e-12))
        if hanging.any():
            e, v = np.argwhere(hanging)[0]
            raise MeshError(f"hanging node: boundary vertex {bv[v]} lies "
                            f"inside boundary edge "
                            f"{tuple(ends[k + e].tolist())}")
    return mesh


def build_structured_unit_square(n):
    """Uniform mesh of (0,1)^2: n*n squares, each cut along the same diagonal."""
    if n < 1:
        raise MeshError(f"structured mesh needs n >= 1, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # square (i, j), row by row, is cut into (v00, v10, v11), (v00, v11, v01)
    j, i = np.divmod(np.arange(n * n), n)
    v00 = j * (n + 1) + i
    v01 = v00 + n + 1
    cells = np.stack([v00, v00 + 1, v01 + 1, v00, v01 + 1, v01], axis=1)
    return SimplicialMesh(vertices, cells.reshape(-1, 3))


def build_pathological_mesh(n_cells=3):
    """The all_boundary_cell mesh: ``n_cells`` (1 or 3) triangles, some
    cell with all its vertices on the boundary and some vertex in a single
    cell.  With one triangle every velocity dof is a boundary dof.
    """
    if n_cells == 1:
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        cells = [(0, 1, 2)]
    elif n_cells == 3:
        verts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.5, 1.0), (1.5, 1.0)]
        cells = [(0, 1, 3), (1, 4, 3), (1, 2, 4)]
    else:
        raise MeshError(f"all_boundary_cell supports n_cells in {{1, 3}}, got {n_cells}")
    return SimplicialMesh(np.array(verts), np.array(cells))


def mesh_metrics(mesh):
    """(h_T, theta_T): max cell diameter and max diameter/inscribed-ball ratio."""
    h_t = float(mesh.cell_diameters.max())
    theta_t = float((mesh.cell_diameters / mesh.cell_inball).max())
    return h_t, theta_t


def write_mesh_file(mesh, path):
    """Plain-text mesh file; coordinates at 17 significant digits."""
    lines = ["mesh 2", f"vertices {mesh.n_vertices}"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    lines.append(f"cells {mesh.n_cells}")
    for a, b, c in mesh.cells:
        lines.append(f"{a} {b} {c}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh_file(path):
    """Read a file written by ``write_mesh_file``; blank lines are ignored.

    Malformed input, a line after the last cell included, raises MeshError
    naming ``path:line``.
    """
    try:
        with open(path) as fh:
            lines = [(no, ln.split()) for no, ln in enumerate(fh, 1)
                     if ln.strip()]
    except UnicodeDecodeError as err:
        raise MeshError(f"{path}: not a text file ({err.reason})") from None
    lines.reverse()

    def row(what, cast, width, head=()):
        """Next line: the literal tokens ``head``, then ``width`` values."""
        if not lines:
            raise MeshError(f"{path}: truncated file, expected {what}")
        no, tokens = lines.pop()
        if (len(tokens) == len(head) + width
                and tuple(tokens[:len(head)]) == head):
            try:
                return [cast(t) for t in tokens[len(head):]]
            except (ValueError, OverflowError):
                pass
        raise MeshError(f"{path}:{no}: expected {what}, "
                        f"got {' '.join(tokens)!r}")

    # the numpy casts reject negative counts and indices beyond int64
    row("header 'mesh 2'", str, 0, head=("mesh", "2"))
    nv, = row("'vertices <count>'", np.uint32, 1, head=("vertices",))
    vertices = np.array([row("vertex 'x y'", float, 2) for _ in range(nv)])
    nc, = row("'cells <count>'", np.uint32, 1, head=("cells",))
    cells = np.array([row("cell 'i j k'", np.int64, 3) for _ in range(nc)],
                     dtype=np.int64)
    if lines:  # a line after the last cell matches no empty row
        row("the end of the file after the last cell", str, 0)
    return build_from_arrays(vertices, cells)
