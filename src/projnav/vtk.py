"""Legacy-VTK ASCII output on a 4-subtriangle visualization mesh.

Each quadratic cell is split into four subtriangles through its midpoint
nodes, so quadratic point data lives at genuine mesh points.  The
corrected velocity is discontinuous across parent cells; its gradient part
and the combined field are therefore emitted as cell data sampled at the
subcell centroids.
"""

import numpy as np

from .fem import p2_reference_values

__all__ = ["write_vtk_fields"]

# subtriangles in local node numbering (vertices 0..2, midpoints 3+l
# opposite vertex l)
_SUBTRIANGLES = ((0, 5, 4), (5, 1, 3), (4, 3, 2), (3, 4, 5))


def _centroid_bary():
    out = []
    corners = np.array([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                        (0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)])
    for tri in _SUBTRIANGLES:
        out.append(corners[list(tri)].mean(axis=0))
    return np.array(out)


def _lines(fmt, rows):
    """The rows of a nonempty 2-D array, one line of ``fmt`` each, as one
    string (whole-array formatting: no Python loop over the rows)."""
    return "\n".join([fmt] * len(rows)) % tuple(rows.ravel().tolist())


def _write(fh, *blocks):
    """Each block, then a newline."""
    for block in blocks:
        fh.write(block)
        fh.write("\n")


def write_vtk_fields(path, space2, u_tilde=None, u=None, pressure=None):
    """Write point/cell data for the given discrete fields.

    u_tilde: quadratic vector field (point data "u_tilde").
    u: composite corrected velocity (point data for its quadratic part,
       cell data "grad_part" and "u_corrected").
    pressure: affine scalar field (point data, midpoints averaged).
    """
    mesh = space2.mesh
    points = space2.node_coordinates()
    gdof = space2.gdof
    nsub = 4 * mesh.n_cells
    # each block is written as soon as it is formatted, so the file's
    # text is never held whole
    with open(path, "w") as fh:
        _write(fh, "# vtk DataFile Version 2.0", "projnav fields", "ASCII",
               "DATASET UNSTRUCTURED_GRID", f"POINTS {len(points)} double",
               _lines("%.17g %.17g 0", points))
        _write(fh, f"CELLS {nsub} {4 * nsub}",
               _lines("3 %d %d %d", gdof[:, _SUBTRIANGLES].reshape(-1, 3)))
        _write(fh, f"CELL_TYPES {nsub}", "\n".join(["5"] * nsub))

        point_blocks = []
        if u_tilde is not None:
            point_blocks.append(("u_tilde", u_tilde.coeffs))
        if u is not None:
            point_blocks.append(("u_p2_part", u.p2_part.coeffs))
        if pressure is not None:
            vals = np.empty(space2.n_scalar)
            vals[:mesh.n_vertices] = pressure.coeffs
            vals[mesh.n_vertices:] = 0.5 * (
                pressure.coeffs[mesh.edges[:, 0]]
                + pressure.coeffs[mesh.edges[:, 1]])
            point_blocks.append(("pressure", vals))
        if point_blocks:
            _write(fh, f"POINT_DATA {len(points)}")
            last = text = None
            for name, data in point_blocks:
                if data.ndim == 2:
                    # a block bitwise equal to the one before (u_p2_part
                    # is u_tilde in every state ``run`` returns) reuses its
                    # text; bits, not ==, since -0.0 and 0.0 print apart
                    if last is None or not np.array_equal(
                            data.view(np.uint64), last.view(np.uint64)):
                        last, text = data, _lines("%.17g %.17g 0", data)
                    _write(fh, f"VECTORS {name} double", text)
                else:
                    _write(fh, f"SCALARS {name} double 1",
                           "LOOKUP_TABLE default",
                           _lines("%.17g", data[:, None]))

        if u is not None:
            grads = u.grad_part_cell_gradients()
            p2v = p2_reference_values(_centroid_bary())    # (6, 4)
            local = space2.local(u.p2_part.coeffs)         # (nc, 6, 2)
            centers = np.einsum("cax,as->csx", local, p2v)
            # one line per parent cell, written once per subtriangle
            lines = _lines("%.17g %.17g 0", -u.scale * grads).split("\n")
            _write(fh, f"CELL_DATA {nsub}", "VECTORS grad_part double",
                   "\n".join(map("\n".join, zip(*[lines] * 4))))
            corrected = centers - u.scale * grads[:, None, :]
            _write(fh, "VECTORS u_corrected double",
                   _lines("%.17g %.17g 0", corrected.reshape(-1, 2)))
