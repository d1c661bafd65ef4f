import tracemalloc

import numpy as np
import pytest

from projnav import mms
from projnav.fem import (CompositeVelocity, FieldP1Scalar, FieldP2Vector,
                         SpaceP1, SpaceP2Vector)
from projnav.mesh import build_structured_unit_square
from projnav.scheme import SchemeConfig, run
from projnav.vtk import _SUBTRIANGLES, write_vtk_fields

from oracles import write_vtk_fields_each_block


def _block(lines, header, count, width):
    start = lines.index(header) + 1
    if header.startswith("SCALARS"):
        assert lines[start] == "LOOKUP_TABLE default"
        start += 1
    return np.array([[float(t) for t in lines[start + k].split()[:width]]
                     for k in range(count)])


def test_point_blocks_read_back_exactly(irregular_mesh, rng, tmp_path):
    mesh = irregular_mesh
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh)
    ut = FieldP2Vector(s2, rng.standard_normal((s2.n_scalar, 2))
                       * 10.0 ** rng.integers(-20, 20, (s2.n_scalar, 2)))
    ut.coeffs[0] = (-0.0, 1.0 / 3.0)
    p2 = FieldP2Vector(s2, rng.standard_normal((s2.n_scalar, 2)))
    p = FieldP1Scalar(s1, rng.standard_normal(s1.ndof))
    u = CompositeVelocity(p2, p, 0.37)
    path = tmp_path / "f.vtk"
    write_vtk_fields(path, s2, u_tilde=ut, u=u, pressure=p)
    lines = path.read_text().splitlines()

    n = s2.n_scalar
    assert lines[4] == f"POINTS {n} double"
    assert np.array_equal(_block(lines, lines[4], n, 2),
                          s2.node_coordinates())
    nsub = 4 * mesh.n_cells
    cells = _block(lines, f"CELLS {nsub} {4 * nsub}", nsub, 4)
    assert np.array_equal(cells[:, 0], np.full(nsub, 3.0))
    expected = [s2.gdof[c, list(tri)] for c in range(mesh.n_cells)
                for tri in _SUBTRIANGLES]
    assert np.array_equal(cells[:, 1:], np.array(expected))

    got = _block(lines, "VECTORS u_tilde double", n, 2)
    assert np.array_equal(got, ut.coeffs)
    assert np.signbit(got[0, 0])
    assert np.array_equal(_block(lines, "VECTORS u_p2_part double", n, 2),
                          p2.coeffs)
    pressure = np.concatenate([
        p.coeffs, 0.5 * (p.coeffs[mesh.edges[:, 0]]
                         + p.coeffs[mesh.edges[:, 1]])])
    assert np.array_equal(
        _block(lines, "SCALARS pressure double 1", n, 1)[:, 0], pressure)
    grad_part = _block(lines, "VECTORS grad_part double", nsub, 2)
    assert np.array_equal(grad_part, np.repeat(
        -0.37 * u.grad_part_cell_gradients(), 4, axis=0))


def test_write_holds_less_than_twice_the_file(rng, tmp_path):
    # the blocks go to the file as they are formatted; holding the whole
    # text before one write peaked at about 3.5 times the file size
    mesh = build_structured_unit_square(16)
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh)
    fields = {
        "u_tilde": FieldP2Vector(s2, rng.standard_normal((s2.n_scalar, 2))),
        "u": CompositeVelocity(
            FieldP2Vector(s2, rng.standard_normal((s2.n_scalar, 2))),
            FieldP1Scalar(s1, rng.standard_normal(s1.ndof)), 0.3),
        "pressure": FieldP1Scalar(s1, rng.standard_normal(s1.ndof)),
    }
    path = tmp_path / "f.vtk"
    write_vtk_fields(path, s2, **fields)
    tracemalloc.start()
    try:
        write_vtk_fields(path, s2, **fields)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size


def _same_bytes_as_each_block(tmp_path, s2, **fields):
    write_vtk_fields(tmp_path / "a.vtk", s2, **fields)
    write_vtk_fields_each_block(tmp_path / "b.vtk", s2, **fields)
    text = (tmp_path / "a.vtk").read_bytes()
    assert text == (tmp_path / "b.vtk").read_bytes()
    return text.decode()


def test_run_state_bytes_equal_every_block_formatted(tmp_path):
    mesh = build_structured_unit_square(4)
    s2, s1 = SpaceP2Vector(mesh), SpaceP1(mesh)
    state = run(s2, s1, mms.initial_velocity, mms.forcing,
                SchemeConfig(n_steps=2, t_final=1.0)).state
    # the prediction is the corrected velocity's P2 part, so its text is
    # formatted once and written twice
    assert np.array_equal(state.u.p2_part.coeffs, state.u_tilde.coeffs)
    _same_bytes_as_each_block(tmp_path, s2, u_tilde=state.u_tilde,
                              u=state.u, pressure=state.p)


@pytest.mark.parametrize("with_u_tilde", [True, False])
def test_signed_zero_block_bytes_equal_every_block_formatted(
        rng, tmp_path, with_u_tilde):
    mesh = build_structured_unit_square(4)
    s2, s1 = SpaceP2Vector(mesh), SpaceP1(mesh)
    ut = FieldP2Vector(s2, rng.standard_normal((s2.n_scalar, 2)))
    ut.coeffs[3, 1] = 0.0
    p2 = FieldP2Vector(s2, ut.coeffs.copy())
    p2.coeffs[3, 1] = -0.0
    # equal under ==, not bit for bit: the blocks must print apart
    assert np.array_equal(p2.coeffs, ut.coeffs)
    u = CompositeVelocity(p2, FieldP1Scalar(s1, rng.standard_normal(s1.ndof)),
                          0.3)
    fields = {"u_tilde": ut} if with_u_tilde else {}
    text = _same_bytes_as_each_block(tmp_path, s2, u=u, **fields)
    lines = text.splitlines()
    start = lines.index("VECTORS u_p2_part double") + 1
    assert lines[start + 3].split()[1] == "-0"
    if with_u_tilde:
        start = lines.index("VECTORS u_tilde double") + 1
        assert lines[start + 3].split()[1] == "0"
