import tracemalloc
import warnings

import numpy as np
import pytest

from projnav import fem
from projnav.fem import (CompositeVelocity, FieldP1Scalar, FieldP2Vector,
                         SpaceP1, SpaceP2Vector, assemble_convection,
                         assemble_grad_coupling, assemble_load,
                         assemble_mass_p2, assemble_pressure_laplacian,
                         assemble_stiffness_p2, cell_div_moments, div_moments,
                         h1_seminorm, p2_gradients_at, p2_values_at,
                         weak_div_moments)
from projnav.interp import ANALYTIC_RULE
from projnav.mesh import (build_from_arrays, build_pathological_mesh,
                          build_structured_unit_square, read_mesh_file,
                          write_mesh_file)
from projnav.scheme import SchemeOperators

from oracles import (assemble_convection_unsplit, assemble_grad_coupling_coo,
                     cell_div_moments_einsum, convection_blocks_einsum,
                     element_pattern_unique, eval_basis, l2_inner,
                     p2_gradients_einsum, stiffness_blocks_einsum)


@pytest.fixture(scope="module")
def mesh2():
    return build_structured_unit_square(2)


@pytest.fixture(scope="module")
def pair2(mesh2):
    return SpaceP2Vector(mesh2), SpaceP1(mesh2)


def test_p1_basis_at_barycenter(pair2):
    _, s1 = pair2
    vals, grads = eval_basis(s1, 0, (1 / 3, 1 / 3, 1 / 3))
    assert np.allclose(vals, [1 / 3, 1 / 3, 1 / 3])
    assert grads.shape == (3, 2)
    assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-14)


def test_p2_nodal_kronecker(pair2):
    s2, _ = pair2
    nodes = [(1, 0, 0), (0, 1, 0), (0, 0, 1),
             (0, 0.5, 0.5), (0.5, 0, 0.5), (0.5, 0.5, 0)]
    for k, bary in enumerate(nodes):
        vals, _ = eval_basis(s2, 0, bary)
        expected = np.zeros(6)
        expected[k] = 1.0
        assert np.allclose(vals, expected, atol=1e-14)


def test_p2_partition_of_unity(pair2, rng):
    s2, _ = pair2
    for _ in range(10):
        lam = rng.dirichlet((1.0, 1.0, 1.0))
        vals, grads = eval_basis(s2, 3, lam)
        assert abs(vals.sum() - 1.0) <= 1e-14
        assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-12)


def test_eval_basis_rejects_outside_point(pair2):
    s2, _ = pair2
    with pytest.raises(ValueError):
        eval_basis(s2, 0, (-0.2, 0.6, 0.6))


def test_p1_mass_matrix_closed_form():
    # |K|/12 * [[2,1,1],[1,2,1],[1,1,2]] on a single triangle, integrated
    # through the same quadrature pipeline the package uses everywhere
    mesh = build_from_arrays([(0, 0), (2, 0), (0, 3)], [(0, 1, 2)])
    t = fem._tables(mesh, fem.DEFAULT_RULE)
    m = np.einsum("q,aq,bq->ab", t.weights, t.p1val, t.p1val) * mesh.cell_areas[0]
    area = 3.0
    expected = area / 12.0 * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.allclose(m, expected, atol=1e-15)


def test_mass_total_is_domain_area(pair2):
    s2, _ = pair2
    m = assemble_mass_p2(s2)
    ones = np.ones(s2.n_scalar)
    assert abs(ones @ m.matvec(ones) - 1.0) <= 1e-13


def test_mass_symmetric(pair2):
    s2, _ = pair2
    m = assemble_mass_p2(s2)
    dense = m.to_dense()
    assert np.allclose(dense, dense.T, atol=0.0)


def test_stiffness_rows_annihilate_constants(pair2):
    s2, _ = pair2
    a = assemble_stiffness_p2(s2)
    assert np.abs(a.matvec(np.ones(s2.n_scalar))).max() <= 1e-13


def test_stiffness_of_affine_field_weakly_harmonic(pair2):
    s2, _ = pair2
    a = assemble_stiffness_p2(s2)
    nodes = s2.node_coordinates()
    w = 2.0 * nodes[:, 0] - 0.7 * nodes[:, 1] + 0.3
    out = a.matvec(w)
    assert np.abs(out[s2.interior_dofs]).max() <= 1e-13


def test_convection_zero_wind_is_zero(pair2):
    s2, _ = pair2
    c = assemble_convection(s2, FieldP2Vector(s2))
    assert np.abs(c.data).max() == 0.0


def test_convection_non_finite_wind_gives_non_finite_data(pair2):
    # the caller's finiteness check reports a bad wind; the kernels stay
    # quiet, so it is not a RuntimeWarning first
    s2, _ = pair2
    wind = FieldP2Vector(s2)
    wind.coeffs[s2.interior_dofs[0], 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        c = assemble_convection(s2, wind)
    assert not np.isfinite(c.data).all()


def test_convection_skew_symmetry(pair2, irregular_mesh, rng):
    base = build_structured_unit_square(3)
    shuffled = build_from_arrays(base.vertices,
                                 base.cells[rng.permutation(base.n_cells)])
    for s2 in (pair2[0], SpaceP2Vector(irregular_mesh),
               SpaceP2Vector(shuffled)):
        for _ in range(20):
            wind = FieldP2Vector(s2, rng.standard_normal((s2.n_scalar, 2)))
            c = assemble_convection(s2, wind)
            v = rng.standard_normal(s2.n_scalar)
            cv = c.matvec(v)
            scale = max(np.linalg.norm(v) * np.linalg.norm(cv), 1e-30)
            assert abs(v @ cv) <= 1e-12 * scale
            dense = c.to_dense()
            assert np.allclose(dense, -dense.T, atol=0.0)


def test_convection_identity_equivalence(pair2, rng):
    # the half-difference form equals the one-sided form plus half the
    # div-wind mass term, entrywise, when the wind has zero boundary trace
    s2, _ = pair2
    wind = FieldP2Vector(s2)
    wind.coeffs[s2.interior_dofs] = rng.standard_normal(
        (len(s2.interior_dofs), 2))
    c = assemble_convection(s2, wind).to_dense()
    d = assemble_convection_unsplit(s2, wind).to_dense()
    scale = max(1.0, np.abs(c).max())
    assert np.abs(c - d).max() <= 1e-12 * scale


def test_convection_blocks_match_einsum_reference(irregular_mesh, rng):
    # the one-GEMM element blocks against the contraction over the stored
    # physical gradients; the assembled split stays exactly skew
    s2 = SpaceP2Vector(irregular_mesh)
    for _ in range(5):
        wind = FieldP2Vector(s2, rng.standard_normal((s2.n_scalar, 2)))
        elem = fem._convection_oneside(s2, wind)
        ref = convection_blocks_einsum(s2, wind)
        assert np.abs(elem - ref).max() <= 1e-14 * np.abs(ref).max()
        c = assemble_convection(s2, wind)
        assert np.array_equal(c.data, -c.data[s2.pattern.transpose])


@pytest.mark.parametrize("rule", [fem.DEFAULT_RULE, ANALYTIC_RULE],
                         ids=["default", "analytic"])
def test_p2_gradients_match_einsum_reference(irregular_mesh, rng, rule):
    # the reference-table evaluation against the contraction over the
    # per-cell table of physical basis gradients
    s2 = SpaceP2Vector(irregular_mesh)
    for _ in range(5):
        u = FieldP2Vector(s2, rng.standard_normal((s2.n_scalar, 2)))
        ref = p2_gradients_einsum(u, rule)
        assert (np.abs(p2_gradients_at(u, rule) - ref).max()
                <= 1e-14 * np.abs(ref).max())


def test_stiffness_matches_einsum_blocks_and_is_bitwise_symmetric(
        irregular_mesh):
    s2 = SpaceP2Vector(irregular_mesh)
    k = assemble_stiffness_p2(s2)
    ref = s2.pattern.assemble(stiffness_blocks_einsum(s2)).data
    assert np.abs(k.data - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.array_equal(k.data, k.data[s2.pattern.transpose])


def test_cell_div_moments_match_einsum_reference(irregular_mesh, rng):
    mesh = irregular_mesh
    local = rng.standard_normal((mesh.n_cells, 6, 2))
    cells = np.array([3, 0, 3, mesh.n_cells - 1])
    for args in ((local,), (local[cells], cells)):
        ref = cell_div_moments_einsum(mesh, *args)
        assert (np.abs(cell_div_moments(mesh, *args) - ref).max()
                <= 1e-14 * np.abs(ref).max())


def test_local_gather_matches_fancy_indexing(irregular_mesh, rng):
    s2 = SpaceP2Vector(irregular_mesh)
    one = rng.standard_normal((s2.n_scalar, 2))
    batch = rng.standard_normal((3, s2.n_scalar, 2))
    assert np.array_equal(s2.local(one), one[s2.gdof])
    assert np.array_equal(s2.local(batch), batch[..., s2.gdof, :])
    assert s2.local(batch).shape == (3, irregular_mesh.n_cells, 6, 2)


def test_tables_keep_no_per_cell_gradient_table():
    # the largest array is the (nc, nq, 2) rule points; the per-cell P2
    # gradient table this replaces, (nc, 6, nq, 2), took 7 MiB here and
    # the build peaked at 8.0 MiB against 1.27 MiB now
    mesh = build_structured_unit_square(32)
    fem._tables(mesh, fem.DEFAULT_RULE)
    tracemalloc.start()
    try:
        t = fem._Tables(mesh, ANALYTIC_RULE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not hasattr(t, "p2grad")
    per_cell_table = mesh.n_cells * 6 * len(ANALYTIC_RULE)
    assert all(a.size < per_cell_table for a in vars(t).values()
               if isinstance(a, np.ndarray))
    assert peak < 1.5 * 2 ** 20


def test_grad_coupling_affine_pressure(pair2, rng):
    s2, s1 = pair2
    g = assemble_grad_coupling(s2, s1)
    q = s2.mesh.vertices[:, 0].copy()          # grad q = (1, 0)
    gq = g.matvec(q)
    m = assemble_mass_p2(s2)
    phi_integrals = m.matvec(np.ones(s2.n_scalar))
    v = rng.standard_normal((s2.n_scalar, 2))
    field = FieldP2Vector(s2, v)
    lhs = gq @ field.flat()
    rhs = phi_integrals @ v[:, 0]
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


def test_grad_coupling_constant_pressure(pair2):
    s2, s1 = pair2
    g = assemble_grad_coupling(s2, s1)
    assert np.abs(g.matvec(np.ones(s1.ndof))).max() <= 1e-14


def test_grad_coupling_matches_triplet_assembly_bitwise(irregular_mesh):
    s2, s1 = SpaceP2Vector(irregular_mesh), SpaceP1(irregular_mesh)
    g = assemble_grad_coupling(s2, s1)
    ref = assemble_grad_coupling_coo(s2, s1)
    assert g.shape == ref.shape == (2 * s2.n_scalar, s1.ndof)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(g, name), getattr(ref, name))


PATTERN_MESHES = ["structured-1", "structured-4", "structured-16",
                  "irregular", "all-boundary-cell", "file"]


@pytest.fixture
def pattern_mesh(request, irregular_mesh, tmp_path):
    kind = request.param
    if kind.startswith("structured"):
        return build_structured_unit_square(int(kind.split("-")[1]))
    if kind == "all-boundary-cell":
        return build_pathological_mesh(n_cells=3)
    if kind == "irregular":
        return irregular_mesh
    # the irregular mesh with its cells shuffled and each cell's vertices
    # rotated, through a file: the keys arrive in no structured order
    rng = np.random.default_rng(7)
    order = rng.permutation(irregular_mesh.n_cells)
    cells = np.roll(irregular_mesh.cells[order], 1, axis=1)
    write_mesh_file(build_from_arrays(irregular_mesh.vertices, cells),
                    tmp_path / "mesh.txt")
    return read_mesh_file(tmp_path / "mesh.txt")


@pytest.mark.parametrize("pattern_mesh", PATTERN_MESHES, indirect=True)
def test_element_patterns_match_the_unique_oracle(pattern_mesh):
    s2, s1 = SpaceP2Vector(pattern_mesh), SpaceP1(pattern_mesh)
    for space, dofs, n in ((s2, s2.gdof, s2.n_scalar),
                           (s1, pattern_mesh.cells, s1.ndof)):
        pattern = space.pattern
        indptr, indices, first, slot = element_pattern_unique(dofs, dofs,
                                                              (n, n))
        assert np.array_equal(pattern.csr.indptr, indptr)
        assert np.array_equal(pattern.csr.indices, indices)
        assert np.array_equal(pattern.first, first)
        assert pattern.slot.shape == dofs.shape + dofs.shape[1:]
        assert np.array_equal(pattern.slot.reshape(-1), slot)
        # the other entries: each entry is first or rest exactly once, and
        # the rest run by place, in elem order within one place
        assert np.array_equal(np.sort(np.concatenate(
            [pattern.first, pattern.rest])), np.arange(slot.size))
        assert np.array_equal(pattern.rest_slot, slot[pattern.rest])
        assert np.all(np.lexsort((pattern.rest, pattern.rest_slot))
                      == np.arange(len(pattern.rest)))
        assert np.array_equal(pattern.transpose,
                              pattern.csr.transpose()[1])


@pytest.mark.parametrize("pattern_mesh", [
    kind for kind in PATTERN_MESHES if kind != "irregular"], indirect=True)
def test_grad_coupling_block_matches_triplet_assembly_bitwise(pattern_mesh):
    # G is read off the P2 pattern's vertex columns, with no pattern of its
    # own; its bits are those of the triplets summed by from_coo (the
    # irregular mesh is test_grad_coupling_matches_triplet_assembly_bitwise)
    s2, s1 = SpaceP2Vector(pattern_mesh), SpaceP1(pattern_mesh)
    g = assemble_grad_coupling(s2, s1)
    ref = assemble_grad_coupling_coo(s2, s1)
    assert g.shape == ref.shape == (2 * s2.n_scalar, s1.ndof)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(g, name), getattr(ref, name))


def test_weak_div_moments_of_interpolated_divfree_field():
    from projnav.interp import pi_n
    from projnav.mms import spline_bump_field
    mesh = build_structured_unit_square(8)
    s2, s1 = SpaceP2Vector(mesh), SpaceP1(mesh)
    field, status = pi_n(spline_bump_field(), s2)
    assert status == "corrected"
    moments = weak_div_moments(field, s1, grad=assemble_grad_coupling(s2, s1))
    assert np.abs(moments).max() <= 1e-12


def test_pressure_laplacian_kernel_and_affine_energy(pair2):
    s2, s1 = pair2
    lap = assemble_pressure_laplacian(s1)
    assert np.abs(lap.matvec(np.ones(s1.ndof))).max() == 0.0
    q = 3.0 * s1.mesh.vertices[:, 0] - 2.0 * s1.mesh.vertices[:, 1]
    energy = q @ lap.matvec(q)
    assert abs(energy - 13.0) <= 1e-12


def test_pressure_laplacian_second_eigenvalue_positive(pair2):
    _, s1 = pair2
    lap = assemble_pressure_laplacian(s1)
    eigs = np.linalg.eigvalsh(lap.to_dense())
    assert abs(eigs[0]) <= 1e-12
    assert eigs[1] > 1e-8


def test_load_zero_forcing(pair2):
    s2, _ = pair2
    vec = assemble_load(s2, lambda p, t: np.zeros((len(p), 2)), 0.0, 0.5)
    assert np.abs(vec).max() == 0.0


def test_load_time_constant_forcing_window_independent(pair2):
    s2, _ = pair2

    def f(p, t):
        return np.stack([p[:, 0] ** 2, p[:, 1]], axis=-1)

    a = assemble_load(s2, f, 0.0, 1.0)
    b = assemble_load(s2, f, 0.3, 0.35)
    assert np.abs(a - b).max() <= 1e-14 * max(1.0, np.abs(a).max())


def test_load_sinusoidal_time_average(pair2):
    s2, _ = pair2

    def g(p):
        return np.stack([np.sin(np.pi * p[:, 0]), p[:, 1] ** 2], axis=-1)

    t_a, t_b = 0.4, 0.5
    vec = assemble_load(s2, lambda p, t: np.sin(t) * g(p), t_a, t_b)
    base = assemble_load(s2, lambda p, t: g(p), 0.0, 1.0)
    factor = (np.cos(t_a) - np.cos(t_b)) / (t_b - t_a)
    assert np.abs(vec - factor * base).max() <= 1e-10


def test_load_rejects_bad_window(pair2):
    s2, _ = pair2
    with pytest.raises(ValueError):
        assemble_load(s2, lambda p, t: np.zeros((len(p), 2)), 1.0, 1.0)


def test_h1_seminorm_of_affine_field(pair2):
    s2, _ = pair2
    nodes = s2.node_coordinates()
    coeffs = np.stack([nodes[:, 0] + nodes[:, 1], np.zeros(len(nodes))], axis=-1)
    val = h1_seminorm(FieldP2Vector(s2, coeffs))
    assert abs(val - np.sqrt(2.0)) <= 1e-13


def test_l2_inner_constant_fields(pair2):
    s2, s1 = pair2
    ones = FieldP2Vector(s2, np.ones((s2.n_scalar, 2)))
    assert abs(l2_inner(ones, ones) - 2.0) <= 1e-13
    p_ones = FieldP1Scalar(s1, np.ones(s1.ndof))
    assert abs(l2_inner(p_ones, p_ones) - 1.0) <= 1e-13


def test_weak_div_moments_of_pure_gradient_composite(pair2, rng):
    s2, s1 = pair2
    lap = assemble_pressure_laplacian(s1)
    q = rng.standard_normal(s1.ndof)
    scale = 0.37
    u = CompositeVelocity(FieldP2Vector(s2), FieldP1Scalar(s1, q), scale)
    moments = weak_div_moments(u, s1, grad=assemble_grad_coupling(s2, s1),
                               lap=lap)
    assert np.abs(moments + scale * lap.matvec(q)).max() <= 1e-13


def test_composite_moment_against_direct_inner_product(pair2, rng):
    s2, s1 = pair2
    ops = SchemeOperators(s2, s1)
    p2 = FieldP2Vector(s2, rng.standard_normal((s2.n_scalar, 2)))
    v = FieldP2Vector(s2, rng.standard_normal((s2.n_scalar, 2)))
    u = CompositeVelocity(p2, FieldP1Scalar(s1), 0.5)
    assert abs(ops.moment_vector(u) @ v.flat() - l2_inner(p2, v)) <= 1e-12
    # with a gradient part, against cellwise quadrature of the composite
    u = CompositeVelocity(p2, FieldP1Scalar(s1, rng.standard_normal(s1.ndof)),
                          0.5)
    t = fem._tables(s2.mesh, fem.DEFAULT_RULE)
    uq = u.values_at()
    cell = np.einsum("q,cqx,cqx->c", t.weights, uq, p2_values_at(v))
    assert abs(ops.moment_vector(u) @ v.flat()
               - cell @ s2.mesh.cell_areas) <= 1e-12
    cell = np.einsum("q,cqx,cqx->c", t.weights, uq, uq)
    assert abs(ops.composite_norm_sq(u) - cell @ s2.mesh.cell_areas) <= 1e-12


def test_mismatched_meshes_rejected(pair2):
    s2, s1 = pair2
    other = SpaceP1(build_structured_unit_square(3))
    field = FieldP2Vector(s2)
    with pytest.raises(ValueError):
        weak_div_moments(field, other, grad=assemble_grad_coupling(s2, s1))


def test_assembly_independent_of_cell_order(rng):
    mesh = build_structured_unit_square(3)
    perm = rng.permutation(mesh.n_cells)
    shuffled = build_from_arrays(mesh.vertices, mesh.cells[perm])
    a1 = assemble_stiffness_p2(SpaceP2Vector(mesh)).to_dense()
    # the shuffled mesh numbers its edges identically (same vertex pairs)
    a2 = assemble_stiffness_p2(SpaceP2Vector(shuffled)).to_dense()
    assert np.abs(a1 - a2).max() <= 1e-14 * max(1.0, np.abs(a1).max())


def test_assembly_deterministic(pair2):
    s2, _ = pair2
    a1 = assemble_stiffness_p2(s2)
    a2 = assemble_stiffness_p2(s2)
    assert np.array_equal(a1.data, a2.data)
    assert np.array_equal(a1.indices, a2.indices)


def test_p2_interpolation_reproduces_quadratics(pair2, rng):
    s2, _ = pair2
    nodes = s2.node_coordinates()

    def poly(p):
        x, y = p[:, 0], p[:, 1]
        return np.stack([1.0 + 2 * x - y + 3 * x * y + x ** 2,
                         0.5 - y ** 2 + x * y], axis=-1)

    field = FieldP2Vector(s2, poly(nodes))
    # field identity at random interior points, cellwise
    t = fem._tables(s2.mesh, fem.DEFAULT_RULE)
    vals = fem.p2_values_at(field)
    exact = poly(t.points.reshape(-1, 2)).reshape(vals.shape)
    assert np.abs(vals - exact).max() <= 1e-13


def test_div_moments_match_weak_form_for_zero_trace_fields(pair2, rng):
    s2, s1 = pair2
    field = FieldP2Vector(s2)
    field.coeffs[s2.interior_dofs] = rng.standard_normal(
        (len(s2.interior_dofs), 2))
    a = div_moments(field, s1)
    b = -weak_div_moments(field, s1, grad=assemble_grad_coupling(s2, s1))
    assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(a).max())
