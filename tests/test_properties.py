"""Property tests of the input boundary: every input either gives a valid
object or the documented error, never another exception.

The examples are derived from each test's source (``derandomize``) and no
example database is kept, so every run checks the same cases.  Besides
arbitrary text and arrays, the strategies build small meshes that are
often valid (cells of a small square mesh, a few vertices moved or an
index replaced), so the accepting path is exercised as well.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from projnav.cli import USAGE_ERROR, CliError, load_config
from projnav.mesh import (MeshError, SimplicialMesh, build_from_arrays,
                          build_structured_unit_square, read_mesh_file)

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=80)
# text over the first 12k code points (controls, Latin, the Unicode spaces
# and line separators) spares the strategy the whole-Unicode table
_CHARS = st.characters(max_codepoint=0x3000)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_GRID = build_structured_unit_square(2)
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6)

_CONFIG_WORDS = ["mesh", "n", "steps", "T", "pred_tol", "corr_tol",
                 "problem", "out", "emit_fields", "levels", "omega", "=",
                 "#", "true", "off", "1e-3", "-2", "nan", "1e999", "4",
                 "structured:4"]
_MESH_WORDS = ["mesh", "2", "vertices", "cells", "-1", "0.5", "1e308", "nan",
               "inf", "4294967296", "x"]


def _lines(words):
    line = st.lists(st.one_of(st.sampled_from(words),
                              st.text(_CHARS, max_size=4)),
                    max_size=5).map(" ".join)
    return st.lists(line, max_size=12).map("\n".join)


def _config_text():
    """'key = value' lines over the known keys and a few other words."""
    word = st.one_of(st.sampled_from(_CONFIG_WORDS),
                     st.text(_CHARS, max_size=4))
    line = st.tuples(word, word).map(" = ".join)
    return st.lists(line, max_size=6).map("\n".join)


@st.composite
def _mesh_arrays(draw):
    """Some cells of a 2x2 square mesh, with up to three vertices moved
    anywhere and at most one vertex index replaced."""
    vertices = _GRID.vertices.copy()
    for k in draw(st.lists(st.integers(0, _GRID.n_vertices - 1),
                           max_size=3)):
        vertices[k] = draw(st.tuples(_FLOATS, _FLOATS))
    cells = _GRID.cells[draw(st.lists(st.integers(0, _GRID.n_cells - 1),
                                      max_size=_GRID.n_cells, unique=True))]
    if len(cells) and draw(st.booleans()):
        cells[draw(st.integers(0, len(cells) - 1)),
              draw(st.integers(0, 2))] = draw(
                  st.integers(-1, _GRID.n_vertices))
    return vertices, cells


@st.composite
def _mesh_text(draw):
    """A mesh file of ``_mesh_arrays``, with at most one token replaced."""
    vertices, cells = draw(_mesh_arrays())
    tokens = ([["mesh", "2"], ["vertices", str(len(vertices))]]
              + [[repr(x) for x in row] for row in vertices.tolist()]
              + [["cells", str(len(cells))]]
              + [[str(k) for k in row] for row in cells.tolist()])
    if draw(st.booleans()):
        row = draw(st.integers(0, len(tokens) - 1))
        col = draw(st.integers(0, len(tokens[row]) - 1))
        tokens[row][col] = draw(st.one_of(st.sampled_from(_MESH_WORDS),
                                          st.text(_CHARS, max_size=4)))
    return "\n".join(" ".join(row) for row in tokens)


def _write(text):
    handle = tempfile.NamedTemporaryFile("w", encoding="utf-8",
                                         suffix=".txt", delete=False)
    with handle:
        handle.write(text)
    return Path(handle.name)


def _check_mesh(mesh, n_cells):
    assert isinstance(mesh, SimplicialMesh)
    assert mesh.n_cells == n_cells
    assert np.isfinite(mesh.vertices).all()
    assert (np.isfinite(mesh.cell_areas) & (mesh.cell_areas > 0)).all()
    assert np.isfinite(mesh.cell_diameters).all()
    assert len(mesh.boundary_edges) > 0


@PROPERTY
@given(st.one_of(st.text(_CHARS), _lines(_CONFIG_WORDS), _config_text()))
def test_load_config_returns_options_or_usage_error(text):
    path = _write(text)
    try:
        values = load_config(path)
    except CliError as err:
        assert err.code == USAGE_ERROR
    else:
        assert isinstance(values, dict)
    finally:
        path.unlink()


@PROPERTY
@given(st.one_of(st.text(_CHARS), _lines(_MESH_WORDS), _mesh_text()))
def test_read_mesh_file_returns_mesh_or_mesh_error(text):
    path = _write(text)
    try:
        mesh = read_mesh_file(path)
    except MeshError:
        pass
    else:
        _check_mesh(mesh, mesh.n_cells)
    finally:
        path.unlink()


@PROPERTY
@given(st.one_of(_mesh_arrays(),
                 st.tuples(hnp.arrays(np.float64, _SHAPES, elements=_FLOATS),
                           hnp.arrays(np.int64, _SHAPES))))
def test_build_from_arrays_returns_mesh_or_mesh_error(arrays):
    vertices, cells = arrays
    try:
        mesh = build_from_arrays(vertices, cells)
    except MeshError:
        return
    _check_mesh(mesh, len(cells))
