import os

import numpy as np
import pytest

from projnav import fem, mesh as meshmod


def _seed():
    return int(os.environ.get("PROJNAV_SEED", "42"))


@pytest.fixture
def rng():
    return np.random.default_rng(_seed())


@pytest.fixture(scope="session")
def seed():
    return _seed()


@pytest.fixture(scope="session")
def structured_meshes():
    return {n: meshmod.build_structured_unit_square(n) for n in (1, 2, 4, 8)}


@pytest.fixture(scope="session")
def irregular_mesh():
    """4x4 structured mesh with seeded offsets on the interior vertices."""
    base = meshmod.build_structured_unit_square(4)
    rng = np.random.default_rng(2024)
    verts = base.vertices.copy()
    interior = base.interior_vertices
    # offsets below a quarter cell keep every triangle positively oriented
    verts[interior] += (rng.uniform(-1.0, 1.0, size=(len(interior), 2))
                        * 0.25 / 4.0)
    return meshmod.build_from_arrays(verts, base.cells)


@pytest.fixture(scope="session")
def spaces4(structured_meshes):
    mesh = structured_meshes[4]
    return fem.SpaceP2Vector(mesh), fem.SpaceP1(mesh, zero_mean=True)
