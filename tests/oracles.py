"""Reference forms that only the tests use.

``l2_inner`` evaluates fields at the points of a triangle rule and sums
cell by cell, independently of the assembled matrices the scheme applies;
``assemble_convection_unsplit`` is the other side of the identity the
skew-symmetric convection form satisfies; ``edge_bubble_residuals_by_edge``
checks the edge-bubble lemmas one bubble at a time over the whole mesh.
"""

import numpy as np

from projnav.fem import (DEFAULT_RULE, FieldP2Vector, SpaceP1,
                         _convection_oneside, _tables, div_moments,
                         p2_values_at)
from projnav.interp import edge_bubble


def p1_values_at(field, rule=DEFAULT_RULE):
    """(nc, nq) values of a P1 scalar field at the rule points of each cell."""
    mesh = field.space.mesh
    t = _tables(mesh, rule)
    local = field.coeffs[mesh.cells]                # (nc, 3)
    return np.einsum("ca,aq->cq", local, t.p1val)


def l2_inner(field_a, field_b, rule=DEFAULT_RULE):
    """L2 inner product of two P2 vector fields or two P1 scalar fields."""
    if field_a.space.mesh is not field_b.space.mesh:
        raise ValueError("fields live on different meshes")
    mesh = field_a.space.mesh
    t = _tables(mesh, rule)
    if isinstance(field_a, FieldP2Vector):
        va = p2_values_at(field_a, rule)
        vb = p2_values_at(field_b, rule)
        cell = np.einsum("q,cqx,cqx->c", t.weights, va, vb)
    else:
        va = p1_values_at(field_a, rule=rule)
        vb = p1_values_at(field_b, rule=rule)
        cell = np.einsum("q,cq,cq->c", t.weights, va, vb)
    return float(cell @ mesh.cell_areas)


def assemble_convection_unsplit(space, wind, rule=DEFAULT_RULE):
    """The right-hand form of the convection identity:
    ((wind . grad) phi_j, phi_i) + (1/2) (div wind phi_j, phi_i).

    Cross-checks the half-difference form against the identity it
    satisfies for exact integration.
    """
    mesh = space.mesh
    t = _tables(mesh, rule)
    elem = _convection_oneside(space, wind, rule)
    divw = np.einsum("cax,caqx->cq", wind.coeffs[space.gdof], t.p2grad)
    elem2 = np.einsum("q,cq,bq,aq->cab", t.weights, divw, t.p2val, t.p2val)
    elem = elem + 0.5 * elem2 * mesh.cell_areas[:, None, None]
    return space.pattern.assemble(elem)


def edge_bubble_residuals_by_edge(space):
    """The edge-bubble lemma residuals of ``interp.edge_bubble_residuals``,
    from one full-mesh ``div_moments`` per edge and dense comparisons."""
    mesh = space.mesh
    space1 = SpaceP1(mesh)
    report = {"bij": 0.0, "antisymmetry": 0.0}
    for e in range(mesh.n_edges):
        i, j = mesh.edges[e]
        b = edge_bubble(space, (i, j))
        moments = div_moments(b, space1)
        expected = np.zeros(space1.ndof)
        expected[i] = 1.0
        expected[j] = -1.0
        report["bij"] = max(report["bij"],
                            float(np.abs(moments - expected).max()))
        b_rev = edge_bubble(space, (j, i))
        report["antisymmetry"] = max(
            report["antisymmetry"],
            float(np.abs(b.coeffs + b_rev.coeffs).max()))
    return report
