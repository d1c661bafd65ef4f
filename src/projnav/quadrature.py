"""Quadrature rules on the reference triangle, in barycentric coordinates."""

from functools import lru_cache

import numpy as np

__all__ = ["QuadratureRule", "triangle_rule", "gauss_legendre_01"]


class QuadratureRule:
    """Positive-weight rule on a triangle.

    Points are stored as barycentric triples; weights are normalized so
    they sum to 1 and must be multiplied by the cell area at use.
    """

    def __init__(self, points, weights, degree):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.degree = int(degree)
        if self.points.shape != (len(self.weights), 3):
            raise ValueError("points must be (n, 3) barycentric triples")
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")

    def __len__(self):
        return len(self.weights)

    def physical_points(self, vertices):
        """Map to physical coordinates. vertices: (..., 3, 2) -> (..., n, 2)."""
        return self.points @ np.asarray(vertices, dtype=float)


def _rule_degree5():
    # 7-point symmetric rule, exact through total degree 5.
    a = (6.0 + np.sqrt(15.0)) / 21.0
    b = (6.0 - np.sqrt(15.0)) / 21.0
    wa = (155.0 + np.sqrt(15.0)) / 1200.0
    wb = (155.0 - np.sqrt(15.0)) / 1200.0
    pts = [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)]
    wts = [9.0 / 40.0]
    for c, w in ((a, wa), (b, wb)):
        r = 1.0 - 2.0 * c
        pts += [(r, c, c), (c, r, c), (c, c, r)]
        wts += [w, w, w]
    return QuadratureRule(pts, wts, degree=5)


@lru_cache(maxsize=None)
def gauss_legendre_01(m):
    """m-point Gauss-Legendre nodes/weights on [0, 1], computed once per m
    and returned read-only, since every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(m)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _rule_collapsed(degree):
    # Duffy-collapsed Gauss-Legendre product; positive weights, interior
    # points, exact through the requested total degree (needs 2m-1 >= degree+1).
    m = (degree + 3) // 2
    xi, wxi = gauss_legendre_01(m)
    eta, weta = gauss_legendre_01(m)
    pts = []
    wts = []
    for i in range(m):
        for j in range(m):
            x = xi[i]
            y = eta[j] * (1.0 - xi[i])
            # weight carries the Jacobian (1 - xi); normalized to sum 1
            pts.append((1.0 - x - y, x, y))
            wts.append(2.0 * wxi[i] * weta[j] * (1.0 - xi[i]))
    return QuadratureRule(pts, wts, degree=degree)


def triangle_rule(degree):
    """Rule exact on all monomials of total degree <= degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree <= 5:
        return _rule_degree5()
    return _rule_collapsed(degree)
