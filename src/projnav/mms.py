"""Manufactured solutions and test fields on the unit square.

The main pair is u* = sin(t) curl Psi with Psi = x^2(1-x)^2 y^2(1-y)^2 and
p* = sin(t)(x - 1/2); u* is divergence free and vanishes together with its
gradient on the boundary, and p* has zero mean.  The forcing
f = du*/dt + (u*.grad)u* - lap(u*) + grad p* is coded in closed form from
the partial derivatives of Psi.

``curl_bump_field`` is the t-independent curl(Psi).  ``spline_bump_field``
is a genuinely compactly supported divergence-free field (a C^2 cubic
B-spline stream bump supported in [1/4, 3/4]^2, piecewise polynomial with
knots at multiples of 1/8, so it is cell aligned on the structured meshes
with n a multiple of 8 and all its interpolation integrals are exact).
"""

import numpy as np

from .interp import AnalyticVectorField

__all__ = [
    "velocity", "velocity_gradient", "pressure", "forcing", "initial_velocity",
    "curl_bump_field", "spline_bump_field",
]


def velocity(points, t):
    """u*(x, t) = sin(t) (g(x) g'(y), -g'(x) g(y)); shape (m, 2)."""
    p = np.asarray(points, dtype=float)
    gx, dgx = _g_and_slope(p[..., 0])
    gy, dgy = _g_and_slope(p[..., 1])
    s = np.sin(t)
    out = np.empty(p.shape[:-1] + (2,))
    out[..., 0] = s * gx * dgy
    out[..., 1] = -s * dgx * gy
    return out


def velocity_gradient(points, t):
    """Jacobian d u_i / d x_j, shape (m, 2, 2)."""
    p = np.asarray(points, dtype=float)
    gx, dgx, d2gx, _ = _g_derivatives(p[..., 0])
    gy, dgy, d2gy, _ = _g_derivatives(p[..., 1])
    s = np.sin(t)
    out = np.empty(p.shape[:-1] + (2, 2))
    out[..., 0, 0] = s * dgx * dgy
    out[..., 0, 1] = s * gx * d2gy
    out[..., 1, 0] = -s * d2gx * gy
    out[..., 1, 1] = -s * dgx * dgy
    return out


def pressure(points, t):
    p = np.asarray(points, dtype=float)
    return np.sin(t) * (p[..., 0] - 0.5)


def _g_and_slope(s):
    """g and g' at s, as ``_g_derivatives`` forms them."""
    r = s * (1.0 - s)
    return r * r, 2.0 * r * (1.0 - 2.0 * s)


def _g_derivatives(s):
    """g, g', g'', g''' at s, without powers: with r = s(1 - s),
    g = r^2, g' = 2r(1 - 2s), g'' = 2 - 12r, g''' = 24s - 12."""
    r = s * (1.0 - s)
    return r * r, 2.0 * r * (1.0 - 2.0 * s), 2.0 - 12.0 * r, 24.0 * s - 12.0


def forcing(points, t):
    """Momentum residual of (u*, p*): du/dt + (u.grad)u - lap u + grad p.

    Grouped by time factor: cos t from du/dt, sin t from -lap u and
    grad p, sin^2 t from (u.grad)u.
    """
    p = np.asarray(points, dtype=float)
    gx, dgx, d2gx, d3gx = _g_derivatives(p[..., 0])
    gy, dgy, d2gy, d3gy = _g_derivatives(p[..., 1])
    s, c = np.sin(t), np.cos(t)
    f1 = (c * gx * dgy + s * (1.0 - d2gx * dgy - gx * d3gy)
          + s * s * gx * dgx * (dgy * dgy - gy * d2gy))
    f2 = (-c * dgx * gy + s * (d3gx * gy + dgx * d2gy)
          + s * s * gy * dgy * (dgx * dgx - gx * d2gx))
    return np.stack([f1, f2], axis=-1)


def initial_velocity(points):
    return velocity(points, 0.0)


def curl_bump_field():
    """curl(Psi): divergence free, zero trace and gradient on the boundary.

    Polynomial of total degree 7, so its interpolation-correction integrals
    are exact under the degree-10 rule.  Not compactly supported: it is
    nonzero arbitrarily close to the boundary.
    """

    def value(points):
        return velocity(points, np.pi / 2.0)

    def gradient(points):
        return velocity_gradient(points, np.pi / 2.0)

    return AnalyticVectorField(value=value, gradient=gradient,
                               support=(0.0, 1.0, 0.0, 1.0),
                               divergence_free=True)


# The cubic B-spline on [0, 4] times 6, its first derivative times 2 and
# its second derivative: on the unit piece k, a polynomial in u = t - k
# with these integer coefficients, highest power first
_B3 = np.array([[1, 0, 0, 0], [-3, 3, 3, 1], [3, -6, 0, 4], [-1, 3, -3, 1]],
               dtype=float)
_DB3 = np.array([[1, 0, 0], [-3, 2, 1], [3, -4, 0], [-1, 2, -1]], dtype=float)
_D2B3 = np.array([[1, 0], [-3, 1], [3, -2], [-1, 1]], dtype=float)


def _piecewise(t, coeffs):
    """Horner evaluation, without powers, of the polynomials ``coeffs`` on
    the unit pieces of [0, 4]; 0 outside [0, 4]."""
    t = np.asarray(t, dtype=float)
    # the piece, floor(t) on [0, 4); fmax sends a NaN to piece 0, masked below
    k = np.fmin(np.fmax(t, 0.0), 3.0).astype(np.intp)
    u = t - k
    acc = coeffs[:, 0].take(k)
    for c in coeffs.T[1:]:
        acc *= u
        acc += c.take(k)
    return np.where((t >= 0.0) & (t <= 4.0), acc, 0.0)


def _b3(t):
    return _piecewise(t, _B3) / 6.0


def _db3(t):
    return _piecewise(t, _DB3) / 2.0


def _d2b3(t):
    return _piecewise(t, _D2B3)


def spline_bump_field():
    """curl(S(x) S(y)) with S(s) = B(8s - 2), B the cubic B-spline on
    [0, 4]: a bump on [1/4, 3/4]."""

    def value(points):
        p = np.asarray(points, dtype=float)
        tx, ty = 8.0 * p[..., 0] - 2.0, 8.0 * p[..., 1] - 2.0
        return np.stack([8.0 * _b3(tx) * _db3(ty), -8.0 * _db3(tx) * _b3(ty)],
                        axis=-1)

    def gradient(points):
        p = np.asarray(points, dtype=float)
        tx, ty = 8.0 * p[..., 0] - 2.0, 8.0 * p[..., 1] - 2.0
        out = np.empty(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = 64.0 * _db3(tx) * _db3(ty)
        out[..., 0, 1] = 64.0 * _b3(tx) * _d2b3(ty)
        out[..., 1, 0] = -64.0 * _d2b3(tx) * _b3(ty)
        out[..., 1, 1] = -out[..., 0, 0]
        return out

    return AnalyticVectorField(value=value, gradient=gradient,
                               support=(0.25, 0.75, 0.25, 0.75),
                               divergence_free=True)
