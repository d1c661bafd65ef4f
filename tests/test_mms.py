"""Validation of the manufactured solution against finite differences.

The closed-form forcing must agree with a forcing rebuilt purely from
values of the exact velocity and pressure via central differences before
any convergence number is trusted.
"""

from fractions import Fraction

import numpy as np

from projnav import fem, mms
from projnav.mesh import build_structured_unit_square

from oracles import (B3_PIECES, b3_pow, check_divergence_free, check_support,
                     mms_forcing_expanded, mms_velocity_expanded,
                     mms_velocity_gradient_expanded, mms_velocity_stacked)


def fd_forcing(points, t, h=1e-5):
    """Forcing from u*, p* values only: central differences in x, y, t."""
    p = np.asarray(points, dtype=float)
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    u = mms.velocity(p, t)
    dudt = (mms.velocity(p, t + h) - mms.velocity(p, t - h)) / (2 * h)
    dudx = (mms.velocity(p + ex, t) - mms.velocity(p - ex, t)) / (2 * h)
    dudy = (mms.velocity(p + ey, t) - mms.velocity(p - ey, t)) / (2 * h)
    lap = ((mms.velocity(p + ex, t) - 2 * u + mms.velocity(p - ex, t)) / h ** 2
           + (mms.velocity(p + ey, t) - 2 * u + mms.velocity(p - ey, t)) / h ** 2)
    conv = u[:, :1] * dudx + u[:, 1:] * dudy
    gradp = np.stack([
        (mms.pressure(p + ex, t) - mms.pressure(p - ex, t)) / (2 * h),
        (mms.pressure(p + ey, t) - mms.pressure(p - ey, t)) / (2 * h)], axis=-1)
    return dudt + conv - lap + gradp


def sample_grid():
    xs = np.linspace(0.07, 0.93, 9)
    xx, yy = np.meshgrid(xs, xs)
    return np.column_stack([xx.ravel(), yy.ravel()])


def test_forcing_matches_finite_difference_oracle():
    pts = sample_grid()
    for t in (0.13, 0.77, 1.9):
        closed = mms.forcing(pts, t)
        fd = fd_forcing(pts, t)
        assert np.abs(closed - fd).max() <= 1e-6


def test_forcing_matches_expanded_reference():
    # the expanded reference rounds worse than the factored form: against
    # a long double evaluation its error reaches 5.7e-15 max|f| at t = 0,
    # from the cancellation in g'(s) = 2s - 6s^2 + 4s^3, and about
    # 1.2e-15 max|f| at the later times, where the factored form's stays
    # below 5e-16 max|f|
    mesh = build_structured_unit_square(16)
    pts = fem._tables(mesh, fem.DEFAULT_RULE).points.reshape(-1, 2)
    for t in (0.0, 0.13, 0.77, 1.9, 3.0):
        ref = mms_forcing_expanded(pts, t)
        assert (np.abs(mms.forcing(pts, t) - ref).max()
                <= 1e-14 * np.abs(ref).max())


def test_velocity_matches_expanded_reference():
    # the same points and bound as the forcing: g and g' in r = s(1 - s)
    # against their expanded powers
    mesh = build_structured_unit_square(16)
    pts = fem._tables(mesh, fem.DEFAULT_RULE).points.reshape(-1, 2)
    for t in (0.13, 0.77, 1.9, 3.0):
        for got, ref in ((mms.velocity(pts, t),
                          mms_velocity_expanded(pts, t)),
                         (mms.velocity_gradient(pts, t),
                          mms_velocity_gradient_expanded(pts, t))):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_velocity_bitwise_equals_the_stacked_form():
    # g and g' from the expressions _g_derivatives uses, so the same bits
    mesh = build_structured_unit_square(16)
    pts = fem._tables(mesh, fem.DEFAULT_RULE).points.reshape(-1, 2)
    for t in (0.0, 0.13, 0.77, 1.9, 3.0):
        assert np.array_equal(mms.velocity(pts, t),
                              mms_velocity_stacked(pts, t))


def test_spline_pieces_match_exact_and_power_forms():
    # a dense grid over [-1, 5] with every knot; the exact value is the
    # power form evaluated in rationals, correctly rounded.  The power
    # form in floats rounds worse: near t = 3 its terms reach 216 for a
    # value below 1, and it errs by up to 1.2e-14 max|B| on this grid
    # where the form in u = t - k stays below 2e-16
    t = np.concatenate([np.linspace(-1.0, 5.0, 6001), np.arange(-1.0, 6.0)])
    for d, f in enumerate((mms._b3, mms._db3, mms._d2b3)):
        pieces = B3_PIECES[d]
        exact = np.array([float(pieces[min(int(x), 3)](Fraction(x)))
                          if 0.0 <= x <= 4.0 else 0.0 for x in t])
        scale = np.abs(exact).max()
        got = f(t)
        assert np.abs(got - exact).max() <= 1e-15 * scale
        assert np.abs(got - b3_pow(t, d)).max() <= 3e-14 * scale
        # a NaN lies on no piece, in both forms
        assert f(np.array([np.nan]))[0] == b3_pow(np.nan, d) == 0.0


def test_velocity_gradient_matches_finite_differences():
    pts = sample_grid()
    h = 1e-6
    t = 0.61
    g = mms.velocity_gradient(pts, t)
    for j, e in enumerate((np.array([h, 0.0]), np.array([0.0, h]))):
        fd = (mms.velocity(pts + e, t) - mms.velocity(pts - e, t)) / (2 * h)
        assert np.abs(g[:, :, j] - fd).max() <= 1e-7


def test_velocity_divergence_free():
    g = mms.velocity_gradient(sample_grid(), 0.9)
    assert np.abs(g[:, 0, 0] + g[:, 1, 1]).max() <= 1e-14


def test_velocity_vanishes_on_boundary():
    # the stream function vanishes to second order on the boundary, so the
    # velocity trace is exactly zero there (the normal derivative of the
    # tangential velocity component is not, and need not be)
    s = np.linspace(0.0, 1.0, 33)
    edges = [np.column_stack([s, np.zeros_like(s)]),
             np.column_stack([s, np.ones_like(s)]),
             np.column_stack([np.zeros_like(s), s]),
             np.column_stack([np.ones_like(s), s])]
    for pts in edges:
        assert np.abs(mms.velocity(pts, 1.0)).max() == 0.0
        g = mms.velocity_gradient(pts, 1.0)
        # tangential variation along the boundary edge vanishes
        tang = pts[-1] - pts[0]
        tang = tang / np.linalg.norm(tang)
        assert np.abs(g @ tang).max() <= 1e-15


def test_pressure_zero_mean():
    # analytic: int (x - 1/2) over the unit square is zero; check by a
    # midpoint Riemann sum fine enough for 1e-12
    m = 400
    xs = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(xs, xs)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    val = mms.pressure(pts, 1.2).mean()
    assert abs(val) <= 1e-12


def test_initial_velocity_is_zero():
    pts = sample_grid()
    assert np.abs(mms.initial_velocity(pts)).max() == 0.0


def test_curl_bump_field_flags():
    v = mms.curl_bump_field()
    pts = sample_grid()
    assert v.divergence_free
    assert check_divergence_free(v, pts)


def test_spline_bump_divergence_free_and_support():
    v = mms.spline_bump_field()
    pts = sample_grid()
    assert check_divergence_free(v, pts)
    outside = np.array([(0.1, 0.1), (0.9, 0.5), (0.5, 0.05), (0.2, 0.8),
                        (0.76, 0.5), (0.5, 0.24)])
    assert np.abs(v.value(outside)).max() == 0.0
    assert check_support(v, np.vstack([pts, outside]))


def test_spline_bump_gradient_exactly_zero_outside_support(rng):
    # the interpolation study leaves out the cells outside the support box,
    # so the gradient there must be zero to the bit, not only small; the
    # points sit outside the box on each side, and just outside its edges
    v = mms.spline_bump_field()
    xmin, xmax, ymin, ymax = v.support
    pts = rng.uniform(-0.5, 1.5, (4000, 2))
    outside = pts[(pts[:, 0] < xmin) | (pts[:, 0] > xmax)
                  | (pts[:, 1] < ymin) | (pts[:, 1] > ymax)]
    eps = 1e-12
    edges = np.array([(xmin - eps, 0.5), (xmax + eps, 0.5),
                      (0.5, ymin - eps), (0.5, ymax + eps),
                      (np.nextafter(xmin, -1.0), 0.4),
                      (np.nextafter(xmax, 2.0), 0.6)])
    grads = v.gradient(np.vstack([outside, edges]))
    assert len(outside) > 1000
    assert not grads.any()


def test_spline_c1_smoothness_across_knots():
    # value and gradient continuous at every knot: the one-sided gap must
    # shrink linearly with the probe distance (no jump component)
    v = mms.spline_bump_field()
    knots = 0.25 + np.arange(5) / 8.0
    for k in knots:
        gaps = []
        for h in (1e-6, 1e-8):
            pts = np.array([(k - h, 0.5), (k + h, 0.5)])
            gap_v = np.abs(v.value(pts)[0] - v.value(pts)[1]).max()
            gap_g = np.abs(v.gradient(pts)[0] - v.gradient(pts)[1]).max()
            gaps.append(max(gap_v, gap_g))
        assert gaps[1] <= 1.5e-2 * gaps[0] + 1e-12
