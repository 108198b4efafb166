import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (
    central_difference_gradient,
    f_epsilon_interleaved,
    f_epsilon_quadrature,
    label_flip_balance,
    newton_system,
    newton_system_interleaved,
    origin_derivative_richardson,
    origin_directional_derivative_interleaved,
    residual_exact,
    residual_interleaved,
)
from rampdro import analytic
from rampdro.analytic import (
    UniformModel,
    closed_form_minimizer,
    f_epsilon,
    origin_directional_derivative,
    origin_directional_derivatives,
    outer_radius,
    root_half_width,
    scan_stationary_points,
    stationarity_residual,
)
from rampdro.dataset import Dataset, flip_labels, generate_separable
from rampdro.geometry import Hyperplane


def test_model_validation():
    with pytest.raises(ValueError):
        UniformModel(0.0)


@pytest.mark.parametrize("eps", [0.0, -1.0, -np.inf, np.inf, np.float64(np.nan)])
def test_model_rejects_epsilon_not_positive_and_finite(eps):
    with pytest.raises(ValueError, match="^epsilon must be positive and finite, got "):
        UniformModel(eps)


@pytest.mark.parametrize("eps", [1e308, np.float64(1e308), sys.float_info.max])
def test_model_accepts_epsilon_whose_double_overflows(eps):
    # no formula forms 2 eps, so every finite eps > 0 is a model
    assert UniformModel(eps).epsilon == eps


@pytest.mark.parametrize(
    "eps", [sys.float_info.max / 2.0, np.float64(sys.float_info.max / 2.0), np.float32(3e38)]
)
def test_model_accepts_epsilon_whose_double_is_finite(eps):
    assert UniformModel(eps).epsilon == eps


def test_objective_at_unit_e1():
    # 3 * (eps/32)^{1/3} evaluated at its own minimizer w = (1, 0), eps = 1/2
    assert f_epsilon(UniformModel(0.5), (1.0, 0.0)) == pytest.approx(0.75, abs=1e-14)


def test_objective_at_origin():
    for eps in (0.1, 1.0):
        assert f_epsilon(UniformModel(eps), (0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("w1", [1.0, 1.5, 2.4, 3.0])
def test_axis_closed_form_large_w1(w1):
    eps = 0.2
    expected = 0.5 * eps * w1**2 + 1.0 / (2.0 * w1)
    assert f_epsilon(UniformModel(eps), (w1, 0.0)) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("w1", [0.1, 0.5, 0.9])
def test_axis_closed_form_small_w1(w1):
    eps = 0.2
    expected = 0.5 * eps * w1**2 + 1.0 - 0.5 * w1
    assert f_epsilon(UniformModel(eps), (w1, 0.0)) == pytest.approx(expected, abs=1e-10)


def test_exact_integration_matches_dense_quadrature():
    model = UniformModel(0.1)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        w = rng.uniform(-3.0, 3.0, 2)
        gap = abs(f_epsilon(model, w) - f_epsilon_quadrature(model, w, 4000))
        worst = max(worst, gap)
    assert worst <= 1e-6


@pytest.mark.parametrize("w", [
    (1.0, 1.0), (0.5, 0.5), (2.0, 1.0), (0.3, 1.0), (0.7, -1.0), (1.0, -1.0),
    (0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (1e-12, 0.0),
])
def test_exact_integration_degenerate_clips(w):
    # lines through rectangle corners, parallel to an edge, or absent: the
    # clip's touching, zero-length and empty cases against quadrature
    model = UniformModel(0.1)
    assert f_epsilon(model, w) == pytest.approx(f_epsilon_quadrature(model, w, 4000), abs=1e-6)


def test_residual_is_gradient_of_objective():
    model = UniformModel(0.37)
    rng = np.random.default_rng(8)
    for _ in range(12):
        w = rng.uniform(-2.5, 2.5, 2)
        if np.linalg.norm(w) < 0.3:
            w += 0.5
        fd = central_difference_gradient(lambda v: f_epsilon(model, v), w)
        res = stationarity_residual(model, w)
        assert np.max(np.abs(fd - res)) <= 1e-8


def test_residual_closed_form_root_small_eps():
    model = UniformModel(0.1)
    w1 = (2.0 * 0.1) ** (-1.0 / 3.0)
    assert np.max(np.abs(stationarity_residual(model, (w1, 0.0)))) <= 1e-8


def test_residual_closed_form_root_large_eps():
    model = UniformModel(1.0)
    assert np.max(np.abs(stationarity_residual(model, (0.5, 0.0)))) <= 1e-8


def test_residual_away_from_root():
    res = stationarity_residual(UniformModel(0.1), (2.0, 0.0))
    assert res[0] == pytest.approx(0.2 - 0.125, abs=1e-12)
    assert res[1] == pytest.approx(0.0, abs=1e-12)


def test_residual_rejects_origin():
    with pytest.raises(ValueError):
        stationarity_residual(UniformModel(0.1), (0.0, 0.0))


@pytest.mark.parametrize("w", [(math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0), (0.5, -math.inf)])
@pytest.mark.parametrize("fn", [stationarity_residual, f_epsilon, lambda m, w: f_epsilon_quadrature(m, w, 8)])
def test_objective_and_residual_reject_non_finite_w(fn, w):
    # NaN gave NaN, and inf a RuntimeWarning from the band moments
    with pytest.raises(ValueError, match=r"^w must be finite, got \("):
        fn(UniformModel(0.1), w)


@pytest.mark.parametrize("w,size", [((1.0, 0.2, 5.0), 3), ((1.0,), 1), ([[1.0, 0.2, 0.3]], 3), ((), 0)])
@pytest.mark.parametrize("fn", [stationarity_residual, f_epsilon, lambda m, w: f_epsilon_quadrature(m, w, 8)])
def test_objective_and_residual_require_two_entries(fn, w, size):
    # three entries were read as their first two, one raised IndexError
    with pytest.raises(ValueError, match=rf"^w must have 2 entries, got {size}$"):
        fn(UniformModel(0.1), w)
    # two entries in any shape are read as origin_directional_derivative reads them
    assert np.array_equal(fn(UniformModel(0.1), [[1.0, 0.2]]), fn(UniformModel(0.1), (1.0, 0.2)))


@pytest.mark.parametrize("grid", [0, -3, 2.5])
def test_quadrature_requires_a_positive_grid(grid):
    # 0 divided by zero, -3 returned the regularizer alone, and 2.5 built
    # 3 cells a side but divided by 6.25 (0.6017 where f_epsilon gives 0.5545)
    with pytest.raises(ValueError, match=f"^grid must be an integer of at least 1, got {grid}$"):
        f_epsilon_quadrature(UniformModel(0.1), (1.0, 0.0), grid)
    assert f_epsilon_quadrature(UniformModel(0.1), (1.0, 0.0), 1) == 0.05 + 0.5


def test_origin_directional_derivatives():
    d_plus, d_minus = origin_directional_derivatives()
    assert abs(d_plus + 0.5) <= 1e-4
    assert abs(d_minus) <= 1e-6


def test_origin_derivative_along_e2():
    # brute-force difference-quotient oracle: E[L(a*x2)] = 1 - a/4 for small
    # a > 0, so the one-sided derivative along (0, 1) is -1/4
    model = UniformModel(0.1)
    a = 1e-6
    quotient = (f_epsilon_quadrature(model, (0.0, a), 4000) - 1.0) / a
    assert quotient == pytest.approx(-0.25, abs=1e-3)
    d = origin_directional_derivative((0.0, 1.0))
    assert d == pytest.approx(-0.25, abs=1e-4)


def test_origin_derivatives_are_exact():
    # +e1 reads the whole rectangle's moment (1, 0), -e1 an empty half-plane
    d_plus, d_minus = origin_directional_derivatives()
    assert d_plus == -0.5
    assert d_minus == 0.0 and math.copysign(1.0, d_minus) == 1.0


@pytest.mark.parametrize("k", range(8))
def test_origin_derivative_matches_richardson(k):
    angle = k * math.pi / 4.0
    direction = (0.5 + 0.25 * k) * np.array([math.cos(angle), math.sin(angle)])
    # the closed form does not depend on eps; the difference quotients do
    closed = origin_directional_derivative(direction)
    for eps in (0.1, 2.0):
        assert abs(closed - origin_derivative_richardson(eps, direction)) <= 1e-6


@pytest.mark.parametrize("direction", [(0.0, 0.0), (math.nan, 1.0), (math.inf, 0.0), (1.0, -math.inf)])
def test_origin_derivative_rejects_degenerate_direction(direction):
    with pytest.raises(ValueError):
        origin_directional_derivative(direction)


@pytest.mark.parametrize("direction,size", [((1.0, 2.0, 3.0), 3), ((1.0,), 1), ([[1.0, 0.0, 0.0]], 3), ((), 0)])
def test_origin_derivative_requires_two_entries(direction, size):
    # three entries raised numpy's "cannot reshape array of size 3"
    with pytest.raises(ValueError, match=rf"^direction must have 2 entries, got {size}$"):
        origin_directional_derivative(direction)
    assert origin_directional_derivative([[1.0, 0.0]]) == origin_directional_derivative((1.0, 0.0))


def test_origin_derivative_along_directions_whose_norm_overflows():
    # math.hypot(1.7e308, 1.7e308) overflows, though the direction is finite
    # and nonzero.  At 45 degrees the half-plane moment is (5/6, 1/3), so the
    # derivative is -7/12 per unit of u1 = u2; and it is linear in the
    # direction, so a power-of-two multiple scales it exactly
    big = 1.7e308
    assert origin_directional_derivative((big, big)) == pytest.approx(-7.0 / 12.0 * big, rel=1e-15)
    for u in [(1.5, 1.5), (1.5, -1.5), (-1.5, 1.0), (1.0, 0.0), (-1.0, 0.0), (0.0, -1.5), (1.25, 1e-300)]:
        huge = (2.0**1023 * u[0], 2.0**1023 * u[1])
        assert origin_directional_derivative(huge) == 2.0**1023 * origin_directional_derivative(u)


def _moment(w1, w2):
    # the band moment m(w), read from the eps = 0 residual -m/2
    r1, r2 = analytic._residual(0.0, w1, w2)
    return -2.0 * np.array([r1, r2], dtype=float)


# a coordinate near the rectangle's scale, or anywhere up to 1e306, where
# 10 w is still finite: subnormal and beyond 2^1000 among them
_COORDINATE = st.floats(-4.0, 4.0) | st.floats(-1e306, 1e306)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.floats(1e-3, 10.0), st.lists(st.tuples(_COORDINATE, _COORDINATE), min_size=1, max_size=6))
@example(0.1, [(1.0, 0.0), (2.5, 0.0), (0.3, 0.0), (0.0, 1.0), (0.0, -2.0), (0.0, 0.0)])  # the axes
@example(0.5, [(1.0, 0.0)])  # eps = 1/2's root at the kink
@example(0.1, [(2.0**1000, -(2.0**1000)), (2.0**1001, 3.0), (1e306, -1e306), (-0.5, 2.0**1000 * 1.5)])
@example(2.0, [(5e-324, 0.0), (1e-310, -2e-310), (0.0, 5e-324), (2.2e-308, 1e-320)])  # subnormal w
# a band edge w.x = 0 or 1 through a corner of the rectangle
@example(0.37, [(1.0, 1.0), (0.5, 0.5), (1.0, -1.0), (2.0, 1.0), (0.25, 0.75), (0.5, -0.5), (3.0, 2.0)])
def test_band_kernel_matches_the_interleaved_reference_bit_for_bit(eps, points):
    # the kernel works on (u, v) rows; the reference interleaves x = (u, v)
    # on the last axis.  The flops and their order are the same, so every
    # residual, Jacobian entry, objective value and origin derivative keeps
    # its bits, for one point and for several at once
    w1, w2 = np.array(points).T
    assert all(_same_bits(a, b) for a, b in zip(analytic._residual(eps, w1, w2), residual_interleaved(eps, w1, w2)))
    (f, jac), (f_ref, jac_ref) = newton_system(eps, w1, w2), newton_system_interleaved(eps, w1, w2)
    assert _same_bits(np.array(f), np.array(f_ref))
    assert _same_bits(np.asarray(jac), np.asarray(jac_ref))
    for u1, u2 in points:
        one, one_ref = analytic._residual(eps, u1, u2), residual_interleaved(eps, u1, u2)
        assert _same_bits(np.array(one), np.array(one_ref))
        value = f_epsilon(UniformModel(eps), (u1, u2))
        assert _same_bits(np.float64(value), np.float64(f_epsilon_interleaved(eps, u1, u2)))
        if (u1, u2) != (0.0, 0.0):
            derivative = origin_directional_derivative((u1, u2))
            assert _same_bits(np.float64(derivative), np.float64(origin_directional_derivative_interleaved(u1, u2)))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    st.floats(0.01, 10.0),
    st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
    st.floats(0.0, 2.0 * math.pi), st.floats(1e-7, 0.5),
)
def test_annulus_bound_holds_on_segments(eps, w1, w2, angle, length):
    # ||res(b) - res(a)|| <= (eps + sqrt(5)/r_min) ||b - a||, r_min the
    # segment's distance to the origin
    a = np.array([w1, w2])
    d = length * np.array([math.cos(angle), math.sin(angle)])
    nearest = a + np.clip(-(a @ d) / (d @ d), 0.0, 1.0) * d
    r_min = float(np.hypot(*nearest))
    assume(r_min > 1e-3)
    res_a = np.array(analytic._residual(eps, *a), dtype=float)
    res_b = np.array(analytic._residual(eps, *(a + d)), dtype=float)
    assert np.hypot(*(res_b - res_a)) <= (eps + math.sqrt(5.0) / r_min) * length


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    st.floats(1e-3, 10.0),
    st.floats(-math.pi, math.pi), st.floats(-3.0, 1.2),
    st.floats(-7.0, math.log10(0.3)),
)
# where eps r_min is well above sqrt(5), the residual moves by nearly
# eps h sqrt(2) to a corner: beyond the bound without its sqrt(2), or
# without eps.  At small eps the moment term sqrt(5)/r_min carries it
@example(10.0, 0.2, math.log10(3.0), -1.0)
@example(10.0, -0.1, math.log10(2.0), -7.0)
@example(1e-3, 0.3, 0.0, -2.0)
def test_exclusion_bound_holds_at_cell_corners(eps, angle, log_radius, log_h):
    # the scan drops a cell when ||res(c)|| exceeds _exclusion_bound at its
    # centre c; that is sound only if every point of the cell, its corners
    # among them, lies within the bound of res(c).  Ranges as in the scan's
    # docstring: eps in [1e-3, 10], h in [1e-7, 0.3] and r_min > 1e-3
    h = 10.0**log_h
    c = 10.0**log_radius * np.array([math.cos(angle), math.sin(angle)])
    r_min = math.hypot(max(abs(c[0]) - h, 0.0), max(abs(c[1]) - h, 0.0))
    assume(r_min > 1e-3)
    w = c + h * np.array([(0.0, 0.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0)])
    f1, f2 = analytic._residual(eps, w[:, 0], w[:, 1])
    moved = np.hypot(f1[1:] - f1[0], f2[1:] - f2[0])
    assert np.all(moved <= analytic._exclusion_bound(eps, r_min, h))


def _system_at(eps, w):
    # the residual and its closed-form Jacobian at one point, as a 2 x 2 array
    (f1, f2), jac = newton_system(eps, np.array([w[0]]), np.array([w[1]]))
    return np.array([f1[0], f2[0]]), np.array(jac).reshape(2, 2)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.floats(1e-3, 10.0), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
@example(0.5, 1.5, 0.5)
@example(0.1, 0.3, -0.9)
def test_closed_form_jacobian_matches_central_differences(eps, w1, w2):
    # away from the lines where a band edge w.x = 0 or 1 passes a corner of
    # the rectangle (the axis w2 = 0 among them), the residual is smooth and
    # its Jacobian eps I - Dm/2 agrees with central differences of _residual.
    # Corners c have ||c|| <= sqrt(2), so w lies 1e-3 or more from each line
    w = np.array([w1, w2])
    assume(np.hypot(*w) >= 0.1)
    assume(min(np.min(np.abs(w @ analytic._RECT_P - s)) for s in (0.0, 1.0)) >= 1e-3 * math.sqrt(2.0))
    residual, jac = _system_at(eps, w)
    assert _same_bits(residual, np.array(analytic._residual(eps, w1, w2), dtype=float))
    h = 1e-6
    for j, step in enumerate(h * np.eye(2)):
        plus = np.array(analytic._residual(eps, *(w + step)), dtype=float)
        minus = np.array(analytic._residual(eps, *(w - step)), dtype=float)
        assert np.max(np.abs((plus - minus) / (2.0 * h) - jac[:, j])) <= 1e-7


_POINTS = st.builds(
    lambda angle, log_radius: (10.0**log_radius * math.cos(angle), 10.0**log_radius * math.sin(angle)),
    st.floats(-math.pi, math.pi), st.floats(-3.0, 3.0),
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.floats(1e-3, 10.0), _POINTS)
# on the axis w2 = 0, on both sides of eps = 1/2's kink (1, 0), on the
# diagonal, at w1 = cos(pi/2) ~ 6e-17, and where a band edge runs through a
# rectangle corner: w.x = 1 through (0, 1) and w.x = 0 through (1, -1) at
# (1, 1); w.x = 1 through (0, 1) and (1, -1) at (2, 1); w.x = 1 through
# (1, 1) at (1/2, 1/2)
@example(0.0, (math.sqrt(10.0), 0.0))
@example(0.5, (1.0, 0.0))
@example(0.5, (1.0 - 2.0**-20, 0.0))
@example(0.5, (1.0 + 2.0**-20, 0.0))
@example(0.1, (math.cos(math.pi / 4), math.sin(math.pi / 4)))
@example(0.1, (math.cos(math.pi / 2), 1.0))
@example(0.3, (1.0, 1.0))
@example(2.0, (2.0, 1.0))
@example(1e-3, (0.5, 0.5))
def test_closed_form_jacobian_obeys_the_exclusion_bound(eps, w):
    # the scan's exclusion bound takes sqrt(5)/||w|| for ||Dm(w)/2||_2: each
    # chord moment M_s is positive semidefinite with ||M_s|| <= 2 sqrt(5), so
    # ||M_0 - M_1|| <= 2 sqrt(5).  J from newton_system is eps I - Dm/2.
    # Every direction is drawn, w1 <= 0 too, which segments in cells that
    # straddle the axis w1 = 0 cross.  The largest ||Dm/2|| ||w|| observed is
    # about 1.0, just right of the kink (0.99999809 at w1 = 1 + 2^-20 on the
    # axis); random draws elsewhere stayed below 0.99
    _, jac = _system_at(eps, np.array(w))
    assert np.linalg.norm(eps * np.eye(2) - jac, 2) * math.hypot(*w) <= math.sqrt(5.0)


@pytest.mark.parametrize("eps", [0.1, 0.5, 2.0])
def test_closed_form_jacobian_at_the_kink_is_the_left_hand_one(eps):
    # at w = (1, 0), eps = 1/2's root, the band edge w.x = 1 lies on the
    # rectangle's edge u = 1, where the clip leaves a chord of length 0.  So
    # the closed form is the derivative along e1 from the left, where the
    # band is the whole rectangle, and not from the right, where the chord
    # u = 1/w1 adds 1 to its first entry
    _, jac = _system_at(eps, np.array([1.0, 0.0]))
    h = 2.0**-20
    at = np.array(analytic._residual(eps, 1.0, 0.0), dtype=float)
    left = (at - np.array(analytic._residual(eps, 1.0 - h, 0.0), dtype=float)) / h
    right = (np.array(analytic._residual(eps, 1.0 + h, 0.0), dtype=float) - at) / h
    assert np.max(np.abs(jac[:, 0] - left)) <= 1e-9
    assert abs(right[0] - jac[0, 0] - 1.0) <= 1e-5


def _jacobian_off_the_clip_artifact(eps, w):
    # J at w from newton_system.  On the axis w2 = 0 the clip gives the
    # chord on s = 0 length 0, though the derivative is its limit from
    # either side, where that chord runs from the origin to (0, -+1): its
    # Simpson moment adds 1/(6 w1) to Dm/2's (2, 2) entry, which J subtracts
    _, jac = _system_at(eps, np.array(w))
    if w[1] == 0.0:
        jac[1, 1] -= 1.0 / (6.0 * w[0])
    return jac


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    st.floats(1e-3, 10.0),
    st.floats(-math.pi / 2, math.pi / 2), st.floats(-0.5, 1.2),
    st.floats(-6.0, -0.5), st.floats(-6.0, -0.5),
    st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=6),
)
# boxes across the axis w2 = 0 (sampled on it too); beside eps = 1/2's
# kink (1, 0), left of it, where the band misses the edge u = 1, and right
# of it, where its chord runs from the bottom edge to the top; where the
# chord on s = 1 nears the corner (1, 1), (0, 1) or (1, -1); and in the
# inner disk, where there is no chord on s = 1 and the enclosure is J's
# exact range: its corners reach it
@example(0.1, 0.0, math.log10(1.71), -2.0, -2.0, [(0.0, 0.0)])
@example(0.5, 0.0, math.log10(1.0 - 2.0**-20), -6.5, -6.5, [(0.5, 0.5)])
@example(0.5, 0.0, math.log10(1.0 + 2.0**-20), -6.5, -6.5, [(-0.5, 0.5)])
@example(0.3, math.pi / 4 - 1e-3, math.log10(0.7), -4.0, -4.0, [(0.0, 0.0)])
@example(0.3, math.atan2(1.0 - 1e-3, 2.0), math.log10(math.hypot(2.0, 1.0 - 1e-3)), -4.0, -4.0, [(0.0, 0.0)])
@example(1.0, 0.2, math.log10(0.5), -1.5, -1.5, [(0.0, 0.0)])
def test_jacobian_enclosure_holds_the_closed_form_jacobian(eps, angle, log_radius, log_h1, log_h2, offsets):
    # wherever _band_jacobian gives J's intervals, J at the box's corners,
    # at drawn points and on the axis lies in them, entrywise
    centre = 10.0**log_radius * np.array([math.cos(angle), math.sin(angle)])
    h = np.array([10.0**log_h1, 10.0**log_h2])
    lo, hi = tuple(centre - h), tuple(centre + h)
    jac = analytic._band_jacobian(eps, lo, hi)
    assume(jac is not None)
    j11, j12, j22 = jac
    low = np.array([[j11.lo, j12.lo], [j12.lo, j22.lo]])
    high = np.array([[j11.hi, j12.hi], [j12.hi, j22.hi]])
    points = [(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])]
    points += [tuple(np.clip(centre + np.array(o) * h, lo, hi)) for o in offsets]
    if lo[1] <= 0.0 <= hi[1]:
        points.append((float(centre[0]), 0.0))
    for w in points:
        # the intervals are rigorous; the float J rounds, by a few dozen
        # units of roundoff of eps + 1/||w|| at most
        slack = 2.0**-44 * (1.0 + eps + 1.0 / math.hypot(*w))
        jac_w = _jacobian_off_the_clip_artifact(eps, w)
        assert np.all(low - slack <= jac_w) and np.all(jac_w <= high + slack), w


def test_jacobian_enclosure_refuses_boxes_where_a_chord_changes_edges():
    # a box must lie in w1 > 0, and no band edge may pass a corner of the
    # rectangle in it: at eps = 1/2's kink (1, 0) the edge w.x = 1 passes
    # (1, -1) and (1, 1); where |w2| = w1 the edge w.x = 0 passes one
    for lo, hi in [((-0.1, 0.2), (0.1, 0.3)), ((0.99, -0.01), (1.01, 0.01)), ((0.5, 0.45), (0.6, 0.55))]:
        assert analytic._band_jacobian(0.5, lo, hi) is None


def _krawczyk_square(lo, hi, f_at_centre, delta, jac_range):
    # Krawczyk's test for a map of (x, y) whose Jacobian is diag(J11, 1),
    # with J11 in jac_range over the box
    low, high = jac_range
    jac = (analytic._Interval(low, high), analytic._Interval(0.0, 0.0), analytic._Interval(1.0, 1.0))
    return analytic._krawczyk(lo, hi, f_at_centre, delta, jac)


def test_krawczyk_proves_one_root_and_refuses_two():
    # f(x, y) = (x^2 - 1, y) has roots (-1, 0) and (1, 0), and J11 = 2x
    # over the box.  From the centre (0.5, 0) of [-1.5, 2.5] x [-0.5, 0.5],
    # which holds both, Newton's step lands inside at (1.25, 0); only the
    # contraction term, (1 - J11/mid)(X - c) in [-4, 4] * [-2, 2], shows that
    # the box may hold more than one root
    assert _krawczyk_square((-1.5, -0.5), (2.5, 0.5), (-0.75, 0.0), 0.0, (-3.0, 5.0)) is None
    # [0.8, 1.3] x [-0.3, 0.2] holds (1, 0) alone; its centre is (1.05, -0.05)
    lo, hi = (0.8, -0.3), (1.3, 0.2)
    image = _krawczyk_square(lo, hi, (1.05**2 - 1.0, -0.05), 0.0, (1.6, 2.6))
    assert image is not None
    (k1, k2), (l1, l2) = image
    assert lo[0] < k1 <= 1.0 <= l1 < hi[0] and lo[1] < k2 <= 0.0 <= l2 < hi[1]


def test_krawczyk_allows_for_the_rounding_of_the_residual():
    # f(x, y) = (x - a, y) on [-1, 1]^2, computed at the centre as (-0.9, 0):
    # the root a = 0.9 lies inside, but if that value is only known to
    # within 0.2, a may be 1.1, outside, so the box proves nothing
    lo, hi = (-1.0, -1.0), (1.0, 1.0)
    assert _krawczyk_square(lo, hi, (-0.9, 0.0), 0.2, (1.0, 1.0)) is None
    image = _krawczyk_square(lo, hi, (-0.9, 0.0), 0.05, (1.0, 1.0))
    assert image is not None and image[0][0] <= 0.85 and 0.95 <= image[1][0]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.floats(0.05, 10.0), st.floats(-0.2, 0.2), st.floats(-6.0, -1.0),
    st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=6),
)
# about eps = 1/2's kink (1, 0), where J jumps, sampled on both sides and
# at the kink, whose closed form is the left-hand Jacobian; in the inner
# disk, where mu is J's least eigenvalue; across the axis
@example(0.5, 0.0, -3.0, [(0.0, 0.0), (0.5, 0.0), (-0.5, 0.0), (0.5, 0.5), (0.5, -0.25)])
@example(1.0, 0.0, -1.5, [(0.0, 0.0)])
@example(0.3, 0.0, -2.0, [(0.0, 0.0)])
def test_monotonicity_bounds_the_symmetric_jacobian_from_below(eps, angle, log_h, offsets):
    # wherever _monotonicity gives mu, the symmetric part of J at every
    # point of the box, the box's corners too, has no eigenvalue below mu:
    # the chord on s = 1 only adds to J.  Boxes sit about the root's w1
    h = 10.0**log_h
    w1 = closed_form_minimizer(eps)[0]
    centre = w1 * np.array([math.cos(angle), math.sin(angle)])
    lo, hi = tuple(centre - h), tuple(centre + h)
    mu = analytic._monotonicity(eps, lo, hi)
    assume(mu is not None)
    points = [(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])]
    points += [tuple(np.clip(centre + np.array(o) * h, lo, hi)) for o in offsets]
    if lo[1] <= 0.0 <= hi[1]:
        points.append((float(centre[0]), 0.0))
    for w in points:
        jac = _jacobian_off_the_clip_artifact(eps, w)
        least = np.linalg.eigvalsh(0.5 * (jac + jac.T))[0]
        assert least >= mu - 2.0**-44 * (1.0 + eps + 1.0 / math.hypot(*w)), w


def test_monotone_image_needs_the_disk_of_its_radius_in_the_box():
    # about eps = 1/2's root (1, 0), where _band_jacobian gives no
    # intervals: the residual at the centre is rounding only, so with the
    # rounding bound the box holds one root, in the box returned; if the
    # residual were known only to within 0.01, the root could lie 0.03
    # away, beyond the box.  A box beside the root fails too
    eps, lo, hi = 0.5, (0.99, -0.01), (1.01, 0.01)
    assert analytic._band_jacobian(eps, lo, hi) is None
    mu = analytic._monotonicity(eps, lo, hi)
    assert 0.33 < mu < 1.0 / 3.0
    f = tuple(float(x) for x in analytic._residual(eps, 1.0, 0.0))
    image = analytic._monotone_image(eps, lo, hi, f, analytic._residual_rounding(eps, 2.0), mu)
    assert image is not None
    assert image[0][0] <= 1.0 <= image[1][0] and image[0][1] <= 0.0 <= image[1][1]
    assert analytic._monotone_image(eps, lo, hi, f, 0.01, mu) is None
    lo, hi = (1.01, -0.01), (1.03, 0.01)
    f = tuple(float(x) for x in analytic._residual(eps, 1.02, 0.0))
    assert analytic._monotone_image(eps, lo, hi, f, 0.0, analytic._monotonicity(eps, lo, hi)) is None


def test_singular_midpoint_gives_no_krawczyk_test_and_the_monotone_ball(monkeypatch):
    # J11 in [-1, 1] has midpoint 0, so J's midpoint diag(0, 1) has no
    # inverse: Krawczyk's test proves nothing, without a warning or a
    # division by zero, and the monotone test keeps its ball about the
    # centre instead of the Newton point's smaller box
    singular = (analytic._Interval(-1.0, 1.0), analytic._Interval(0.0, 0.0), analytic._Interval(1.0, 1.0))
    eps, lo, hi = 1.0, (0.46, -0.04), (0.56, 0.06)
    f = tuple(float(x) for x in analytic._residual(eps, 0.51, 0.01))
    delta, mu = analytic._residual_rounding(eps, 1.0), analytic._monotonicity(eps, lo, hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert analytic._mid_inverse(singular) is None
        assert analytic._krawczyk(lo, hi, f, delta, singular) is None
        newton = analytic._monotone_image(eps, lo, hi, f, delta, mu)
        monkeypatch.setattr(analytic, "_band_jacobian", lambda *args: singular)
        ball = analytic._monotone_image(eps, lo, hi, f, delta, mu)
    reach = (math.hypot(*f) + delta) / mu
    for k, c in enumerate((0.51, 0.01)):
        assert ball[0][k] <= c - reach < c + reach <= ball[1][k]
        assert ball[1][k] - ball[0][k] <= 2.0 * reach * (1.0 + 1e-12)
    assert newton[1][0] - newton[0][0] < 0.01 * (ball[1][0] - ball[0][0])


def _assert_within_residual_rounding(eps, w):
    # _residual at w against the same residual in exact rational arithmetic
    exact = residual_exact(eps, *w)
    computed = analytic._residual(eps, *w)
    error = math.hypot(*(float(Fraction(float(c)) - e) for c, e in zip(computed, exact)))
    assert error <= analytic._residual_rounding(eps, math.hypot(*w))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.floats(1e-3, 10.0), st.sampled_from([4.0, 16.0]), st.integers(-24, -1),
    st.integers(0, 2**40), st.integers(0, 2**40),
)
def test_residual_rounding_bounds_the_error_at_lattice_centres(eps, root, log_h, i, j):
    # the tree's cell centres (i + 1/2) 2h - B, on the root squares of the
    # default eps (B = 4) and of eps = 0.001 (B = 16)
    h, cells = 2.0**log_h, int(root / 2.0**log_h)
    w = ((i % cells + 0.5) * (2.0 * h) - root, (j % cells + 0.5) * (2.0 * h) - root)
    _assert_within_residual_rounding(eps, w)


@pytest.mark.parametrize("eps,w", [
    (0.1, (1.709976, 0.0)),  # the axis, beside eps = 0.1's root
    (0.5, (1.0, 0.0)), (0.5, (1.0 - 2.0**-20, 0.0)), (0.5, (1.0 + 2.0**-20, 2.0**-30)),  # the kink
    (0.3, (0.5, 0.5)),  # w.x = 1 through the corner (1, 1)
    (0.3, (2.0, 1.0)),  # w.x = 1 through (0, 1) and (1, -1)
    (0.3, (1.0, -1.0)),  # w.x = 0 through (1, 1)
    (0.3, (0.5, 0.5 - 2.0**-40)),  # w.x = 1 just short of (1, 1)
    (0.001, (7.937005, 0.01)), (7.0, (0.7, 0.1)), (0.05, (0.02, 0.01)), (0.01, (15.0, -3.0)),
])
def test_residual_rounding_bounds_the_error_where_band_edges_pass_corners(eps, w):
    _assert_within_residual_rounding(eps, w)


@pytest.mark.parametrize("w", [(1e308, 1e308), (1e308, -1e308), (-sys.float_info.max, sys.float_info.max),
                               (2.0**1000, -(2.0**1000))])
def test_residual_and_objective_at_huge_w_raise_no_overflow(w):
    # beyond 2^1000 the band is clipped with (w, 1) scaled by a power of two.
    # The band's true moments there are below 1e-300, so the residual is
    # eps w, and eps/2 ||w||^2 exceeds the largest double
    model = UniformModel(0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = stationarity_residual(model, w)
        value = f_epsilon(model, w)
    assert list(residual) == [0.1 * w[0], 0.1 * w[1]]
    assert value == math.inf


def _half_plane_moment(theta):
    # the lemma's closed form of m(theta), theta in (-pi/2, pi/2), with
    # c = cot |theta| and the reflection v -> -v for theta < 0
    if theta == 0.0:
        return 1.0, 0.0
    c = 1.0 / math.tan(abs(theta))
    if c >= 1.0:
        mu, mv = 1.0 - 1.0 / (6.0 * c * c), 1.0 / (3.0 * c)
    else:
        mu, mv = 0.5 + c / 3.0, 0.5 - c * c / 6.0
    return mu, math.copysign(mv, theta)


def test_half_plane_moment_at_zero_is_exact():
    # the disk point m(0)/(2 eps) is formed as (0.5/eps, 0) on this
    _, (mu, mv) = analytic._moments(*analytic._band(0.5, 0.0)[1])
    assert (float(mu), float(mv)) == (1.0, 0.0)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.floats(-math.pi / 2, math.pi / 2, exclude_min=True, exclude_max=True))
@example(math.pi / 4)
@example(-math.pi / 3)
@example(5e-324)
def test_inner_disk_lemma(theta):
    # both branches of the closed form match the clipped moments at radius
    # 1/2, where the band is the half-plane, and g = e_perp.m has the sign
    # of -theta with |g| >= |sin theta|/3, so theta = 0 is its only root
    _, (mu, mv) = analytic._moments(*analytic._band(0.5 * math.cos(theta), 0.5 * math.sin(theta))[1])
    m_u, m_v = _half_plane_moment(theta)
    assert abs(m_u - float(mu)) <= 4.0 * math.ulp(1.0)
    assert abs(m_v - float(mv)) <= 4.0 * math.ulp(1.0)
    g = math.cos(theta) * m_v - math.sin(theta) * m_u
    assert math.copysign(1.0, theta) * g <= -abs(math.sin(theta)) / 3.0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.floats(0.01, 10.0), st.floats(-math.pi, math.pi), st.floats(1e-3, 1.0), st.floats(1.0, 3.0))
def test_exclusion_facts(eps, angle, scale, beyond):
    e = np.array([math.cos(angle), math.sin(angle)])
    # inner disk: the band is the half-plane, so m depends on the angle only
    inner = scale * math.sqrt(0.5) * e
    assert np.max(np.abs(_moment(*inner) - _moment(*(0.5 * e)))) <= 1e-14
    # half-plane: no root with w1 <= 0
    if e[0] <= 0.0:
        assert analytic._residual(eps, *(scale * e))[0] < 0.0
    # outer radius: the radial residual is positive beyond R(eps)
    w = beyond * 1.0000001 * outer_radius(eps) * e
    assert np.dot(w, analytic._residual(eps, *w)) > 0.0


@pytest.mark.parametrize("eps", [0.6889235437151584, 0.7, 0.705])
def test_every_level_keeps_the_cell_that_holds_the_root(monkeypatch, eps):
    # no cut may drop a cell that holds a root.  These roots, at w1 = 0.7258,
    # 0.7143 and 0.7092, lie just outside the inner disk, where only cells
    # reaching beyond its edge are kept; eps has no disk point.  With every
    # box test failing, the tree runs down to the leaf width, and the live
    # cells of every level must include the root's
    levels, cell_box = [], analytic._cell_box

    def recording_cell_box(i, j, h, root):
        levels.append((i.copy(), j.copy(), h, root))
        return cell_box(i, j, h, root)

    monkeypatch.setattr(analytic, "_cell_box", recording_cell_box)
    monkeypatch.setattr(analytic, "_one_root", lambda epsilon, lo, hi: None)
    w1 = closed_form_minimizer(eps)[0]
    assert analytic._disk_box(eps) is None
    assert analytic._proved_box(eps) is None
    assert levels[-1][2] <= analytic._LEAF_HALF_WIDTH
    for i, j, h, root in levels:
        lo1, lo2 = i * (2.0 * h) - root, j * (2.0 * h) - root
        assert np.any((lo1 <= w1) & (w1 <= lo1 + 2.0 * h) & (lo2 <= 0.0) & (0.0 <= lo2 + 2.0 * h)), h


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("eps,expected_w1", [(0.1, (0.2) ** (-1.0 / 3.0)), (2.0, 0.25)])
def test_scan_finds_single_root(eps, expected_w1):
    (pts,) = scan_stationary_points([UniformModel(eps)])
    assert pts.shape == (1, 2)
    assert abs(pts[0, 0] - expected_w1) <= 1e-3
    assert abs(pts[0, 1]) <= 1e-3


def test_scan_minimum_matches_closed_form_values():
    models = [UniformModel(0.3), UniformModel(1.0)]
    for model, pts in zip(models, scan_stationary_points(models)):
        assert pts.shape[0] == 1
        _, f_star = closed_form_minimizer(model.epsilon)
        assert f_epsilon(model, pts[0]) == pytest.approx(f_star, abs=1e-6)


@settings(derandomize=True, max_examples=4, deadline=None)
@given(
    st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
# their roots are 4 and 2, and 4 and 1: each eps is certified on its own, so
# a batch shares nothing
@example([0.1, 0.5], random.Random(0))
@example([0.05, 2.0], random.Random(0))
def test_batched_scan_equals_per_model_scans(epsilons, rnd):
    models = [UniformModel(e) for e in epsilons]
    found = scan_stationary_points(models)
    assert len(found) == len(models)
    for model, pts in zip(models, found):
        assert _same_bits(pts, scan_stationary_points([model])[0])
    order = list(range(len(models)))
    rnd.shuffle(order)
    permuted = scan_stationary_points([models[i] for i in order])
    for i, pts in zip(order, permuted):
        assert _same_bits(pts, found[i])


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.floats(0.05, 5.0))
def test_scan_finds_the_closed_form_point(eps):
    # the root square covers R(eps), so it holds every stationary point, and
    # there is one
    (pts,) = scan_stationary_points([UniformModel(eps)])
    assert pts.shape == (1, 2)
    assert np.max(np.abs(pts[0] - [closed_form_minimizer(eps)[0], 0.0])) <= 1e-12


def test_scan_finds_small_disk_roots():
    # eps = 1e3, 1e5: the minimizer sits in the inner disk next to the
    # origin, deep inside the inner disk, and comes from the lemma
    found = scan_stationary_points([UniformModel(1e3), UniformModel(1e5)])
    for eps, pts in zip((1e3, 1e5), found):
        assert pts.shape == (1, 2)
        assert np.max(np.abs(pts[0] - [0.5 / eps, 0.0])) <= 1e-15


def _holds_point(box, w):
    # whether the closed box (lo, hi) holds the point w
    (lo1, lo2), (hi1, hi2) = box
    return lo1 <= w[0] <= hi1 and lo2 <= w[1] <= hi2


def test_disk_root_merges_with_annulus_cluster(monkeypatch):
    # at eps = 1/sqrt(2) the minimizer lies on the inner disk's edge: cells
    # survive around it, so the proved box is wider than the disk point's
    # own box and holds the disk point; it is the one box contracted, and
    # the contracted box holds the disk point too
    boxes, contracted = [], []
    tree, refine = analytic._proved_box, analytic.refine_candidate

    def recording_tree(*args):
        boxes.append(tree(*args))
        return boxes[-1]

    def recording_refine(epsilon, box):
        contracted.append(refine(epsilon, box))
        return contracted[-1]

    monkeypatch.setattr(analytic, "_proved_box", recording_tree)
    monkeypatch.setattr(analytic, "refine_candidate", recording_refine)
    eps = math.sqrt(0.5)
    disk = (0.5 / eps, 0.0)
    (pts,) = scan_stationary_points([UniformModel(eps)])
    assert len(boxes) == 1 and _holds_point(boxes[0], disk)
    (lo1, _), (hi1, _) = boxes[0]
    assert hi1 - lo1 > 2.0 * math.ulp(0.5 / eps)
    assert len(contracted) == 1 and _holds_point(contracted[0], disk)
    assert pts.shape == (1, 2)
    assert np.max(np.abs(pts[0] - disk)) <= 1e-12


def test_disk_point_is_certified_at_the_largest_epsilon_and_the_disk_edge():
    # at 8.98e307, 1e308 and the largest double, where 2 eps overflows, the
    # disk point (1/(2 eps), 0) is subnormal and its disk is one ulp wide;
    # one ulp below, at and above 1/sqrt(2) it meets the annulus cells at
    # the disk's edge.  Up to about 8.5e-7 above the edge the point's own
    # leaf lies wholly inside the disk and is dropped, while leaves reaching
    # into the disk beside it survive and must merge with it
    edge = math.sqrt(0.5)
    huge = [8.98e307, 1e308, sys.float_info.max]
    epsilons = huge + [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)]
    epsilons += [0.7071069, 0.707107] + [edge + k * 1e-7 for k in range(1, 10)]
    found = scan_stationary_points([UniformModel(e) for e in epsilons])
    for eps, pts in zip(epsilons, found):
        assert pts.shape == (1, 2)
        assert np.max(np.abs(pts[0] - [0.5 / eps, 0.0])) <= 1e-12
    for eps, pts in zip(huge, found):
        assert 0.0 < pts[0, 0] < sys.float_info.min
        assert pts[0, 0] == 0.5 / eps and pts[0, 1] == 0.0


def test_refined_point_leaving_its_cluster_gives_up_that_epsilon(monkeypatch):
    # a contraction whose midpoint is not a root, here eps = 0.1's box moved
    # by 1e-3, whose midpoint's residual is about 1e-4, fails the residual
    # check, so that eps's certificate does not close; eps = 2, whose box is
    # the disk point's, is unaffected
    refine = analytic.refine_candidate

    def stray_refine(epsilon, box):
        shift = 1e-3 if epsilon < 1.0 else 0.0
        return tuple(tuple(x + shift for x in corner) for corner in refine(epsilon, box))

    monkeypatch.setattr(analytic, "refine_candidate", stray_refine)
    found = scan_stationary_points([UniformModel(0.1), UniformModel(2.0)])
    assert found[0].shape == (0, 2)
    assert found[1].shape == (1, 2)


def test_scan_refines_each_epsilon_once_with_its_own_seeds(monkeypatch):
    # on the default five eps, each eps makes one refine_candidate call with
    # a float eps and its own proved box, which holds its root; the reported
    # point is the contracted box's midpoint
    calls, refine = [], analytic.refine_candidate

    def recording_refine(epsilon, box):
        calls.append((epsilon, box, refine(epsilon, box)))
        return calls[-1][2]

    monkeypatch.setattr(analytic, "refine_candidate", recording_refine)
    epsilons = [0.1, 0.3, 0.5, 1.0, 2.0]
    found = scan_stationary_points([UniformModel(e) for e in epsilons])
    assert [eps for eps, _, _ in calls] == epsilons
    for (eps, box, contracted), pts in zip(calls, found):
        assert type(eps) is float
        assert box == analytic._proved_box(eps)
        assert _holds_point(box, (closed_form_minimizer(eps)[0], 0.0))
        (lo1, lo2), (hi1, hi2) = contracted
        assert pts.tolist() == [[0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2)]]


def test_epsilon_without_a_cluster_finds_no_point(monkeypatch):
    # eps = 0.1 has no disk point (1/(2 eps) = 5 lies outside the inner
    # disk), so a tree whose every cell is excluded proves no box and gives
    # no point; eps = 2 in the same scan is unaffected
    bound = analytic._exclusion_bound

    def leafless_bound(eps, r_min, h):
        return -1.0 if eps == 0.1 else bound(eps, r_min, h)

    monkeypatch.setattr(analytic, "_exclusion_bound", leafless_bound)
    assert analytic._proved_box(0.1) is None
    found = scan_stationary_points([UniformModel(0.1), UniformModel(2.0)])
    assert found[0].shape == (0, 2)
    assert found[1].shape == (1, 2)


def test_live_cell_cap_gives_up_only_that_epsilon(monkeypatch):
    # eps = 0.01's tree evaluates about 5,700 cells before a box around its
    # live cells proves one root, eps = 2's keeps no cells.  Capped at 100
    # live cells, eps = 0.01's tree stops at the first level that passes the
    # cap (about 230 cells reach the residual), while eps = 2 in the same
    # scan builds its whole tree
    residual, tree = analytic._residual, analytic._proved_box
    counts, current = {}, []

    def counted_residual(epsilon, w1, w2):
        if current:
            counts[current[-1]] = counts.get(current[-1], 0) + np.size(w1)
        return residual(epsilon, w1, w2)

    def tracked_tree(eps):
        current.append(eps)
        try:
            return tree(eps)
        finally:
            current.pop()

    monkeypatch.setattr(analytic, "_residual", counted_residual)
    monkeypatch.setattr(analytic, "_proved_box", tracked_tree)
    models = [UniformModel(0.01), UniformModel(2.0)]
    assert scan_stationary_points(models)[0].shape == (1, 2)
    uncapped = dict(counts)
    counts.clear()
    monkeypatch.setattr(analytic, "_MAX_LIVE_CELLS", 100)
    found = scan_stationary_points(models)
    assert found[0].shape == (0, 2)
    assert found[1].shape == (1, 2)
    assert counts[0.01] < uncapped[0.01] / 10
    assert counts[2.0] == uncapped[2.0] > 0
    assert _same_bits(found[1], scan_stationary_points(models[1:])[0])


def test_tree_tests_only_boxes_that_hold_the_disk_point(monkeypatch):
    # at eps = 0.8 the disk point (0.625, 0) is the one root, and cells
    # beside it live for a few levels, at one of which the box around them
    # leaves the point out.  A box test passed there would prove a second
    # root, so the tree does not ask for one
    eps = 0.8
    disk = analytic._disk_box(eps)
    formed, asked = [], []
    cell_box, one_root = analytic._cell_box, analytic._one_root

    def recording_cell_box(*args):
        formed.append(cell_box(*args))
        return formed[-1]

    def recording_one_root(epsilon, lo, hi):
        asked.append((lo, hi))
        return one_root(epsilon, lo, hi)

    monkeypatch.setattr(analytic, "_cell_box", recording_cell_box)
    monkeypatch.setattr(analytic, "_one_root", recording_one_root)
    (pts,) = scan_stationary_points([UniformModel(eps)])
    assert pts.tolist() == [[0.625, 0.0]]
    assert not all(analytic._holds(box, disk) for box in formed)
    assert asked and all(analytic._holds(box, disk) for box in asked)


def test_scan_rejects_epsilon_too_small_for_leaf_lattice():
    # R(1e-30) = 1.04e10 needs a root beyond 2^28; R(5e-324) is not finite
    for epsilons in ([0.1, 1e-30], [5e-324, 0.1]):
        smallest = min(epsilons)
        with pytest.raises(ValueError, match=f"^epsilon {smallest} is too small"):
            scan_stationary_points([UniformModel(e) for e in epsilons])


@pytest.mark.parametrize("eps", [0.1, 0.3, 1.0, 2.0, 0.001, 1e-25, 1e100, 8.98e307])
def test_root_half_width_is_the_next_power_of_two_above_the_outer_radius(eps):
    root = root_half_width([2.0, eps])
    radius = max(outer_radius(2.0), outer_radius(eps))
    assert math.frexp(root)[0] == 0.5
    assert 0.5 * root <= radius < root <= 2.0**28


def test_closed_form_minimizer_branches_meet_at_half():
    w1_lo, f_lo = closed_form_minimizer(0.5)
    assert w1_lo == pytest.approx(1.0, abs=1e-12)
    assert f_lo == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValueError):
        closed_form_minimizer(0.0)


def test_closed_form_minimizer_rejects_infinite_epsilon():
    with pytest.raises(ValueError):
        closed_form_minimizer(math.inf)


@pytest.mark.parametrize("eps", [0.7, 3.0, 1e300, 1e308, 1.7e308, sys.float_info.max])
def test_closed_forms_where_two_epsilon_overflows(eps):
    # 1/(2 eps), 1/(8 eps) and sqrt(5)/(2 eps) rounded once from the exact
    # rationals; 2 eps overflows for the last three eps, whose w1 is subnormal
    exact = Fraction(eps)
    w1, value = closed_form_minimizer(eps)
    assert w1 == float(1 / (2 * exact)) > 0.0
    assert value == 1.0 - float(1 / (8 * exact))
    assert outer_radius(eps) == float(Fraction(math.sqrt(5.0)) / (2 * exact)) ** (1.0 / 3.0) > 0.0


def test_label_flip_balance_separable():
    h = Hyperplane(np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
    # frozen draw: dominance by more than 5x (Monte-Carlo margin varies by
    # seed; the sign and dominance itself are the stable content)
    first, rest = label_flip_balance(generate_separable(10_000, 4, 5), h, 0.02)
    assert first > 0.0
    assert first > 5.0 * np.max(np.abs(rest))
    for seed in range(5):
        first, rest = label_flip_balance(generate_separable(10_000, 4, seed), h, 0.02)
        assert first > 0.0
        assert first > 2.0 * np.max(np.abs(rest))


def test_label_flip_balance_survives_forty_percent_flips():
    ds = flip_labels(generate_separable(10_000, 4, 3), 0.4, 9)
    h = Hyperplane(np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
    first, _ = label_flip_balance(ds, h, 0.02)
    assert first > 0.0


def test_label_flip_balance_symmetric_cancellation():
    pts = np.array([[0.0, 1.0], [0.0, -1.0]])
    ds = Dataset(pts, np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    h = Hyperplane(np.array([0.0, 1.0]), 0.0)
    first, _ = label_flip_balance(ds, h, 0.1)
    assert first == 0.0
    with pytest.raises(ValueError):
        label_flip_balance(ds, h, 0.0)
