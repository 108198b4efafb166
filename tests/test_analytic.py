import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import central_difference_gradient, origin_derivative_richardson, refine_one_seed
from rampdro import analytic
from rampdro.analytic import (
    UniformModel,
    closed_form_minimizer,
    f_epsilon,
    f_epsilon_quadrature,
    label_flip_balance,
    origin_directional_derivative,
    origin_directional_derivatives,
    outer_radius,
    refine_candidate,
    root_half_width,
    scan_stationary_points,
    stationarity_residual,
)
from rampdro.dataset import Dataset, flip_labels, generate_separable
from rampdro.geometry import Hyperplane


def test_model_validation():
    with pytest.raises(ValueError):
        UniformModel(0.0)


@pytest.mark.parametrize("eps", [1e308, np.float64(1e308), np.inf, np.float64(np.nan)])
def test_model_rejects_epsilon_whose_double_overflows(eps):
    # a numpy scalar must fail validation, not overflow while being checked
    with pytest.raises(ValueError, match="2 \\* epsilon finite"):
        UniformModel(eps)


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


def test_origin_directional_derivatives():
    d_plus, d_minus = origin_directional_derivatives(UniformModel(0.1))
    assert abs(d_plus + 0.5) <= 1e-4
    assert abs(d_minus) <= 1e-6


def test_origin_derivative_along_e2():
    # brute-force difference-quotient oracle: E[L(a*x2)] = 1 - a/4 for small
    # a > 0, so the one-sided derivative along (0, 1) is -1/4
    model = UniformModel(0.1)
    a = 1e-6
    quotient = (f_epsilon_quadrature(model, (0.0, a), 4000) - 1.0) / a
    assert quotient == pytest.approx(-0.25, abs=1e-3)
    d = origin_directional_derivative(model, (0.0, 1.0))
    assert d == pytest.approx(-0.25, abs=1e-4)


def test_origin_derivatives_are_exact():
    # +e1 reads the whole rectangle's moment (1, 0), -e1 an empty half-plane
    d_plus, d_minus = origin_directional_derivatives(UniformModel(0.1))
    assert d_plus == -0.5
    assert d_minus == 0.0 and math.copysign(1.0, d_minus) == 1.0


@pytest.mark.parametrize("k", range(8))
def test_origin_derivative_matches_richardson(k):
    angle = k * math.pi / 4.0
    direction = (0.5 + 0.25 * k) * np.array([math.cos(angle), math.sin(angle)])
    for eps in (0.1, 2.0):
        closed = origin_directional_derivative(UniformModel(eps), direction)
        assert abs(closed - origin_derivative_richardson(eps, direction)) <= 1e-6


@pytest.mark.parametrize("direction", [(0.0, 0.0), (math.nan, 1.0), (math.inf, 0.0), (1.0, -math.inf)])
def test_origin_derivative_rejects_degenerate_direction(direction):
    with pytest.raises(ValueError):
        origin_directional_derivative(UniformModel(0.1), direction)


def _moment(w1, w2):
    # the band moment m(w), read from the eps = 0 residual -m/2
    r1, r2 = analytic._residual(0.0, w1, w2)
    return -2.0 * np.array([r1, r2], dtype=float)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    st.floats(0.01, 10.0),
    st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
    st.floats(0.0, 2.0 * math.pi), st.floats(1e-7, 0.5),
)
def test_annulus_bound_holds_on_segments(eps, w1, w2, angle, length):
    # ||res(b) - res(a)|| <= (eps + 2 sqrt(5)/r_min) ||b - a||, r_min the
    # segment's distance to the origin
    a = np.array([w1, w2])
    d = length * np.array([math.cos(angle), math.sin(angle)])
    nearest = a + np.clip(-(a @ d) / (d @ d), 0.0, 1.0) * d
    r_min = float(np.hypot(*nearest))
    assume(r_min > 1e-3)
    res_a = np.array(analytic._residual(eps, *a), dtype=float)
    res_b = np.array(analytic._residual(eps, *(a + d)), dtype=float)
    assert np.hypot(*(res_b - res_a)) <= (eps + 2.0 * math.sqrt(5.0) / r_min) * length


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.floats(-math.pi / 2, math.pi / 2), st.floats(-math.pi / 2, math.pi / 2))
def test_angle_bounds_hold(a, b):
    # g = e_perp.m and e.m are 2 sqrt(2)-Lipschitz in theta, m itself
    # 2 sqrt(2)/3-Lipschitz; slack 1e-14 for rounding at tiny steps
    def parts(theta):
        e = np.array([math.cos(theta), math.sin(theta)])
        m = _moment(*(0.5 * e))
        return m, m @ np.array([-e[1], e[0]]), m @ e

    (m_a, g_a, em_a), (m_b, g_b, em_b) = parts(a), parts(b)
    step = abs(a - b)
    assert abs(g_a - g_b) <= 2.0 * math.sqrt(2.0) * step + 1e-14
    assert abs(em_a - em_b) <= 2.0 * math.sqrt(2.0) * step + 1e-14
    assert np.hypot(*(m_a - m_b)) <= 2.0 * math.sqrt(2.0) / 3.0 * step + 1e-14


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
# alone their roots are 4 and 2, and 4 and 1; batched, both take 4
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
    # origin, deep inside the inner disk, and comes from the angle analysis
    found = scan_stationary_points([UniformModel(1e3), UniformModel(1e5)])
    for eps, pts in zip((1e3, 1e5), found):
        assert pts.shape == (1, 2)
        assert np.max(np.abs(pts[0] - [0.5 / eps, 0.0])) <= 1e-15


def test_disk_root_merges_with_annulus_cluster(monkeypatch):
    # at eps = 1/sqrt(2) the minimizer lies on the inner disk's edge: leaf
    # cells survive around it and the angle root's point region touches
    # them, so the two make one cluster, one seed and one point
    leaves, seeds = [], []
    quadtree, refine = analytic._quadtree_leaves, analytic.refine_candidate

    def recording_quadtree(*args):
        leaves.append(quadtree(*args))
        return leaves[-1]

    def recording_refine(epsilons, points, half_width):
        seeds.append(np.asarray(points))
        return refine(epsilons, points, half_width)

    monkeypatch.setattr(analytic, "_quadtree_leaves", recording_quadtree)
    monkeypatch.setattr(analytic, "refine_candidate", recording_refine)
    eps = math.sqrt(0.5)
    (pts,) = scan_stationary_points([UniformModel(eps)])
    assert leaves[0][2].sum() > 0
    assert len(seeds) == 1 and seeds[0].shape == (1, 2)
    assert pts.shape == (1, 2)
    assert np.max(np.abs(pts[0] - [0.5 / eps, 0.0])) <= 1e-12


def test_disk_point_region_keeps_its_radius_at_the_largest_epsilon(monkeypatch):
    # 3 * eps overflows beyond eps ~ 6e307, which would shrink the region
    # around the angle root's point to that point alone
    balls = []
    inside = analytic._inside

    def recording_inside(point, cells, reach, disks):
        balls.extend(disks)
        return inside(point, cells, reach, disks)

    monkeypatch.setattr(analytic, "_inside", recording_inside)
    (pts,) = scan_stationary_points([UniformModel(8.98e307)])
    assert pts.shape == (1, 2)
    assert len(balls) == 1 and balls[0][1] > 0.0


def test_refined_point_leaving_its_cluster_gives_up_that_epsilon(monkeypatch):
    # a root found outside the cluster's cells is not the cluster's root, so
    # the certificate does not close; eps = 2 has its cluster in the disk
    refine = analytic.refine_candidate

    def stray_refine(epsilons, seeds, half_width):
        points, residuals = refine(epsilons, seeds, half_width)
        return points + np.where(np.asarray(epsilons)[:, None] < 1.0, 1e-3, 0.0), residuals

    monkeypatch.setattr(analytic, "refine_candidate", stray_refine)
    found = scan_stationary_points([UniformModel(0.1), UniformModel(2.0)])
    assert found[0].shape == (0, 2)
    assert found[1].shape == (1, 2)


def test_live_cell_cap_gives_up_only_that_epsilon(monkeypatch):
    # eps = 0.1 keeps about 200 leaf cells, eps = 2 none
    monkeypatch.setattr(analytic, "_MAX_LIVE_CELLS", 100)
    models = [UniformModel(0.1), UniformModel(2.0)]
    found = scan_stationary_points(models)
    assert found[0].shape == (0, 2)
    assert found[1].shape == (1, 2)
    assert _same_bits(found[1], scan_stationary_points(models[1:])[0])


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


def test_refine_without_seeds_returns_empty_arrays():
    points, residuals = refine_candidate(np.empty(0), np.empty((0, 2)), 0.02)
    assert points.shape == (0, 2)
    assert residuals.shape == (0,)


def test_refine_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        refine_candidate([0.1, 0.2], [(1.0, 0.0)], 0.02)


def test_lockstep_refinement_equals_one_seed_calls():
    # mixed eps: roots, an off-axis stall, seeds that slide into the
    # excluded origin, and the last two, grid cells of the default scan, run
    # into the 500-round cap; each keeps its own trajectory
    axis = np.linspace(-3.0, 3.0, 300)
    epsilons = np.array([0.1, 0.1, 2.0, 0.37, 0.5, 1.0, 0.05, 0.1, 2.0])
    seeds = np.array([(1.7, 0.02), (0.8, 1.2), (0.3, -0.01), (0.02, 0.02), (-1.5, 0.9),
                      (0.0, 0.04), (2.2, -0.8), (axis[143], axis[148]), (axis[148], axis[149])])
    points, residuals = refine_candidate(epsilons, seeds, 0.02)
    assert points.shape == (9, 2) and residuals.shape == (9,)
    for eps, seed, point, res in zip(epsilons, seeds, points, residuals):
        one_point, one_res = refine_candidate([eps], [seed], 0.02)
        assert _same_bits(point, one_point[0]) and _same_bits(res, one_res[0])
        ref_point, ref_res = refine_one_seed(eps, seed, 0.02)
        assert _same_bits(point, ref_point) and res == ref_res


def test_offaxis_candidates_fail_refinement():
    # no stationary points exist with w2 != 0: refinement from off-axis
    # seeds must either return to the axis or stall at a real residual
    seeds = [(1.7, 0.5), (0.8, 1.2), (2.2, -0.8), (1.2, 0.06)]
    points, residuals = refine_candidate(np.full(4, 0.1), seeds, 0.02)
    for point, res in zip(points, residuals):
        assert abs(point[1]) <= 0.05 or res > 1e-8


def test_closed_form_minimizer_branches_meet_at_half():
    w1_lo, f_lo = closed_form_minimizer(0.5)
    assert w1_lo == pytest.approx(1.0, abs=1e-12)
    assert f_lo == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValueError):
        closed_form_minimizer(0.0)


def test_closed_form_minimizer_rejects_infinite_epsilon():
    with pytest.raises(ValueError):
        closed_form_minimizer(math.inf)


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
