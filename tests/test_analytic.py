import math

import numpy as np
import pytest

from oracles import central_difference_gradient
from rampdro.analytic import (
    UniformModel,
    closed_form_minimizer,
    f_epsilon,
    f_epsilon_quadrature,
    label_flip_balance,
    origin_directional_derivative,
    origin_directional_derivatives,
    refine_candidate,
    scan_stationary_points,
    stationarity_residual,
)
from rampdro.dataset import Dataset, flip_labels, generate_separable
from rampdro.geometry import Hyperplane


def test_model_validation():
    with pytest.raises(ValueError):
        UniformModel(0.0)


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


@pytest.mark.parametrize("eps,expected_w1", [(0.1, (0.2) ** (-1.0 / 3.0)), (2.0, 0.25)])
def test_scan_finds_single_root(eps, expected_w1):
    pts = scan_stationary_points(UniformModel(eps), (-3.0, 3.0), 150)
    assert pts.shape == (1, 2)
    assert abs(pts[0, 0] - expected_w1) <= 1e-3
    assert abs(pts[0, 1]) <= 1e-3


def test_scan_rejects_coarse_grid():
    with pytest.raises(ValueError):
        scan_stationary_points(UniformModel(0.1), (-3.0, 3.0), 50)


def test_scan_minimum_matches_closed_form_values():
    for eps in (0.3, 1.0):
        model = UniformModel(eps)
        pts = scan_stationary_points(model, (-3.0, 3.0), 150)
        assert pts.shape[0] == 1
        _, f_star = closed_form_minimizer(eps)
        assert f_epsilon(model, pts[0]) == pytest.approx(f_star, abs=1e-6)


def test_offaxis_candidates_fail_refinement():
    # no stationary points exist with w2 != 0: refinement from off-axis
    # seeds must either return to the axis or stall at a real residual
    model = UniformModel(0.1)
    for seed in ((1.7, 0.5), (0.8, 1.2), (2.2, -0.8), (1.2, 0.06)):
        point, res = refine_candidate(model, seed, 0.02)
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
