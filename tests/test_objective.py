import numpy as np
import pytest

from oracles import central_difference_gradient
from rampdro.dataset import Dataset, generate_separable
from rampdro.geometry import Hyperplane
from rampdro.losses import LossKind, LossSpec, smoothed_ramp, smoothed_ramp_deriv
from rampdro.objective import (
    ObjectiveSpec,
    RegKind,
    evaluate,
    evaluate_with_gradient,
    imputed_epsilon,
    objective_function,
    to_dro_variables,
)


def sramp_spec(eps_bar=0.1, sigma=0.02):
    return ObjectiveSpec(LossSpec(LossKind.SMOOTHED_RAMP, sigma), RegKind.SQUARED_NORM, eps_bar)


def test_value_at_origin_is_loss_at_zero():
    ds = generate_separable(200, 5, 3)
    sigma = 0.05
    h = Hyperplane(np.zeros(5), 0.0)
    value = evaluate(sramp_spec(0.7, sigma), ds, h)
    assert value == pytest.approx(smoothed_ramp(0.0, sigma), abs=1e-12)


def test_gradient_at_origin_matches_balance_formula():
    ds = generate_separable(5000, 4, 11)
    sigma = 0.02
    h = Hyperplane(np.zeros(4), 0.0)
    _, grad = evaluate_with_gradient(sramp_spec(0.3, sigma), ds, h)
    mean_yx1 = float(np.mean(ds.labels * ds.points[:, 0]))
    expected = smoothed_ramp_deriv(0.0, sigma) * mean_yx1
    assert grad[0] == pytest.approx(expected, rel=1e-12)
    assert grad[0] < 0.0


class _ConstantLoss:
    """Loss stub: constant value, zero slope."""

    smooth = True

    def value(self, r):
        return np.full_like(np.asarray(r, dtype=float), 0.25)

    def deriv(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))


@pytest.mark.parametrize("kind", [LossKind.SMOOTHED_RAMP, LossKind.SMOOTHED_HINGE])
def test_value_identical_with_and_without_gradient(kind):
    ds = generate_separable(3000, 4, 6)
    spec = ObjectiveSpec(LossSpec(kind, 0.02), RegKind.SQUARED_NORM, 0.1)
    rng = np.random.default_rng(4)
    for _ in range(5):
        h = Hyperplane(3.0 * rng.standard_normal(4), 0.1 * rng.standard_normal())
        assert evaluate(spec, ds, h) == evaluate_with_gradient(spec, ds, h)[0]


def test_zero_regularizer_constant_loss_gives_zero_gradient():
    ds = generate_separable(20, 3, 2)
    spec = ObjectiveSpec(_ConstantLoss(), RegKind.SQUARED_NORM, 0.0)
    value, grad = evaluate_with_gradient(spec, ds, Hyperplane(np.array([1.0, -2.0, 3.0]), 0.5))
    assert value == pytest.approx(0.25)
    assert np.all(grad == 0.0)


@pytest.mark.parametrize("kind", [LossKind.SMOOTHED_RAMP, LossKind.SMOOTHED_HINGE])
@pytest.mark.parametrize("reg", [RegKind.SQUARED_NORM, RegKind.NORM])
def test_gradient_matches_central_differences(kind, reg):
    rng = np.random.default_rng(hash((kind.value, reg.value)) % 2**32)
    for _ in range(10):
        n = int(rng.integers(8, 60))
        d = int(rng.integers(2, 6))
        pts = rng.uniform(-3.0, 3.0, (n, d))
        ds = Dataset(pts, rng.choice([-1.0, 1.0], n), np.full(n, 1.0 / n))
        spec = ObjectiveSpec(LossSpec(kind, float(rng.choice([0.02, 0.1]))), reg,
                             float(rng.uniform(0.0, 1.0)))
        z = rng.standard_normal(d + 1)
        z[:-1] += np.sign(z[:-1]) * 0.2  # keep w away from the norm kink
        fun = objective_function(spec, ds)
        _, grad = fun(z)
        fd = central_difference_gradient(lambda x: fun(x)[0], z)
        err = np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad)))
        assert err <= 1e-5


def test_gradient_rejects_plain_ramp():
    ds = generate_separable(5, 2, 1)
    spec = ObjectiveSpec(LossSpec(LossKind.RAMP), RegKind.SQUARED_NORM, 0.1)
    assert np.isfinite(evaluate(spec, ds, Hyperplane(np.ones(2), 0.0)))
    with pytest.raises(ValueError):
        evaluate_with_gradient(spec, ds, Hyperplane(np.ones(2), 0.0))


def test_norm_gradient_rejects_origin():
    ds = generate_separable(5, 2, 1)
    spec = ObjectiveSpec(LossSpec(LossKind.SMOOTHED_RAMP, 0.1), RegKind.NORM, 0.1)
    with pytest.raises(ValueError):
        evaluate_with_gradient(spec, ds, Hyperplane(np.zeros(2), 0.3))


def test_intercept_never_regularized():
    ds = generate_separable(30, 2, 4)
    h1 = Hyperplane(np.array([0.5, 0.5]), 0.0)
    h2 = Hyperplane(np.array([0.5, 0.5]), 100.0)
    spec = sramp_spec(1.0)
    # identical regularizer contribution regardless of b
    risk1 = evaluate(spec, ds, h1) - evaluate(sramp_spec(0.0), ds, h1)
    risk2 = evaluate(spec, ds, h2) - evaluate(sramp_spec(0.0), ds, h2)
    assert risk1 == pytest.approx(risk2, abs=1e-15)


def test_negative_reg_weight_rejected():
    with pytest.raises(ValueError):
        ObjectiveSpec(LossSpec(LossKind.RAMP), RegKind.NORM, -0.5)
    with pytest.raises(ValueError):  # nan passes a `< 0` guard
        ObjectiveSpec(LossSpec(LossKind.RAMP), RegKind.NORM, float("nan"))


def test_infinite_reg_weight_rejected():
    with pytest.raises(ValueError):
        ObjectiveSpec(LossSpec(LossKind.RAMP), RegKind.SQUARED_NORM, float("inf"))
    with pytest.raises(ValueError):
        imputed_epsilon(float("inf"), Hyperplane(np.array([1.0, 0.0]), 0.0))


def test_row_permutation_invariance():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-2, 2, (40, 3))
    labels = rng.choice([-1.0, 1.0], 40)
    w = rng.random(40) + 0.1
    w /= w.sum()
    ds = Dataset(pts, labels, w)
    perm = rng.permutation(40)
    ds_p = Dataset(pts[perm], labels[perm], w[perm])
    h = Hyperplane(np.array([1.0, -0.5, 0.25]), 0.2)
    spec = sramp_spec(0.4)
    assert evaluate(spec, ds, h) == pytest.approx(evaluate(spec, ds_p, h), abs=1e-14)


def test_smoothed_ramp_objective_bounded():
    rng = np.random.default_rng(21)
    ds = generate_separable(64, 3, 5)
    spec = sramp_spec(0.2)
    for _ in range(50):
        h = Hyperplane(rng.standard_normal(3) * 10, rng.standard_normal() * 10)
        reg = 0.5 * 0.2 * h.norm**2
        v = evaluate(spec, ds, h)
        assert 0.0 <= v <= reg + 1.0 + 1e-12


def test_to_dro_variables_example_and_round_trip():
    h = Hyperplane(np.array([3.0, 4.0]), 5.0)
    w0, b0, t = to_dro_variables(h)
    assert np.allclose(w0, [0.6, 0.8], atol=1e-15)
    assert b0 == pytest.approx(1.0, abs=1e-15)
    assert t == 5.0
    assert np.allclose(w0 * t, h.w, atol=1e-12)
    assert b0 * t == pytest.approx(h.b, abs=1e-12)


def test_to_dro_variables_zero_w():
    w0, b0, t = to_dro_variables(Hyperplane(np.zeros(3), -2.0))
    assert np.all(w0 == 0.0) and b0 == -2.0 and t == 0.0


def test_imputed_epsilon_table_rows():
    assert imputed_epsilon(0.001, Hyperplane(np.array([3.744]), 0.0)) == pytest.approx(0.003744)
    assert imputed_epsilon(10.0, Hyperplane(np.array([0.1703]), 0.0)) == pytest.approx(1.703)
    assert imputed_epsilon(0.5, Hyperplane(np.zeros(4), 1.0)) == 0.0
    with pytest.raises(ValueError):
        imputed_epsilon(-1.0, Hyperplane(np.ones(1), 0.0))
    with pytest.raises(ValueError):
        imputed_epsilon(float("nan"), Hyperplane(np.ones(1), 0.0))


def test_norm_form_stationarity_transfer():
    # a squared-norm stationary point is stationary for the norm form at the
    # imputed radius
    from rampdro.solve import SolveOptions, minimize

    ds = generate_separable(400, 3, 17)
    eps_bar = 0.2
    spec = sramp_spec(eps_bar, sigma=0.05)
    rep = minimize(objective_function(spec, ds), np.array([0.4, 0.1, -0.2, 0.0]),
                   SolveOptions(grad_tol=1e-8))
    assert rep.converged
    h = Hyperplane(rep.minimizer[:-1], rep.minimizer[-1])
    assert h.norm > 0
    eps = imputed_epsilon(eps_bar, h)
    norm_spec = ObjectiveSpec(LossSpec(LossKind.SMOOTHED_RAMP, 0.05), RegKind.NORM, eps)
    _, grad = evaluate_with_gradient(norm_spec, ds, h)
    assert np.max(np.abs(grad)) <= 1e-4
