import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rampdro.dataset import Dataset, generate_separable
from rampdro.dro import worst_case_prob_knapsack
from rampdro.geometry import (
    Hyperplane,
    distances,
    generalized_margin,
    margin_profile,
    sin_angle,
    subset_sums,
)


def one_d_instance():
    # x = {-2, -1, 1, 2}, y = sign(x), uniform weights
    pts = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    return Dataset(pts, np.sign(pts[:, 0]), np.full(4, 0.25))


def candidate_grid(step=1e-3, span=2.0):
    k = int(round(span / step))
    bs = np.arange(-k, k + 1) * step  # hits 0.0 exactly
    return [Hyperplane(np.array([w]), b) for w in (1.0, -1.0) for b in bs]


def one_row(x, y):
    return Dataset.with_uniform_weights(np.array([x], dtype=float), np.array([y]))


def test_distance_hand_example():
    h = Hyperplane(np.array([3.0, 4.0]), 0.0)
    assert distances(h, one_row([1.0, 0.0], 1.0))[0] == pytest.approx(0.6, abs=1e-15)


def test_distance_zero_w_cases():
    h = Hyperplane(np.array([0.0, 0.0]), 1.0)
    assert distances(h, one_row([0.0, 0.0], 1.0))[0] == math.inf
    assert distances(h, one_row([0.0, 0.0], -1.0))[0] == 0.0


def test_distances_vector_matches_scalar():
    ds = generate_separable(20, 3, 4)
    h = Hyperplane(np.array([1.0, -2.0, 0.5]), 0.3)
    vec = distances(h, ds)
    for x, y, d in zip(ds.points, ds.labels, vec):
        assert d == max(0.0, y * (float(h.w @ x) + h.b)) / h.norm


_COORD = st.floats(-3.0, 3.0)


@st.composite
def _labelled_points_and_normal(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    pts = draw(hnp.arrays(float, (n, d), elements=_COORD))
    labels = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    # ||w|| >= 0.1 keeps |b| / ||w|| and with it the rounding error bounded
    w0 = draw(st.floats(0.1, 3.0))
    w = np.concatenate([[w0], draw(hnp.arrays(float, d - 1, elements=_COORD))])
    return Dataset.with_uniform_weights(pts, np.array(labels)), w


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_labelled_points_and_normal(), _COORD, st.floats(1e-3, 1e3))
def test_distance_deterministic_and_scale_invariant(instance, b, c):
    ds, w = instance
    h = Hyperplane(w, b)
    d1 = distances(h, ds)
    assert np.array_equal(d1, distances(h, ds))  # bit-for-bit repeatable
    row = one_row(ds.points[0], ds.labels[0])
    d = distances(h, row)[0]
    assert d == distances(h, row)[0]
    d4 = distances(Hyperplane(4.0 * w, 4.0 * b), row)[0]  # exact power of two
    assert d4 == pytest.approx(d, rel=1e-13, abs=1e-15)
    dc = distances(Hyperplane(c * w, c * b), ds)
    assert np.all(np.abs(dc - d1) <= 1e-12 * (1.0 + np.linalg.norm(ds.points, axis=1)))


def test_margin_profile_separable_pair():
    ds = Dataset(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    prof = margin_profile(Hyperplane(np.array([1.0]), 0.0), ds)
    assert prof.misclassified.size == 0
    assert prof.eta == 1.0
    assert prof.misclass_mass == 0.0


def test_margin_profile_zero_hyperplane():
    ds = generate_separable(10, 2, 1)
    prof = margin_profile(Hyperplane(np.zeros(2), 0.0), ds)
    assert prof.misclass_mass == pytest.approx(1.0, abs=1e-15)
    assert prof.misclassified.size == 10
    assert prof.eta == math.inf


def test_margin_profile_scale_invariant():
    ds = generate_separable(40, 3, 8)
    h = Hyperplane(np.array([0.7, -0.2, 0.1]), 0.4)
    a = margin_profile(h, ds)
    b = margin_profile(Hyperplane(h.w * 37.5, h.b * 37.5), ds)
    assert np.array_equal(a.misclassified, b.misclassified)
    assert a.eta == pytest.approx(b.eta, rel=1e-12)
    assert a.misclass_mass == b.misclass_mass


def test_margin_profile_eta_positive_when_not_all_misclassified():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 4))
        pts = rng.standard_normal((n, d))
        labels = rng.choice([-1.0, 1.0], n)
        ds = Dataset(pts, labels, np.full(n, 1.0 / n))
        h = Hyperplane(rng.standard_normal(d), rng.standard_normal())
        prof = margin_profile(h, ds)
        if prof.misclassified.size < n:
            assert prof.eta > 0.0
        assert prof.misclass_mass == pytest.approx(
            ds.weights[prof.misclassified].sum(), abs=1e-12
        )


def test_generalized_margin_constructed_instance():
    gm = generalized_margin(one_d_instance(), candidate_grid())
    assert gm.rho_star == 0.0
    assert gm.gamma_star == pytest.approx(1.0, abs=1e-12)
    assert gm.rho_bar == pytest.approx(0.25, abs=1e-15)


def test_generalized_margin_all_positive_labels():
    pts = np.array([[0.5], [1.5], [2.5]])
    ds = Dataset(pts, np.ones(3), np.full(3, 1.0 / 3.0))
    cands = [Hyperplane(np.array([1e-9]), 1.0), Hyperplane(np.array([1.0]), 0.0)]
    gm = generalized_margin(ds, cands)
    assert gm.rho_star == 0.0


def test_generalized_margin_single_point():
    ds = Dataset(np.array([[1.0]]), np.array([1.0]), np.array([1.0]))
    gm = generalized_margin(ds, [Hyperplane(np.array([1.0]), 0.0)])
    assert gm.rho_star == 0.0
    assert gm.rho_bar == 1.0


def test_generalized_margin_monotone_under_enlargement():
    ds = one_d_instance()
    small = candidate_grid(step=0.5)
    large = small + candidate_grid(step=1e-2)
    gs = generalized_margin(ds, small)
    gl = generalized_margin(ds, large)
    assert gl.rho_star <= gs.rho_star
    if gl.rho_star == gs.rho_star:
        assert gl.gamma_star >= gs.gamma_star


def test_generalized_margin_rejects_large_exhaustive():
    # above n = 20 rho_bar comes from the observed masses, not from 2^n sums
    ds = generate_separable(31, 2, 0)
    gm = generalized_margin(ds, [Hyperplane(np.array([1.0, 0.0]), 0.0)])
    assert gm.rho_star == 0.0
    assert gm.rho_bar == pytest.approx(1.0 / 31, abs=1e-15)


def test_generalized_margin_empty_candidates():
    with pytest.raises(ValueError):
        generalized_margin(one_d_instance(), [])


def test_subset_sums_enumeration():
    sums = np.sort(subset_sums(np.array([0.5, 0.25, 0.25])))
    assert np.allclose(sums, [0.0, 0.25, 0.25, 0.5, 0.5, 0.75, 0.75, 1.0])


def test_worst_case_value_at_margin_optimum():
    # at the (rho*, gamma*) candidate the worst case is rho* + eps/gamma*
    # for every radius below (rho_bar - rho*) * gamma* = 1/4
    ds = one_d_instance()
    h = Hyperplane(np.array([1.0]), 0.0)
    for eps in (0.01, 0.1, 0.125, 0.2, 0.2499):
        assert worst_case_prob_knapsack(ds, h, eps) == pytest.approx(eps, abs=1e-9)


@pytest.mark.parametrize(
    "u,v,expected",
    [
        ((1.0, 0.0), (1.0, 0.0), 0.0),
        ((1.0, 0.0), (1.0, 1.0), math.sqrt(2.0) / 2.0),
        ((1.0, 0.0), (0.0, 1.0), 1.0),
    ],
)
def test_sin_angle_values(u, v, expected):
    assert sin_angle(np.array(u), np.array(v)) == pytest.approx(expected, abs=1e-12)


def test_sin_angle_rejects_zero():
    with pytest.raises(ValueError):
        sin_angle(np.zeros(2), np.array([1.0, 0.0]))


@pytest.mark.parametrize("scale", [1e200, 1e-200, 5e-324])
def test_sin_angle_at_extreme_scales(scale):
    # the vector's norm overflows or underflows, its angle does not; scaling
    # by a power of two keeps every bit
    u, v = np.array([1.0, 0.1, 0.0]), np.array([scale, 0.0, 0.0])
    assert sin_angle(v, u) == sin_angle(u, v)
    assert sin_angle(v, u) == pytest.approx(0.1 / math.sqrt(1.01), abs=1e-14)
    assert sin_angle(u * 2.0**600, u * 2.0**-600) == sin_angle(u, u)


def test_sin_angle_range():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = sin_angle(rng.standard_normal(4), rng.standard_normal(4))
        assert 0.0 <= s <= 1.0
