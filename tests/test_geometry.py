import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import distances_reference
from rampdro.dataset import Dataset, flip_labels, generate_separable
from rampdro.dro import cvar_radius, worst_case_prob_dual, worst_case_prob_knapsack
from rampdro.geometry import (
    Hyperplane,
    distances,
    generalized_margin,
    margin_profile,
    sin_angle,
    subset_sums,
)
from rampdro.losses import LossKind, LossSpec
from rampdro.objective import ObjectiveSpec, evaluate


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


def test_hyperplane_owns_its_w():
    ds = flip_labels(generate_separable(60, 2, 5), 0.2, 1)
    base = np.array([[1.0, 0.3], [0.2, -1.0], [-0.5, 0.8]])
    earlier_view = base[1]  # a view made before the call
    read_only_view = base[2].view()
    read_only_view.setflags(write=False)
    candidates = [Hyperplane(base[0], 0.1), Hyperplane(earlier_view, -0.2),
                  Hyperplane(read_only_view, 0.0)]
    w_before = [h.w.copy() for h in candidates]
    radius = cvar_radius(ds, candidates, 0.3)
    base[0] *= -1.0
    earlier_view[:] = [3.0, 3.0]
    base[2] = [0.0, 1.0]
    for h, w in zip(candidates, w_before):
        assert np.array_equal(h.w, w) and not h.w.flags.writeable
    assert cvar_radius(ds, candidates, 0.3) == radius
    # a read-only array that owns its data is adopted as it is
    owned = np.array([1.0, 2.0])
    owned.setflags(write=False)
    assert Hyperplane(owned, 0.0).w is owned


@pytest.mark.parametrize("w,b,got", [
    ([math.nan, 1.0], 0.0, "w[0] = nan"),
    ([1.0, -math.inf, math.nan], 0.0, "w[1] = -inf"),
    ([1.0, 2.0], math.inf, "b = inf"),
    ([1.0, math.inf], math.nan, "w[1] = inf"),
], ids=["w0-nan", "w1-inf", "b-inf", "w-before-b"])
def test_hyperplane_rejects_non_finite_entry_by_name(w, b, got):
    # the first bad entry, w before b, with its plain value
    with pytest.raises(ValueError, match=rf"^hyperplane entries must be finite, got {re.escape(got)}$"):
        Hyperplane(np.array(w), b)


@pytest.mark.parametrize("scale", [1e200, 1e300, 1e-200, 1e-300])
def test_hyperplane_norm_at_extreme_scales(scale):
    # the squares of 1e200 overflowed, and those of 1e-200 underflowed to a
    # zero norm
    assert Hyperplane(np.array([scale, scale]), 0.0).norm == pytest.approx(math.sqrt(2.0) * scale, rel=1e-15)
    assert Hyperplane(np.array([-scale, 0.0, 0.0]), 1.0).norm == scale


def test_hyperplane_norm_keeps_its_bits_in_the_normal_range():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        w = rng.standard_normal(int(rng.integers(1, 12))) * 10.0 ** rng.uniform(-100, 100)
        assert Hyperplane(w, 0.0).norm == float(np.linalg.norm(w))
    # a norm past the largest float is inf, with no warning
    assert Hyperplane(np.array([1.5e308, 1.5e308]), 0.0).norm == math.inf


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


# multiples of 1/1000, so that no product or sum below comes near the
# subnormal range, where the unscaled reference loses bits
_MILLI = st.integers(-3000, 3000).map(lambda k: k / 1000.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 200),
    st.integers(0, 2**16),
    st.lists(_MILLI, min_size=4, max_size=4),
    _MILLI,
    st.integers(-100, 100),
    st.integers(-100, 100),
)
def test_distances_match_unscaled_formula_bitwise(d, n, seed, w, b, w_exp, b_exp):
    # |w| and |b| from 1e-100 to 1e100, each on its own scale; w = 0 included
    ds = flip_labels(generate_separable(n, d, seed), 0.2, seed)
    h = Hyperplane(np.array(w[:d]) * 10.0**w_exp, b * 10.0**b_exp)
    got, want = distances(h, ds), distances_reference(h, ds)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 50),
    st.integers(0, 2**16),
    st.lists(_MILLI, min_size=4, max_size=4),
    _MILLI,
)
def test_distances_scale_invariant_at_extreme_scales(d, n, seed, w, b):
    # ||c w|| overflows or underflows at c = 1e+-300; the distances do not
    # move, and a power-of-two c keeps every bit
    assume(any(w[:d]))
    ds = generate_separable(n, d, seed)
    w = np.array(w[:d])
    base = distances(Hyperplane(w, b), ds)
    tol = 1e-12 * (1.0 + np.linalg.norm(ds.points, axis=1))
    for c in (1e300, 1e-300):
        scaled = distances(Hyperplane(c * w, c * b), ds)
        assert np.all(np.abs(scaled - base) <= tol)
    for c in (2.0**997, 2.0**-997):
        assert distances(Hyperplane(c * w, c * b), ds).tobytes() == base.tobytes()


def test_distances_with_b_overflowing_after_scaling():
    # w = 2^-1000 is scaled up by 2^1000, which takes b = 1e300 past the
    # float range: every distance is inf or 0, and no warning is raised
    ds = generate_separable(20, 2, 1)
    for b in (1e300, -1e300):
        dist = distances(Hyperplane(np.array([2.0**-1000, 0.0]), b), ds)
        assert np.array_equal(dist, np.where(ds.labels * b > 0.0, np.inf, 0.0))


def test_hyperplane_of_another_dimension_is_rejected_by_name():
    # the distances, the oracles, the margin profile and the objective all
    # form X w, so each names the mismatch in plain numbers, not numpy's
    ds = generate_separable(20, 2, 1)
    h = Hyperplane(np.array([1.0, 0.5, -0.25]), 0.1)
    spec = ObjectiveSpec(LossSpec(LossKind.RAMP))
    calls = [
        lambda: distances(h, ds),
        lambda: worst_case_prob_dual(ds, h, 0.1),
        lambda: margin_profile(h, ds),
        lambda: evaluate(spec, ds, h),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape("hyperplane has 3 weights, dataset has d = 2")):
            call()


def test_margin_profile_separable_pair():
    ds = Dataset(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    prof = margin_profile(Hyperplane(np.array([1.0]), 0.0), ds)
    assert prof.misclassified.size == 0
    assert prof.eta == 1.0
    assert prof.misclass_mass == 0.0


def test_margin_profile_counts_a_point_misclassified_exactly_at_distance_zero():
    # x = 1e-14 is on the correct side of w = 1, b = 0, at distance 1e-14,
    # so no mass is misclassified, as the dual and the knapsack count it (a
    # floor of 1e-12 (1 + ||x||) gave mass 0.5 and eta 1); x = 0 lies on the
    # hyperplane, at distance 0, and is misclassified
    h = Hyperplane(np.array([1.0]), 0.0)
    ds = Dataset(np.array([[1e-14], [1.0]]), np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    prof = margin_profile(h, ds)
    assert prof.misclassified.size == 0
    assert prof.misclass_mass == 0.0
    assert prof.eta == 1e-14
    assert worst_case_prob_dual(ds, h, 0.0).value == 0.0
    assert worst_case_prob_knapsack(ds, h, 0.0) == 0.0
    on_plane = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    prof = margin_profile(h, on_plane)
    assert prof.misclassified.tolist() == [0]
    assert prof.misclass_mass == 0.5
    assert prof.eta == 1.0
    assert worst_case_prob_dual(on_plane, h, 0.0).value == 0.5
    assert worst_case_prob_knapsack(on_plane, h, 0.0) == 0.5


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sin_angle_rejects_non_finite(bad):
    for u, v in (((bad, 1.0), (1.0, 0.0)), ((1.0, 0.0), (0.5, bad))):
        with pytest.raises(ValueError, match="^sin_angle needs finite vectors$"):
            sin_angle(np.array(u), np.array(v))


@pytest.mark.parametrize("u,v", [((1.0, 0.0, 0.0), (1.0,)), ((1.0, 0.0, 0.0), (0.0, 1.0))],
                         ids=["3-vs-1", "3-vs-2"])
def test_sin_angle_rejects_vectors_of_different_lengths(u, v):
    # (3,) against (1,) broadcast and returned 1.0; (3,) against (2,) raised numpy's message
    with pytest.raises(ValueError, match=f"^sin_angle needs vectors of one length, got 3 and {len(v)}$"):
        sin_angle(np.array(u), np.array(v))


def test_sin_angle_of_parallel_and_tiny_angles():
    # sqrt(1 - cos^2) read up to 3e-8 on parallel pairs and 0 at a 1e-9 angle
    rng = np.random.default_rng(8)
    for _ in range(200):
        u = rng.standard_normal(rng.integers(2, 12))
        assert sin_angle(u, 3.0 * u) <= 1e-15
        assert sin_angle(u, -u * rng.uniform(0.1, 10.0)) <= 1e-15
    for angle in (1e-9, 1e-12, 1e-300):
        s = sin_angle(np.array([1.0, 0.0]), np.array([math.cos(angle), math.sin(angle)]))
        assert s == pytest.approx(angle, rel=1e-15)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.tuples(*[st.floats(-1e3, 1e3, allow_subnormal=False)] * 2),
    st.tuples(*[st.floats(-1e3, 1e3, allow_subnormal=False)] * 2),
    st.floats(0.0, 1e-6),
)
def test_sin_angle_matches_exact_cross_product(u, v, nudge):
    # in the plane |u x v| / (|u| |v|) is sin(theta), with the cross product
    # exact in Fraction arithmetic; v drawn near u covers small angles, where
    # rounding the unit vectors leaves an absolute error near 1e-16
    u = np.array(u)
    v = u + nudge * np.array(v) if nudge else np.array(v)
    assume(np.linalg.norm(u) > 1e-3 and np.linalg.norm(v) > 1e-3)
    cross = abs(Fraction(u[0]) * Fraction(v[1]) - Fraction(u[1]) * Fraction(v[0]))
    expected = float(cross) / (math.hypot(*u) * math.hypot(*v))
    assert sin_angle(u, v) == pytest.approx(min(expected, 1.0), rel=1e-14, abs=1e-15)


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
