import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampdro.losses import (
    BAND_SIGMAS,
    LossKind,
    LossSpec,
    ramp,
    smoothed_hinge,
    smoothed_hinge_deriv,
    smoothed_ramp,
    smoothed_ramp_deriv,
)

SIGMAS = (0.01, 0.02, 0.1, 0.5)


@pytest.mark.parametrize(
    "r,expected",
    [(-1.0, 1.0), (0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (1.0, 0.0), (1.5, 0.0)],
)
def test_ramp_piecewise(r, expected):
    assert ramp(r) == expected


def test_ramp_vectorized():
    r = np.array([-2.0, 0.3, 2.0])
    assert np.array_equal(ramp(r), np.array([1.0, 0.7, 0.0]))


@pytest.mark.parametrize("sigma", SIGMAS)
def test_smoothed_ramp_half_point(sigma):
    # reflection identity forces the value 1/2 at r = 1/2
    assert abs(smoothed_ramp(0.5, sigma) - 0.5) < 1e-14


def test_smoothed_ramp_at_zero_closed_form():
    # sigma*log((e^{1/sigma} + 1) / 2) = 1 - sigma*log 2 + sigma*log1p(e^{-1/sigma})
    assert abs(smoothed_ramp(0.0, 0.02) - (1.0 - 0.02 * math.log(2.0))) < 1e-9


def test_smoothed_ramp_softmax_bound_far_right():
    assert abs(smoothed_ramp(3.0, 0.02) - 0.0) <= 0.02 * math.log(2.0)


def test_smoothed_ramp_extreme_arguments_stable():
    for r in (-200.0, -1e3, 1e3, 200.0):
        v = smoothed_ramp(r, 0.02)  # |r|/sigma up to 5e4
        assert np.isfinite(v) and 0.0 <= v <= 1.0
    assert smoothed_ramp(-1e3, 0.02) == 1.0
    assert smoothed_ramp(1e3, 0.02) == 0.0
    # (1 - r) - (-r) would cancel here and lose ulp(r) below the true 1.0
    assert smoothed_ramp(-31.899183856507637, 0.02) == 1.0


@pytest.mark.parametrize("sigma", SIGMAS)
def test_symmetry_identity(sigma):
    r = np.linspace(-5.0, 6.0, 10_000)
    total = smoothed_ramp(r, sigma) + smoothed_ramp(1.0 - r, sigma)
    assert np.max(np.abs(total - 1.0)) < 1e-12


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20), st.floats(0.005, 1.0))
def test_symmetry_identity_drawn(r, sigma):
    r = np.array(r)
    total = smoothed_ramp(r, sigma) + smoothed_ramp(1.0 - r, sigma)
    assert np.max(np.abs(total - 1.0)) < 1e-12


@pytest.mark.parametrize("sigma", SIGMAS)
def test_bounds_and_ramp_distance(sigma):
    r = np.linspace(-5.0, 6.0, 10_000)
    v = smoothed_ramp(r, sigma)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)
    assert np.max(np.abs(v - ramp(r))) <= 2.0 * sigma * math.log(2.0)


@pytest.mark.parametrize(
    "sigma,lo,hi",
    [(0.02, -0.2, 1.2), (0.1, -1.0, 2.0), (0.5, -5.0, 6.0)],
)
def test_strict_monotone_decrease(sigma, lo, hi):
    # grids chosen so the tails have not underflowed to constants
    r = np.linspace(lo, hi, 2000)
    v = smoothed_ramp(r, sigma)
    assert np.all(np.diff(v) < 0.0)
    assert np.all(smoothed_ramp_deriv(r, sigma) < 0.0)


def test_pointwise_convergence_monotone_in_sigma():
    r = np.array([-2.0, -0.5, 0.25, 0.45, 0.7, 0.9, 1.3, 3.0])
    gaps = [np.abs(smoothed_ramp(r, s) - ramp(r)) for s in (0.1, 0.05, 0.02, 0.01)]
    for larger, smaller in zip(gaps, gaps[1:]):
        assert np.all(smaller <= larger + 1e-15)


def test_deriv_at_zero_small_sigma():
    # (1 - e^{1/s}) / (2 (e^{1/s} + 1)) -> -1/2 as s -> 0, within 1e-12 at s=.02
    assert abs(smoothed_ramp_deriv(0.0, 0.02) - (-0.5)) < 1e-12


def test_deriv_tends_to_zero_from_below():
    d = smoothed_ramp_deriv(40.0, 0.5)
    assert -1e-20 < d < 0.0


def test_deriv_symmetric_about_half():
    r = np.linspace(-3.0, 4.0, 101)
    a = smoothed_ramp_deriv(r, 0.07)
    b = smoothed_ramp_deriv(1.0 - r, 0.07)
    assert np.max(np.abs(a - b)) < 1e-15


@pytest.mark.parametrize("sigma,lo,hi", [(0.02, -0.1, 1.1), (0.1, -0.6, 1.6), (0.5, -2.0, 3.0)])
def test_smoothed_ramp_deriv_matches_finite_differences(sigma, lo, hi):
    for r in np.linspace(lo, hi, 41):
        h = 1e-6 * max(1.0, abs(r))
        fd = (smoothed_ramp(r + h, sigma) - smoothed_ramp(r - h, sigma)) / (2 * h)
        an = smoothed_ramp_deriv(r, sigma)
        assert abs(fd - an) <= 1e-5 * max(abs(an), 1e-12)


def test_smoothed_hinge_values():
    assert abs(smoothed_hinge(1.0, 0.02) - 0.02 * math.log(2.0)) < 1e-15
    assert abs(smoothed_hinge(-10.0, 0.02) - 11.0) <= 0.02 * math.log(2.0)
    assert smoothed_hinge_deriv(1.0, 0.02) == -0.5


@pytest.mark.parametrize("sigma,lo,hi", [(0.02, -3.0, 1.1), (0.2, -3.0, 2.0)])
def test_smoothed_hinge_deriv_matches_finite_differences(sigma, lo, hi):
    for r in np.linspace(lo, hi, 41):
        h = 1e-6 * max(1.0, abs(r))
        fd = (smoothed_hinge(r + h, sigma) - smoothed_hinge(r - h, sigma)) / (2 * h)
        an = smoothed_hinge_deriv(r, sigma)
        assert abs(fd - an) <= 1e-5 * max(abs(an), 1e-12)


def test_smoothed_hinge_nonnegative():
    r = np.linspace(-5.0, 10.0, 500)
    assert np.all(smoothed_hinge(r, 0.05) >= 0.0)


# kind, exact value and slope, band centre and half-width before the sigmas
BANDED = {
    "sramp": (LossKind.SMOOTHED_RAMP, smoothed_ramp, smoothed_ramp_deriv, 0.5, 0.5),
    "shinge": (LossKind.SMOOTHED_HINGE, smoothed_hinge, smoothed_hinge_deriv, 1.0, 0.0),
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20),
    st.floats(0.005, 1.0),
    st.sampled_from(sorted(BANDED)),
)
def test_banded_spec_within_bound_of_exact(r, sigma, name):
    kind, value, deriv, center, half_width = BANDED[name]
    spec = LossSpec(kind, sigma)
    r = np.array(r)
    band = np.abs(r - center) < half_width + BAND_SIGMAS * sigma
    v, d = spec.value(r), spec.deriv(r)
    # inside the band the exact kernels run unchanged
    assert np.array_equal(v[band], value(r, sigma)[band])
    assert np.array_equal(d[band], deriv(r, sigma)[band])
    assert np.all(np.abs(v - value(r, sigma))[~band] <= sigma * math.exp(-36.0))
    assert np.all(np.abs(d - deriv(r, sigma)) <= math.exp(-36.0))
    for i, ri in enumerate(r.tolist()):
        assert spec.value(ri) == v[i] and spec.deriv(ri) == d[i]
        assert type(spec.value(ri)) is float and type(spec.deriv(ri)) is float
    if kind is LossKind.SMOOTHED_RAMP:
        assert np.max(np.abs(v + spec.value(1.0 - r) - 1.0)) < 1e-12


def test_banded_spec_tails_are_asymptotes():
    # the exact slope is still nonzero here (see test_deriv_tends_to_zero_from_below)
    assert LossSpec(LossKind.SMOOTHED_RAMP, 0.5).deriv(40.0) == 0.0
    r = np.array([-10.0, np.nan, 10.0])
    ramp_spec = LossSpec(LossKind.SMOOTHED_RAMP, 0.02)
    hinge_spec = LossSpec(LossKind.SMOOTHED_HINGE, 0.02)
    np.testing.assert_array_equal(ramp_spec.value(r), [1.0, np.nan, 0.0])
    np.testing.assert_array_equal(ramp_spec.deriv(r), [0.0, np.nan, 0.0])
    np.testing.assert_array_equal(hinge_spec.value(r), [11.0, np.nan, 0.0])
    np.testing.assert_array_equal(hinge_spec.deriv(r), [-1.0, np.nan, 0.0])
    assert ramp_spec.value(r.reshape(3, 1)).shape == (3, 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(LossKind.SMOOTHED_RAMP, 0.0)
    with pytest.raises(ValueError):
        LossSpec(LossKind.SMOOTHED_HINGE, -0.1)
    LossSpec(LossKind.RAMP, 0.0)  # sigma unused for plain ramp
    with pytest.raises(ValueError):
        LossSpec(LossKind.RAMP).deriv(0.5)
    with pytest.raises(ValueError):
        smoothed_ramp(0.5, -1.0)


@pytest.mark.parametrize(
    "kernel", [smoothed_ramp, smoothed_ramp_deriv, smoothed_hinge, smoothed_hinge_deriv]
)
def test_free_kernels_reject_infinite_sigma(kernel):
    with pytest.raises(ValueError):
        kernel(0.3, math.inf)


def test_spec_dispatch():
    spec = LossSpec(LossKind.SMOOTHED_RAMP, 0.05)
    assert spec.smooth
    assert spec.value(0.3) == smoothed_ramp(0.3, 0.05)
    assert spec.deriv(0.3) == smoothed_ramp_deriv(0.3, 0.05)
    hinge = LossSpec(LossKind.SMOOTHED_HINGE, 0.05)
    assert hinge.value(0.3) == smoothed_hinge(0.3, 0.05)
    assert not LossSpec(LossKind.RAMP).smooth
