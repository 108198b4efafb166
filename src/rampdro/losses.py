"""Scalar losses for robust linear classification.

The ramp loss clips the hinge at 1, so every sample contributes at most one
unit of loss no matter how badly it is misclassified:

    L(r) = max(0, 1 - r) - max(0, -r)

The smoothed variants replace each max-term with a softmax at temperature
``sigma``, which keeps the loss infinitely differentiable while staying
within ``sigma * log(2)`` of the corresponding max.  All functions accept
scalars or numpy arrays and are stateless (thread-safe).

``LossSpec.value`` and ``LossSpec.value_and_slope``, which the training
objective calls, are banded: they run the transcendentals only for margins
within ``BAND_SIGMAS * sigma`` of a kink (|r - 1/2| < 1/2 + 36 sigma for the
smoothed ramp, |r - 1| < 36 sigma for the smoothed hinge) and return the
asymptotes elsewhere.  Beyond the band each smoothed loss equals its
asymptote to within sigma * exp(-36) ~ 4.6e-18 * sigma in value and
exp(-36) ~ 2.3e-16 in slope, so the banded values stay within those bounds
of the exact ones.  One band pass serves both value and slope: the band is
selected once (one mask, one index, one gather) and the value and slope
kernels run on the same in-band margins, so a gradient evaluation costs one
selection, not two.  The free functions ``smoothed_ramp*`` and
``smoothed_hinge*`` stay exact everywhere; the two smoothed-ramp kernels
evaluate their two softmax (or logistic) terms in one stacked, in-place
pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BAND_SIGMAS",
    "LossKind",
    "LossSpec",
    "ramp",
    "smoothed_ramp",
    "smoothed_ramp_deriv",
    "smoothed_hinge",
    "smoothed_hinge_deriv",
]

# LossSpec evaluates the smoothed losses exactly only within this many
# temperatures of a kink; beyond it the gap to the asymptote is below exp(-36)
BAND_SIGMAS = 36.0


class LossKind(enum.Enum):
    RAMP = "ramp"
    SMOOTHED_RAMP = "sramp"
    SMOOTHED_HINGE = "shinge"


@dataclass(frozen=True)
class LossSpec:
    """Loss selector plus smoothing temperature (unused for plain ramp)."""

    kind: LossKind
    sigma: float = 0.02

    def __post_init__(self):
        if self.kind is not LossKind.RAMP and not 0.0 < self.sigma < np.inf:
            raise ValueError(
                f"sigma must be positive and finite for {self.kind.value}, got {self.sigma}"
            )

    @property
    def smooth(self) -> bool:
        return self.kind is not LossKind.RAMP

    def value(self, r):
        """Loss at margins r, banded for the smoothed kinds (module docstring)."""
        if self.kind is LossKind.RAMP:
            return ramp(r)
        return self._banded(r, slope=False)

    def value_and_slope(self, r):
        """(loss, slope) at margins r from one band selection (module docstring)."""
        if self.kind is LossKind.RAMP:
            raise ValueError("ramp loss has no derivative; use a smoothed variant")
        return self._banded(r, slope=True)

    def _banded(self, r, slope: bool):
        """The smoothed loss (and its slope) within the band, asymptotes beyond.

        The band is |r - c| < half_width + BAND_SIGMAS * sigma about the
        kink centre c.  It is selected once, and the value and slope
        kernels run on the same gathered margins.  Off the band each loss
        equals its unsmoothed form: the ramp is 1 below the band and 0 above
        it, with slope 0; the hinge is max(0, 1 - r), with slope -1 below
        and 0 above.  NaN margins count as in band and stay NaN.
        """
        r = np.asarray(r, dtype=float)
        flat = r.reshape(-1)
        if self.kind is LossKind.SMOOTHED_RAMP:
            center, half_width = 0.5, 0.5
            value_kernel, slope_kernel = smoothed_ramp, smoothed_ramp_deriv
            value = (flat < center).astype(float)
        else:
            center, half_width = 1.0, 0.0
            value_kernel, slope_kernel = smoothed_hinge, smoothed_hinge_deriv
            value = np.maximum(1.0 - flat, 0.0)
        idx = (~(np.abs(flat - center) >= half_width + BAND_SIGMAS * self.sigma)).nonzero()[0]
        in_band = flat[idx]
        if idx.size:
            value[idx] = value_kernel(in_band, self.sigma)
        if not slope:
            return _ret(value.reshape(r.shape))
        if self.kind is LossKind.SMOOTHED_RAMP:
            deriv = np.zeros(flat.size)
        else:
            # -1 below the kink, +0.0 above (negating a mask would give -0.0)
            deriv = np.subtract(flat >= center, 1.0)
        if idx.size:
            deriv[idx] = slope_kernel(in_band, self.sigma)
        return _ret(value.reshape(r.shape)), _ret(deriv.reshape(r.shape))


def _ret(out):
    # scalar in, scalar out; array in, array out
    return float(out) if np.ndim(out) == 0 else out


def _softmax0(z, sigma):
    """sigma * log(1 + exp(z / sigma)), the softmax of {0, z}, in place on z.

    z must be a float array of at least one dimension that the caller owns;
    it is overwritten and returned.  Shifted so that exp never sees a
    positive argument; exact for |z| / sigma far beyond 1e4.
    """
    t = np.abs(z)
    t /= -sigma
    np.exp(t, out=t)
    np.log1p(t, out=t)
    t *= sigma
    np.maximum(z, 0.0, out=z)
    z += t
    return z


def _logistic(z):
    """1 / (1 + exp(-z)), in place on z, under ``_softmax0``'s contract."""
    # exp-based rather than tanh-based: keeps gradual underflow in the tails
    # instead of saturating to exactly 0/1 around |z| ~ 38
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    # 1 / d where z >= 0, e / d elsewhere (NaN stays NaN)
    np.copyto(e, 1.0, where=z >= 0)
    np.divide(e, d, out=z)
    return z


def _check_sigma(sigma):
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


def ramp(r):
    """Ramp loss: 1 for r <= 0, 1 - r for 0 < r < 1, 0 for r >= 1."""
    r = np.asarray(r, dtype=float)
    return _ret(np.clip(1.0 - r, 0.0, 1.0))


def smoothed_ramp(r, sigma):
    """Softmax-smoothed ramp loss at temperature sigma > 0.

    Writing sp(z) = sigma * log(1 + exp(z / sigma)), the value is
    sp(1 - r) - sp(-r).  Satisfies the exact reflection identity
    smoothed_ramp(r) + smoothed_ramp(1 - r) = 1 and stays within
    sigma * log(2) of ramp(r).  The difference is evaluated at
    max(r, 1 - r) and reflected below r = 1/2: for r << 0 it would cancel
    to (1 - r) - (-r) and lose up to ulp(r).  Both softmax terms run in one
    stacked pass.
    """
    _check_sigma(sigma)
    r = np.asarray(r, dtype=float)
    flat = r.reshape(-1)
    sp = np.empty((2, flat.size))
    rr = np.subtract(1.0, flat, out=sp[1])
    np.maximum(flat, rr, out=rr)  # rr = max(r, 1 - r)
    np.subtract(1.0, rr, out=sp[0])
    np.negative(rr, out=rr)
    _softmax0(sp, sigma)
    v = sp[0]
    v -= sp[1]
    np.subtract(1.0, v, out=v, where=flat < 0.5)
    # the difference can overshoot the mathematical range by one ulp when
    # the softmax correction terms underflow at different magnitudes; the
    # clip to [0, 1] is spelled out because np.clip costs a Python-level call
    np.maximum(v, 0.0, out=v)
    np.minimum(v, 1.0, out=v)
    return _ret(v.reshape(r.shape))


def smoothed_ramp_deriv(r, sigma):
    """First derivative of the smoothed ramp; strictly negative.

    Equal to logistic((r - 1) / sigma) - logistic(r / sigma).  The derivative
    is symmetric about r = 1/2, so it is evaluated at min(r, 1 - r) where the
    difference of logistics underflows gradually instead of cancelling.
    Both logistic terms run in one stacked pass.
    """
    _check_sigma(sigma)
    r = np.asarray(r, dtype=float)
    flat = r.reshape(-1)
    z = np.empty((2, flat.size))
    rr = np.subtract(1.0, flat, out=z[1])
    np.minimum(flat, rr, out=rr)  # rr = min(r, 1 - r)
    np.subtract(rr, 1.0, out=z[0])
    z /= sigma
    lg = _logistic(z)
    d = lg[0]
    d -= lg[1]
    return _ret(d.reshape(r.shape))


def smoothed_hinge(r, sigma):
    """Softmax-smoothed hinge loss: sigma * log(1 + exp((1 - r) / sigma))."""
    _check_sigma(sigma)
    r = np.asarray(r, dtype=float)
    z = 1.0 - r.reshape(-1)  # a fresh 1-D array for the in-place softmax
    return _ret(_softmax0(z, sigma).reshape(r.shape))


def smoothed_hinge_deriv(r, sigma):
    """Derivative of the smoothed hinge: -logistic((1 - r) / sigma)."""
    _check_sigma(sigma)
    r = np.asarray(r, dtype=float)
    z = 1.0 - r.reshape(-1)
    z /= sigma
    return _ret(np.negative(_logistic(z), out=z).reshape(r.shape))
