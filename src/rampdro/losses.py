"""Scalar losses for robust linear classification.

The ramp loss clips the hinge at 1, so every sample contributes at most one
unit of loss no matter how badly it is misclassified:

    L(r) = max(0, 1 - r) - max(0, -r)

The smoothed variants replace each max-term with a softmax at temperature
``sigma``, which keeps the loss infinitely differentiable while staying
within ``sigma * log(2)`` of the corresponding max.  All functions accept
scalars or numpy arrays and are stateless (thread-safe).

``LossSpec.value`` and ``LossSpec.deriv``, which the training objective
calls, are banded: they run the transcendentals only for margins within
``BAND_SIGMAS * sigma`` of a kink (|r - 1/2| < 1/2 + 36 sigma for the smoothed
ramp, |r - 1| < 36 sigma for the smoothed hinge) and return the asymptotes
elsewhere.  Beyond the band each smoothed loss equals its asymptote to within
sigma * exp(-36) ~ 4.6e-18 * sigma in value and exp(-36) ~ 2.3e-16 in slope,
so the banded values stay within those bounds of the exact ones.  The free
functions ``smoothed_ramp*`` and ``smoothed_hinge*`` stay exact everywhere.
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
        if self.kind is LossKind.SMOOTHED_RAMP:
            return _banded(smoothed_ramp, r, self.sigma, 0.5, 0.5, 1.0, 0.0)
        return _banded(smoothed_hinge, r, self.sigma, 1.0, 0.0, 1.0, -1.0)

    def deriv(self, r):
        """Slope at margins r, banded like ``value``."""
        if self.kind is LossKind.RAMP:
            raise ValueError("ramp loss has no derivative; use a smoothed variant")
        if self.kind is LossKind.SMOOTHED_RAMP:
            return _banded(smoothed_ramp_deriv, r, self.sigma, 0.5, 0.5, 0.0, 0.0)
        return _banded(smoothed_hinge_deriv, r, self.sigma, 1.0, 0.0, -1.0, 0.0)


def _ret(out):
    # scalar in, scalar out; array in, array out
    return float(out) if np.ndim(out) == 0 else out


def _banded(kernel, r, sigma, center, half_width, below, below_slope):
    """kernel(r, sigma) within the band |r - center| < half_width + BAND_SIGMAS * sigma.

    Outside the band the asymptote is returned: ``below + below_slope * r``
    under it, 0 over it.  NaN margins count as in band and stay NaN.
    """
    r = np.asarray(r, dtype=float)
    flat = r.reshape(-1)
    tail = below if below_slope == 0.0 else below + below_slope * flat
    out = np.where(flat < center, tail, 0.0)
    idx = (~(np.abs(flat - center) >= half_width + BAND_SIGMAS * sigma)).nonzero()[0]
    if idx.size:
        out[idx] = kernel(flat[idx], sigma)
    return _ret(out.reshape(r.shape))


def _softmax0(z, sigma):
    """sigma * log(1 + exp(z / sigma)), the softmax of {0, z}.

    Shifted so that exp never sees a positive argument; exact for
    |z| / sigma far beyond 1e4.
    """
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + sigma * np.log1p(np.exp(-np.abs(z) / sigma))


def _logistic(z):
    # exp-based rather than tanh-based: keeps gradual underflow in the tails
    # instead of saturating to exactly 0/1 around |z| ~ 38
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


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
    to (1 - r) - (-r) and lose up to ulp(r).
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    r = np.asarray(r, dtype=float)
    rr = np.maximum(r, 1.0 - r)
    v = _softmax0(1.0 - rr, sigma) - _softmax0(-rr, sigma)
    # the difference can overshoot the mathematical range by one ulp when
    # the softmax correction terms underflow at different magnitudes
    return _ret(np.clip(np.where(r < 0.5, 1.0 - v, v), 0.0, 1.0))


def smoothed_ramp_deriv(r, sigma):
    """First derivative of the smoothed ramp; strictly negative.

    Equal to logistic((r - 1) / sigma) - logistic(r / sigma).  The derivative
    is symmetric about r = 1/2, so it is evaluated at min(r, 1 - r) where the
    difference of logistics underflows gradually instead of cancelling.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    r = np.asarray(r, dtype=float)
    rr = np.minimum(r, 1.0 - r)
    return _ret(_logistic((rr - 1.0) / sigma) - _logistic(rr / sigma))


def smoothed_hinge(r, sigma):
    """Softmax-smoothed hinge loss: sigma * log(1 + exp((1 - r) / sigma))."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    r = np.asarray(r, dtype=float)
    return _ret(_softmax0(1.0 - r, sigma))


def smoothed_hinge_deriv(r, sigma):
    """Derivative of the smoothed hinge: -logistic((1 - r) / sigma)."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    r = np.asarray(r, dtype=float)
    return _ret(-_logistic((1.0 - r) / sigma))
