"""Empirical training objectives: weighted loss plus norm regularization.

Two regularizers are supported: the plain Euclidean norm (weight epsilon,
the Wasserstein-radius form) and half the squared norm (weight epsilon-bar,
the smooth form actually handed to the solvers).  The intercept b is never
regularized.  The empirical risk uses the dataset weights p_i, which reduce
to 1/n for uniformly weighted data.

The weighted sum is evaluated in a single vectorized pass (one chunk), so
repeated evaluations at the same point are bit-identical.  A gradient
evaluation forms the margins in place, takes the loss and its slope from one
band pass of the loss (``LossSpec.value_and_slope``) and writes the gradient
into one (d + 1,) buffer; its value is bit-identical to ``evaluate``'s.
Both products, X w in the margins and X^T s in the gradient, stream the
dataset's column-major points a whole column at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Hyperplane, _margins, _norm
from .losses import LossSpec

__all__ = [
    "RegKind",
    "ObjectiveSpec",
    "DroVariables",
    "evaluate",
    "evaluate_with_gradient",
    "objective_function",
    "to_dro_variables",
    "imputed_epsilon",
]


class RegKind(enum.Enum):
    NORM = "norm"
    SQUARED_NORM = "sqnorm"


@dataclass(frozen=True)
class ObjectiveSpec:
    loss: LossSpec
    reg_kind: RegKind = RegKind.SQUARED_NORM
    reg_weight: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.reg_weight < np.inf:
            raise ValueError(f"reg_weight must be nonnegative and finite, got {self.reg_weight}")


class DroVariables(NamedTuple):
    w0: np.ndarray
    b0: float
    t: float


def _regularize(spec: ObjectiveSpec, w: np.ndarray, grad_w: np.ndarray | None = None) -> float:
    """The regularizer's value; given ``grad_w``, its gradient is added there."""
    if spec.reg_kind is RegKind.SQUARED_NORM:
        if grad_w is not None:
            grad_w += spec.reg_weight * w
        return 0.5 * spec.reg_weight * float(w.dot(w))
    norm = _norm(w)
    if grad_w is not None:
        if norm == 0.0:
            raise ValueError("norm regularizer is not differentiable at w = 0")
        grad_w += spec.reg_weight * w / norm
    return spec.reg_weight * norm


def evaluate(spec: ObjectiveSpec, ds, h: Hyperplane) -> float:
    """Objective value; works for every loss, including the exact ramp."""
    risk = float(ds.weights.dot(spec.loss.value(_margins(ds, h.w, h.b))))
    return _regularize(spec, h.w) + risk


def evaluate_with_gradient(spec: ObjectiveSpec, ds, h: Hyperplane):
    """Objective value and its gradient stacked as (d + 1,): d/dw then d/db.

    Requires a smoothed loss; for the NORM regularizer also w != 0 (the norm
    is not differentiable at the origin).  Only ``h.w`` and ``h.b`` are read,
    which lets ``objective_function`` pass the slices of a finite iterate.
    """
    if not spec.loss.smooth:
        raise ValueError("gradient requested for the non-smooth ramp loss")
    w = h.w
    loss, slope = spec.loss.value_and_slope(_margins(ds, w, h.b))
    risk = float(ds.weights.dot(loss))

    slope *= ds.weights
    slope *= ds.labels
    grad = np.empty(w.size + 1)  # filled in place: d/dw, then d/db
    grad_w = np.matmul(ds.points.T, slope, out=grad[:-1])
    grad[-1] = slope.sum()
    return _regularize(spec, w, grad_w) + risk, grad


class _Slices(NamedTuple):
    """The (w, b) slices of a finite iterate, read as a Hyperplane is read."""

    w: np.ndarray
    b: np.float64


def objective_function(spec: ObjectiveSpec, ds):
    """Solver-facing closure: z = (w, b) stacked -> (value, gradient).

    It evaluates on slices of z instead of building a validated Hyperplane
    per call.  A non-finite z gives a NaN value and gradient, not an error,
    so a line search that steps out of the floats shrinks its bracket.
    """

    def fun(z: np.ndarray):
        z = np.asarray(z, dtype=float)
        if not np.isfinite(z).all():
            return math.nan, np.full(z.size, math.nan)
        return evaluate_with_gradient(spec, ds, _Slices(z[:-1], z[-1]))

    return fun


def to_dro_variables(h: Hyperplane) -> DroVariables:
    """Recover the unit-norm classifier and dual multiplier t = ||w||."""
    t = h.norm
    if t == 0.0:
        return DroVariables(np.zeros_like(h.w), h.b, 0.0)
    return DroVariables(h.w / t, h.b / t, t)


def imputed_epsilon(reg_weight_bar: float, h: Hyperplane) -> float:
    """Wasserstein radius implied by a squared-norm solution: eps_bar * ||w||."""
    if not 0.0 <= reg_weight_bar < np.inf:
        raise ValueError(f"reg_weight_bar must be nonnegative and finite, got {reg_weight_bar}")
    return reg_weight_bar * h.norm
