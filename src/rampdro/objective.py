"""Empirical training objectives: weighted loss plus norm regularization.

Two regularizers are supported: the plain Euclidean norm (weight epsilon,
the Wasserstein-radius form) and half the squared norm (weight epsilon-bar,
the smooth form actually handed to the solvers).  The intercept b is never
regularized.  The empirical risk uses the dataset weights p_i, which reduce
to 1/n for uniformly weighted data.

The weighted sum is evaluated in a single vectorized pass (one chunk), so
repeated evaluations at the same point are bit-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Hyperplane
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


def _margins(ds, w: np.ndarray, b: float) -> np.ndarray:
    return ds.labels * (ds.points @ w + b)


def _reg_value(spec: ObjectiveSpec, w: np.ndarray) -> float:
    if spec.reg_kind is RegKind.SQUARED_NORM:
        return 0.5 * spec.reg_weight * float(w @ w)
    return spec.reg_weight * float(np.linalg.norm(w))


def evaluate(spec: ObjectiveSpec, ds, h: Hyperplane) -> float:
    """Objective value; works for every loss, including the exact ramp."""
    risk = float(ds.weights @ spec.loss.value(_margins(ds, h.w, h.b)))
    return _reg_value(spec, h.w) + risk


def evaluate_with_gradient(spec: ObjectiveSpec, ds, h: Hyperplane):
    """Objective value and its gradient stacked as (d + 1,): d/dw then d/db.

    Requires a smoothed loss; for the NORM regularizer also w != 0 (the norm
    is not differentiable at the origin).
    """
    if not spec.loss.smooth:
        raise ValueError("gradient requested for the non-smooth ramp loss")
    w, b = h.w, h.b
    r = _margins(ds, w, b)
    value = _reg_value(spec, w) + float(ds.weights @ spec.loss.value(r))

    coeff = ds.weights * spec.loss.deriv(r) * ds.labels
    grad_w = ds.points.T @ coeff
    grad_b = float(coeff.sum())
    if spec.reg_kind is RegKind.SQUARED_NORM:
        grad_w = grad_w + spec.reg_weight * w
    else:
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            raise ValueError("norm regularizer is not differentiable at w = 0")
        grad_w = grad_w + spec.reg_weight * w / norm
    return value, np.concatenate([grad_w, [grad_b]])


def objective_function(spec: ObjectiveSpec, ds):
    """Solver-facing closure: z = (w, b) stacked -> (value, gradient)."""

    def fun(z: np.ndarray):
        z = np.asarray(z, dtype=float)
        return evaluate_with_gradient(spec, ds, Hyperplane(z[:-1], z[-1]))

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
