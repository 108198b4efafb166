"""Distance-to-misclassification and margin quantities for linear classifiers.

All norms are Euclidean (the feature metric and its dual coincide).  For a
hyperplane (w, b) and a labelled point (x, y), the distance to
misclassification is

    max(0, y * (<w, x> + b)) / ||w||      if w != 0,
    +inf                                   if w == 0 and y * b > 0,
    0                                      if w == 0 and y * b <= 0.

It is zero exactly on misclassified points and is invariant under positive
rescaling of (w, b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import _private

__all__ = [
    "Hyperplane",
    "MarginProfile",
    "GeneralizedMargin",
    "distances",
    "margin_profile",
    "generalized_margin",
    "subset_sums",
    "sin_angle",
]

# rho_bar enumerates all 2^n subset sums up to this n
_EXHAUSTIVE_MAX_N = 20


@dataclass(frozen=True)
class Hyperplane:
    """Owns its ``w``: as a ``Dataset`` does, it adopts a read-only ``w`` that owns its data, else copies."""

    w: np.ndarray
    b: float

    def __post_init__(self):
        w = _private(self.w, 1)
        if w.size < 1:
            raise ValueError("w must have at least one component")
        if not (np.isfinite(w).all() and np.isfinite(self.b)):
            bad = np.flatnonzero(~np.isfinite(w))
            got = f"w[{bad[0]}] = {float(w[bad[0]])}" if bad.size else f"b = {float(self.b)}"
            raise ValueError(f"hyperplane entries must be finite, got {got}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", float(self.b))

    @property
    def norm(self) -> float:
        return _norm(self.w)


@dataclass(frozen=True)
class MarginProfile:
    """Misclassified index set, margin over the rest, misclassified mass.

    ``eta`` is +inf when every point is misclassified (minimum over an empty
    set) and also when w = 0 with all remaining points at infinite distance.
    """

    misclassified: np.ndarray
    eta: float
    misclass_mass: float


class GeneralizedMargin(NamedTuple):
    rho_star: float
    gamma_star: float
    rho_bar: float


def _margins(ds, w: np.ndarray, b: float) -> np.ndarray:
    # y * (X w + b), formed in place in the one array the product allocates;
    # private, so that a traced run adds no span per call.  Every distance,
    # oracle and objective query reads it, so its one shape check is theirs
    if w.size != ds.points.shape[1]:
        raise ValueError(f"hyperplane has {w.size} weights, dataset has d = {ds.points.shape[1]}")
    r = ds.points @ w
    r += b
    r *= ds.labels
    return r


def distances(h: Hyperplane, ds) -> np.ndarray:
    """Vector of distances to misclassification for every dataset point.

    Computed on (w, b) scaled by 2^-k (see ``_pow2_exponent``); a b that
    overflows there is an infinite distance on its side of the hyperplane.
    """
    k = _pow2_exponent(h.w)
    with np.errstate(over="ignore"):
        w, b = np.ldexp(h.w, -k), np.ldexp(h.b, -k)
    norm = float(np.linalg.norm(w))
    scores = _margins(ds, w, b)
    if norm == 0.0:
        return np.where(scores > 0.0, np.inf, 0.0)
    np.maximum(0.0, scores, out=scores)
    scores /= norm
    return scores


def margin_profile(h: Hyperplane, ds) -> MarginProfile:
    """A point is misclassified exactly when its distance is 0, as the ``dro`` oracles count it."""
    dist = distances(h, ds)
    bad = dist == 0.0
    eta = float(dist[~bad].min()) if not bad.all() else float("inf")
    return MarginProfile(
        misclassified=np.flatnonzero(bad),
        eta=eta,
        misclass_mass=float(ds.weights[bad].sum()),
    )


def subset_sums(weights: np.ndarray) -> np.ndarray:
    """All 2^n subset sums, each accumulated in descending-magnitude order."""
    sums = np.zeros(1)
    for w in np.sort(np.asarray(weights, dtype=float))[::-1]:
        sums = np.concatenate([sums, sums + w])
    return sums


def _rho_bar_exhaustive(weights, rho_star: float) -> float:
    above = subset_sums(weights)
    above = above[above > rho_star + 1e-12]
    return float(above.min()) if above.size else float("inf")


def _rho_bar_observed(profiles, weights, rho_star: float) -> float:
    # cheaper proxy for large n: masses seen at the candidates, plus every
    # single-point increment of those masses
    candidates = []
    for prof in profiles:
        mass = prof.misclass_mass
        candidates.append(mass)
        in_set = np.zeros(len(weights), dtype=bool)
        in_set[prof.misclassified] = True
        candidates.extend(mass + weights[~in_set])
    above = np.asarray(candidates)
    above = above[above > rho_star + 1e-12]
    return float(above.min()) if above.size else float("inf")


def generalized_margin(ds, candidates: Sequence[Hyperplane]) -> GeneralizedMargin:
    """Best misclassified mass, best margin at that mass, and the next mass up.

    The classifier family is approximated by the explicit finite candidate
    list, so the returned optimum is exact only when the family's optimum
    lies in that list.  ``rho_bar`` is the smallest achievable subset weight
    strictly above ``rho_star``: exact over all 2^n subsets when n <= 20,
    otherwise approximated from the masses observed at the candidates plus
    single-point increments.
    """
    if not candidates:
        raise ValueError("candidate list must be non-empty")

    profiles = [margin_profile(h, ds) for h in candidates]
    rho_star = min(p.misclass_mass for p in profiles)
    gamma_star = max(
        p.eta for p in profiles if p.misclass_mass <= rho_star + 1e-12
    )
    if ds.n <= _EXHAUSTIVE_MAX_N:
        rho_bar = _rho_bar_exhaustive(ds.weights, rho_star)
    else:
        rho_bar = _rho_bar_observed(profiles, ds.weights, rho_star)
    return GeneralizedMargin(rho_star, gamma_star, rho_bar)


def _pow2_exponent(x: np.ndarray) -> int:
    """The k for which 2^-k brings the largest |entry| of x into [1/2, 1); 0 for x = 0.

    Scaling by 2^-k is exact, so angles and distances keep their bits while
    norms and dot products can no longer overflow or underflow.
    """
    return int(np.frexp(np.max(np.abs(x), initial=0.0))[1])


def _norm(x: np.ndarray) -> float:
    """||x|| with no overflow or underflow in its squares: formed on x scaled by 2^-k (see ``_pow2_exponent``).

    It is inf only when ||x|| itself exceeds the largest float.
    """
    k = _pow2_exponent(x)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(np.ldexp(x, -k)), k))


def sin_angle(u, v) -> float:
    """Sine of the angle between two nonzero finite vectors, in [0, 1].

    With a and b the unit vectors, ||a - b|| = 2 sin(theta/2) and
    ||a + b|| = 2 cos(theta/2), so their product over 2 is sin(theta), with
    an absolute error near 1e-16 from rounding a and b.  sqrt(1 - cos^2) has
    an error floor near 3e-8 at small angles, and reads 0 at 1e-9.  A zero
    or non-finite vector, or two vectors of different lengths, raise
    ``ValueError``.
    """
    u, v = (np.asarray(x, dtype=float).ravel() for x in (u, v))
    if u.size != v.size:
        raise ValueError(f"sin_angle needs vectors of one length, got {u.size} and {v.size}")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("sin_angle needs finite vectors")
    if not (u.any() and v.any()):
        raise ValueError("sin_angle is undefined for zero vectors")
    u, v = np.ldexp(u, -_pow2_exponent(u)), np.ldexp(v, -_pow2_exponent(v))
    a, b = u / np.linalg.norm(u), v / np.linalg.norm(v)
    return min(1.0, float(np.linalg.norm(a - b) * np.linalg.norm(a + b)) / 2.0)
