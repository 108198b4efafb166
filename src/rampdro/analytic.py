"""Numerical certification of the uniform-data model in two dimensions.

The population objective under study is

    F(w) = eps/2 * ||w||^2 + E[ L(w1 * r + w2 * x2) ],
    r ~ U(0, 1),  x2 ~ U(-1, 1),

with L the ramp loss.  Because L is piecewise affine, the expectation splits
the rectangle [0,1] x [-1,1] along the two lines w1*r + w2*x2 = 0 and = 1:
the loss is constant 1 below the first line, affine in between, and 0 above
the second.  Clipping the rectangle against those half-planes and applying
the shoelace moment formulas integrates each piece exactly, which is what
lets the stationarity residuals be resolved to 1e-8 and beyond (Monte Carlo
or fixed quadrature cannot get close).  The clip works on arrays of w: a
polygon is its set of directed boundary segments, so a clip trims each
segment and adds one closing segment, the rectangle's 4 segments become 5
and then 6, and w = 0 needs no special case.  Midpoint quadrature remains
only as an independent cross-check.

The band moments do not depend on eps: the residual is eps*w - m(w)/2.  So
the stationary-point scan computes the moments once per grid row for every
eps it certifies, and refines all seeds of all eps in lockstep, one moment
evaluation per round, each seed on its own compass trajectory.

Known closed forms certified here: the objective restricted to the first
axis, the unique stationary point w1 = (2 eps)^(-1/3) (for eps <= 1/2) or
1/(2 eps) (for eps > 1/2) with w2 = 0, the minimum value 3*(eps/32)^(1/3) or
1 - 1/(8 eps), and the origin's one-sided derivatives -1/2 along +e1 and 0
along -e1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import LossKind, LossSpec
from .objective import ObjectiveSpec, evaluate_with_gradient

__all__ = [
    "UniformModel",
    "f_epsilon",
    "f_epsilon_quadrature",
    "stationarity_residual",
    "origin_directional_derivative",
    "origin_directional_derivatives",
    "scan_stationary_points",
    "label_flip_balance",
    "closed_form_minimizer",
]

_DEGENERATE_NORM = 1e-10

# the rectangle [0,1] x [-1,1] as its CCW boundary segments p -> q
_RECT_P = np.array([(0.0, -1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 1.0)])
_RECT_Q = np.roll(_RECT_P, -1, axis=0)

# refinement acceptance: residual must essentially vanish, and the point
# must sit away from the excluded origin (where the gradient formula does
# not apply; the origin is handled by the directional-derivative routine)
_ACCEPT_RESIDUAL = 1e-8
_ACCEPT_MIN_NORM = 1e-4
_MERGE_RADIUS = 1e-5

# compass directions of the refinement, in tie-breaking order, and its
# round cap
_COMPASS = np.array(
    [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float
)
_MAX_ROUNDS = 500

# difference steps of the one-sided derivatives at the origin
_ORIGIN_STEPS = (1e-3, 1e-4, 1e-5)


@dataclass(frozen=True)
class UniformModel:
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")


def _clip(p, q, a, b, c):
    # Keep the part of a convex polygon with a*u + b*v <= c.  The polygon is
    # its directed boundary segments p -> q (segments on axis -2, the point
    # on axis -1).  Each segment is trimmed to the half-plane, to zero length
    # when wholly outside, and one closing segment runs along the line from
    # the exit to the entry point (zero length when nothing crosses).
    a, b = a[..., None], b[..., None]
    sp = a * p[..., 0] + b * p[..., 1] - c
    sq = a * q[..., 0] + b * q[..., 1] - c
    p_in, q_in = (sp <= 0.0)[..., None], (sq <= 0.0)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):  # x is used only where p_in != q_in
        x = p + (sp / (sp - sq))[..., None] * (q - p)
    exit_point = np.where(p_in & ~q_in, x, 0.0).sum(axis=-2, keepdims=True)
    entry_point = np.where(q_in & ~p_in, x, 0.0).sum(axis=-2, keepdims=True)
    return (
        np.concatenate([np.where(p_in, p, np.where(q_in, x, 0.0)), exit_point], axis=-2),
        np.concatenate([np.where(q_in, q, np.where(p_in, x, 0.0)), entry_point], axis=-2),
    )


def _moments(p, q):
    # area and the integrals of (u, v) over a polygon given by its segments
    cross = p[..., 0] * q[..., 1] - q[..., 0] * p[..., 1]
    return 0.5 * cross.sum(axis=-1), ((p + q) * cross[..., None]).sum(axis=-2) / 6.0


def _band_moments(w1, w2):
    """Area of {s >= 0}, and area, integral of u and integral of v over the
    band {0 <= s <= 1}, within the rectangle; s = w1*u + w2*v, w1 and w2
    broadcast against each other.
    """
    w1, w2 = np.broadcast_arrays(np.asarray(w1, dtype=float), np.asarray(w2, dtype=float))
    upper = _clip(_RECT_P, _RECT_Q, -w1, -w2, 0.0)
    area_band, m = _moments(*_clip(*upper, w1, w2, 1.0))
    return _moments(*upper)[0], area_band, m[..., 0], m[..., 1]


def _residual(epsilon, w1, w2):
    # gradient components of F away from the origin; epsilon broadcasts
    # against the moments, which do not depend on it
    _, _, mu, mv = _band_moments(w1, w2)
    return epsilon * w1 - 0.5 * mu, epsilon * w2 - 0.5 * mv


def _residual_norm(epsilon, w1, w2):
    r1, r2 = _residual(epsilon, w1, w2)
    return np.maximum(np.abs(r1), np.abs(r2))


def f_epsilon(model: UniformModel, w) -> float:
    """Population objective by exact piecewise integration."""
    w1, w2 = float(w[0]), float(w[1])
    reg = 0.5 * model.epsilon * (w1 * w1 + w2 * w2)
    area_upper, area_band, mu, mv = _band_moments(w1, w2)
    expected = 0.5 * (2.0 - area_upper + area_band - w1 * mu - w2 * mv)
    return reg + float(expected)


def f_epsilon_quadrature(model: UniformModel, w, grid: int) -> float:
    """Composite-midpoint evaluation of the same objective (cross-check path)."""
    w1, w2 = float(w[0]), float(w[1])
    reg = 0.5 * model.epsilon * (w1 * w1 + w2 * w2)
    r = (np.arange(grid) + 0.5) / grid
    x2 = -1.0 + (np.arange(grid) + 0.5) * (2.0 / grid)
    total = 0.0
    for ri in r:  # row at a time to bound memory at large grids
        total += float(np.clip(1.0 - (w1 * ri + w2 * x2), 0.0, 1.0).sum())
    return reg + total / (grid * grid)


def stationarity_residual(model: UniformModel, w) -> np.ndarray:
    """Gradient of F at w != 0, via the same exact integration.

    Components: (eps*w1 - E[1(0 < s < 1) r], eps*w2 - E[1(0 < s < 1) x2])
    where s = w1*r + w2*x2.  The origin is rejected: the population loss is
    not differentiable there.
    """
    w1, w2 = float(w[0]), float(w[1])
    if math.hypot(w1, w2) < _DEGENERATE_NORM:
        raise ValueError("stationarity residual is undefined at w = 0")
    return np.array(_residual(model.epsilon, w1, w2), dtype=float)


def origin_directional_derivative(model: UniformModel, direction) -> float:
    """Richardson-extrapolated one-sided derivative of F at the origin."""
    u = np.asarray(direction, dtype=float)
    f0 = f_epsilon(model, np.zeros(2))
    d = [(f_epsilon(model, a * u) - f0) / a for a in _ORIGIN_STEPS]
    # the steps decrease by a fixed factor; two Richardson levels kill the
    # O(alpha) and O(alpha^2) error terms
    ratio = _ORIGIN_STEPS[0] / _ORIGIN_STEPS[1]
    e1 = (ratio * d[1] - d[0]) / (ratio - 1.0)
    e2 = (ratio * d[2] - d[1]) / (ratio - 1.0)
    return (ratio**2 * e2 - e1) / (ratio**2 - 1.0)


def origin_directional_derivatives(model: UniformModel):
    """Derivatives along (1, 0) and (-1, 0); the certified values are -1/2, 0."""
    return (
        origin_directional_derivative(model, (1.0, 0.0)),
        origin_directional_derivative(model, (-1.0, 0.0)),
    )


def refine_candidate(epsilons, seeds, half_width: float):
    """Compass-shrink minimization of the residual norm from seed cells.

    ``epsilons`` holds one ε per seed, shape (k,), and ``seeds`` the seed
    points, shape (k, 2).  All seeds advance in lockstep, with one band-moment
    evaluation per round, but each keeps its own trajectory: a round
    evaluates the eight compass points at its distance h and moves to the
    best one (ties in ``_COMPASS`` order) that improves, or halves h when
    none does, until h <= 1e-13 or 500 rounds.  The result for a seed does
    not depend on the others.  Returns the refined points, shape (k, 2), and
    their residual norms, shape (k,).  Genuine roots collapse to residuals
    near machine precision; spurious sub-threshold cells either stall at a
    positive residual or slide into the excluded origin, and both outcomes
    fail the acceptance test in the scan.
    """
    eps = np.asarray(epsilons, dtype=float).reshape(-1)
    best = np.array(seeds, dtype=float).reshape(-1, 2)
    if eps.shape[0] != best.shape[0]:
        raise ValueError(f"need one epsilon per seed, got {eps.shape[0]} and {best.shape[0]}")
    best_res = _residual_norm(eps, best[:, 0], best[:, 1])
    h = np.full(eps.shape, float(half_width))
    live = np.arange(eps.size)
    for _ in range(_MAX_ROUNDS):
        live = live[h[live] > 1e-13]
        if live.size == 0:
            break
        cand = best[live, None, :] + h[live, None, None] * _COMPASS
        res = _residual_norm(eps[live, None], cand[..., 0], cand[..., 1])
        res[np.hypot(cand[..., 0], cand[..., 1]) < _DEGENERATE_NORM] = np.inf
        rows, k = np.arange(live.size), np.argmin(res, axis=1)
        step = res[rows, k]
        moved = step < best_res[live]
        best[live[moved]] = cand[rows, k][moved]
        best_res[live[moved]] = step[moved]
        h[live[~moved]] *= 0.5
    return best, best_res


def scan_stationary_points(models, box=(-3.0, 3.0), grid: int = 300) -> list[np.ndarray]:
    """Locate stationary points of F inside ``box`` x ``box`` for each model.

    Takes a sequence of ``UniformModel`` and returns one array of shape
    (k, 2), sorted by w1, per model and in the same order.  The band moments
    behind the residual do not depend on ε, so the grid is walked once, row
    by row, and each row's moments give every model's residual
    infinity-norms, εw - m/2.  Cells whose norm is at most 10 cell widths
    and a minimum of their 3 x 3 neighbourhood (the origin and the box's
    outside count as inf) seed a refinement; only a rolling window of three
    rows per model is held.  All seeds of all models refine together in one
    lockstep ``refine_candidate`` call.  Refined points whose residual drops
    below 1e-8 away from the origin are kept, and duplicates within 1e-5
    are merged in seed order.
    """
    if grid < 100:
        raise ValueError(f"grid must be >= 100, got {grid}")
    lo, hi = float(box[0]), float(box[1])
    if not 0.0 < hi - lo < math.inf:
        raise ValueError(f"box must have positive finite width, got {lo} to {hi}")
    eps = np.array([model.epsilon for model in models], dtype=float)
    axis = np.linspace(lo, hi, grid)
    cell = (hi - lo) / grid
    threshold = 10.0 * cell

    edge = np.full((eps.size, grid + 2), np.inf)

    def padded_rows():
        # each grid row's residual norms for every model, in a ring of inf
        for w1 in axis:
            row = edge.copy()
            inner = row[:, 1:-1]
            inner[...] = _residual_norm(eps[:, None], w1, axis)
            inner[:, np.hypot(w1, axis) < _DEGENERATE_NORM] = np.inf
            yield row
        yield edge

    # seed refinement at sub-threshold cells that are grid-local minima
    seeds = [[] for _ in eps]
    rows = padded_rows()
    above, here = edge, next(rows)
    for w1, below in zip(axis, rows):
        column = np.minimum(np.minimum(above, here), below)
        local_min = np.minimum(np.minimum(column[:, :-2], column[:, 1:-1]), column[:, 2:])
        inner = here[:, 1:-1]
        for m, j in zip(*np.nonzero((inner <= threshold) & (inner <= local_min))):
            seeds[m].append((w1, axis[j]))
        above, here = here, below

    owner = np.repeat(np.arange(eps.size), [len(s) for s in seeds])
    points, residuals = refine_candidate(eps[owner], [p for s in seeds for p in s], cell)

    found = []
    for m in range(eps.size):
        accepted = []
        for point, res in zip(points[owner == m], residuals[owner == m]):
            if res <= _ACCEPT_RESIDUAL and np.linalg.norm(point) >= _ACCEPT_MIN_NORM:
                for other in accepted:
                    if np.linalg.norm(other - point) <= _MERGE_RADIUS:
                        break
                else:
                    accepted.append(point)
        accepted.sort(key=lambda p: (p[0], p[1]))
        found.append(np.array(accepted) if accepted else np.empty((0, 2)))
    return found


def closed_form_minimizer(epsilon: float):
    """Global minimizer first coordinate and minimum value of F.

    (w1, F) = ((2 eps)^(-1/3), 3 (eps/32)^(1/3)) for eps <= 1/2, and
    (1/(2 eps), 1 - 1/(8 eps)) for eps > 1/2; w2 = 0 in both regimes.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if epsilon <= 0.5:
        return (2.0 * epsilon) ** (-1.0 / 3.0), 3.0 * (epsilon / 32.0) ** (1.0 / 3.0)
    return 1.0 / (2.0 * epsilon), 1.0 - 1.0 / (8.0 * epsilon)


def label_flip_balance(ds, h, sigma: float):
    """Per-coordinate mass of the stationarity balance for the smoothed ramp.

    Returns (first coordinate, remaining coordinates) of
    -sum_i p_i psi'(y_i (<w, x_i> + b)) y_i x_i, the vector that a
    stationary w must be proportional to.  With labels y = sign(x1), every
    term pushes the first coordinate the same way while the others largely
    cancel, which is the mechanism behind the flip-robustness results.
    This is minus the w-part of the unregularized empirical gradient, so a
    nonpositive ``sigma`` is rejected by ``LossSpec``.
    """
    spec = ObjectiveSpec(LossSpec(LossKind.SMOOTHED_RAMP, sigma))
    _, grad = evaluate_with_gradient(spec, ds, h)
    balance = -grad[:-1]
    return float(balance[0]), balance[1:]
