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

Away from the origin the gradient of F is the residual eps*w - m(w)/2, where
m(w) is the integral of x = (u, v) over the band {0 <= w.x <= 1} of the
rectangle (x has density 1/2 there).  The band moments do not depend on eps,
so every moment evaluation serves every eps being certified.

The stationary-point scan is an exclusion certificate.  For each eps it
proves that every stationary point of F in the box lies in one of the
survivor clusters it reports.  Four facts, derived in
``scan_stationary_points``, carry the proof: no stationary point has
w1 <= 0; none lies beyond R(eps) = (sqrt(5)/(2 eps))^(1/3); inside the disk
||w|| <= 1/sqrt(2) stationarity is a condition on the angle of w alone,
settled by 1-D exclusion; and elsewhere a quadtree drops every cell on which
a proved bound shows the residual cannot vanish.  Each cluster is then
refined to a point.  What is not proved: the bounds are applied to
residuals computed in floating point (about 1e-15 absolute error) without
interval arithmetic, and that a cluster holds only one stationary point,
since no Jacobian argument rules out a second root among its cells, which
are about 2e-7 wide.  Outside the box nothing is certified, which is why
the CLI also requires R(eps) <= box.

Known closed forms certified here: the objective restricted to the first
axis, the unique stationary point w1 = (2 eps)^(-1/3) (for eps <= 1/2) or
1/(2 eps) (for eps > 1/2) with w2 = 0, the minimum value 3*(eps/32)^(1/3) or
1 - 1/(8 eps), and the origin's one-sided derivatives -1/2 along +e1 and 0
along -e1, which have a closed form of their own.
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
    "outer_radius",
    "scan_stationary_points",
    "label_flip_balance",
    "closed_form_minimizer",
]

# the rectangle [0,1] x [-1,1] as its CCW boundary segments p -> q
_RECT_P = np.array([(0.0, -1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 1.0)])
_RECT_Q = np.roll(_RECT_P, -1, axis=0)

# the rectangle's diameter (its longest chord), and the radius within which
# w.x <= 1 on all of it, so that the band is a half-plane
_RECT_DIAMETER = math.sqrt(5.0)
_INNER_RADIUS = math.sqrt(0.5)

# exclusion tree: quadtree and angle intervals stop at this half-width, cells
# are evaluated at most this many at a time, and an eps whose live cells at
# one level exceed the cap is given up rather than filling memory
_LEAF_HALF_WIDTH = 1e-7
_CHUNK_CELLS = 512
_MAX_LIVE_CELLS = 1_000_000
_CHILD_I = np.array([0.0, 1.0, 0.0, 1.0])
_CHILD_J = np.array([0.0, 0.0, 1.0, 1.0])

# angle analysis of the inner disk: root intervals on [-pi/2, pi/2], and the
# Lipschitz constant of g(theta) and of e.m(theta) (see scan_stationary_points)
_THETA_ROOT_INTERVALS = 64
_THETA_LIPSCHITZ = 2.0 * math.sqrt(2.0)

# a refined cluster counts as a point when its residual essentially vanishes
_ACCEPT_RESIDUAL = 1e-8

# compass directions of the refinement, in tie-breaking order, and its
# round cap
_COMPASS = np.array(
    [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float
)
_MAX_ROUNDS = 500


@dataclass(frozen=True)
class UniformModel:
    epsilon: float

    def __post_init__(self):
        # the stationary points sit at |w| ~ 1/(2 eps), so 2 eps must be finite;
        # doubled as a Python float, a numpy scalar overflows without a warning
        eps = float(self.epsilon)
        if not 0.0 < 2.0 * eps < math.inf:
            raise ValueError(
                f"epsilon must be positive with 2 * epsilon finite, got {self.epsilon}"
            )


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


def _half_plane_moments(theta):
    # (m_u, m_v) over {e(theta).x >= 0}: the band at radius 1/2 is that
    # half-plane, since 1/2 <= 1/sqrt(2)
    _, _, mu, mv = _band_moments(0.5 * np.cos(theta), 0.5 * np.sin(theta))
    return mu, mv


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
    if w1 == 0.0 and w2 == 0.0:
        raise ValueError("stationarity residual is undefined at w = 0")
    return np.array(_residual(model.epsilon, w1, w2), dtype=float)


def origin_directional_derivative(model: UniformModel, direction) -> float:
    """One-sided derivative of F at the origin along ``direction``, in closed form.

    For 0 < t <= 1/(sqrt(2) ||u||), t*u.x <= 1 on the whole rectangle, so
    the loss is 1 - t*u.x on the half-plane {u.x >= 0} and 1 elsewhere:
    F(t u) = eps t^2 ||u||^2 / 2 + 1 - (t/2) u.m(u/||u||), with m the
    half-plane moment.  The derivative at t = 0+ is therefore
    -u.m(u/||u||)/2, whatever eps; m is read from one band-moment evaluation
    at radius 1/2, where the band is that half-plane.  A zero or non-finite
    direction raises ``ValueError``.
    """
    u1, u2 = (float(c) for c in np.asarray(direction, dtype=float).reshape(2))
    norm = math.hypot(u1, u2)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"direction must be finite and nonzero, got ({u1}, {u2})")
    _, _, mu, mv = _band_moments(0.5 * u1 / norm, 0.5 * u2 / norm)
    # adding 0.0 turns the -0.0 of an empty half-plane into 0.0
    return -0.5 * (u1 * float(mu) + u2 * float(mv)) + 0.0


def origin_directional_derivatives(model: UniformModel):
    """Derivatives along (1, 0) and (-1, 0); the certified values are -1/2, 0."""
    return (
        origin_directional_derivative(model, (1.0, 0.0)),
        origin_directional_derivative(model, (-1.0, 0.0)),
    )


def outer_radius(epsilon: float) -> float:
    """R(eps) = (sqrt(5)/(2 eps))^(1/3): F has no stationary point beyond it.

    See ``scan_stationary_points`` for the derivation.  It is 2.24 at
    eps = 0.1 and 10.4 at eps = 0.001.
    """
    return (_RECT_DIAMETER / (2.0 * epsilon)) ** (1.0 / 3.0)


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
    near machine precision; spurious seeds stall at a positive residual or
    slide toward the origin, where the gradient formula does not apply.
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
        res[(cand[..., 0] == 0.0) & (cand[..., 1] == 0.0)] = np.inf
        rows, k = np.arange(live.size), np.argmin(res, axis=1)
        step = res[rows, k]
        moved = step < best_res[live]
        best[live[moved]] = cand[rows, k][moved]
        best_res[live[moved]] = step[moved]
        h[live[~moved]] *= 0.5
    return best, best_res


def _quadtree_leaves(eps, lo, width, grid, levels):
    """Leaf cells of the annulus exclusion tree (see ``scan_stationary_points``).

    A cell at level l is an integer pair (i, j) with centre
    lo + (i + 1/2, j + 1/2) * width / 2^l.  i and j are held as float64,
    exact below 2^52, so that no step casts integers to floats (each cast
    takes a 64 KB buffer, which shows in peak memory).  Returns the leaf
    cells' i and j, a (n, k) mask of the eps each may still hold a
    stationary point for, and a (k,) mask of the eps given up at the
    live-cell cap.
    """
    radius = np.array([outer_radius(e) for e in eps])
    active = np.ones(eps.size, dtype=bool)
    live = np.zeros(eps.size, dtype=np.int64)
    empty = (np.empty(0), np.empty(0), np.empty((0, eps.size), dtype=bool))

    def evaluate(i, j, mask, level):
        # at most _CHUNK_CELLS cells: drop the half-plane w1 <= 0 and the
        # inner disk for every eps, each eps beyond its R(eps), then each eps
        # whose residual bound excludes the cell
        w = width * 0.5**level
        h = 0.5 * w
        c1, c2 = lo + (i + 0.5) * w, lo + (j + 0.5) * w
        a1, a2 = np.abs(c1), np.abs(c2)
        r_min = np.hypot(np.maximum(a1 - h, 0.0), np.maximum(a2 - h, 0.0))
        mask = mask & active & (r_min[:, None] <= radius)
        mask &= ((c1 + h > 0.0) & (np.hypot(a1 + h, a2 + h) > _INNER_RADIUS))[:, None]
        rows = mask.any(axis=1)
        if not rows.any():
            return empty
        i, j, c1, c2, r_min, mask = i[rows], j[rows], c1[rows], c2[rows], r_min[rows], mask[rows]
        _, _, mu, mv = _band_moments(c1, c2)
        res = np.hypot(eps * c1[:, None] - 0.5 * mu[:, None], eps * c2[:, None] - 0.5 * mv[:, None])
        with np.errstate(divide="ignore"):  # a cell touching the origin is never excluded
            bound = (eps + 2.0 * _RECT_DIAMETER / r_min[:, None]) * (h * math.sqrt(2.0))
        mask &= ~(res > bound)
        rows = mask.any(axis=1)
        live[:] += [np.count_nonzero(column) for column in mask.T]
        active[live > _MAX_LIVE_CELLS] = False
        return i[rows], j[rows], mask[rows]

    def gather(parts):
        i, j, mask = (np.concatenate(a) for a in zip(*parts))
        mask &= active
        rows = mask.any(axis=1)
        return i[rows], j[rows], mask[rows]

    parts = [empty]
    for row in range(grid):
        if lo + (row + 0.5) * width + 0.5 * width <= 0.0:
            continue  # the whole row lies in w1 <= 0
        for start in range(0, grid, _CHUNK_CELLS):
            j = np.arange(start, min(start + _CHUNK_CELLS, grid), dtype=float)
            parts.append(evaluate(np.full_like(j, row), j, np.ones((j.size, eps.size), dtype=bool), 0))
    i, j, mask = gather(parts)
    step = _CHUNK_CELLS // 4
    for level in range(1, levels + 1):
        live[:] = 0
        parts = [empty]
        for start in range(0, i.size, step):
            parents = slice(start, start + step)
            parts.append(evaluate(
                (2.0 * i[parents, None] + _CHILD_I).ravel(),
                (2.0 * j[parents, None] + _CHILD_J).ravel(),
                np.repeat(mask[parents], 4, axis=0),
                level,
            ))
        i, j, mask = gather(parts)
    return i, j, mask, ~active


def _theta_root_clusters():
    """Clusters of angle intervals that may hold a root of g on [-pi/2, pi/2].

    Returns (centre, half-width) pairs, one per run of adjacent leaf
    intervals (half-width <= 1e-7).  An interval of half-width h is dropped
    when |g(centre)| > 2 sqrt(2) h.
    """
    width = math.pi / _THETA_ROOT_INTERVALS
    idx = np.arange(_THETA_ROOT_INTERVALS, dtype=float)
    while True:
        theta = -0.5 * math.pi + (idx + 0.5) * width
        mu, mv = _half_plane_moments(theta)
        g = np.cos(theta) * mv - np.sin(theta) * mu
        idx = idx[~(np.abs(g) > _THETA_LIPSCHITZ * 0.5 * width)]
        if 0.5 * width <= _LEAF_HALF_WIDTH:
            break
        idx = (2.0 * idx[:, None] + np.array([0.0, 1.0])).ravel()
        width *= 0.5
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1) if idx.size else []
    return [
        (-0.5 * math.pi + 0.5 * (run[0] + run[-1] + 1) * width, 0.5 * (run[-1] + 1 - run[0]) * width)
        for run in runs
    ]


def _components(i, j):
    """Labels of the 8-connected components of lattice cells (i, j), in cell order."""
    cells = list(zip(i.tolist(), j.tolist()))
    index = {cell: n for n, cell in enumerate(cells)}
    labels = np.full(len(cells), -1)
    count = 0
    for n, cell in enumerate(cells):
        if labels[n] >= 0:
            continue
        labels[n] = count
        stack = [cell]
        while stack:
            a, b = stack.pop()
            for neighbour in ((a + da, b + db) for da in (-1, 0, 1) for db in (-1, 0, 1)):
                m = index.get(neighbour)
                if m is not None and labels[m] < 0:
                    labels[m] = count
                    stack.append(neighbour)
        count += 1
    return labels, count


def _touches(ball, cells, h):
    # whether a disk (centre, radius) meets any closed square cell of half-width h
    centre, radius = ball
    gap = np.maximum(np.abs(cells - centre) - h, 0.0)
    return bool(np.any(np.hypot(gap[:, 0], gap[:, 1]) <= radius))


def _bounding_centre(cells, h, balls):
    lows = [centre - radius for centre, radius in balls]
    highs = [centre + radius for centre, radius in balls]
    if cells.size:
        lows.append(cells.min(axis=0) - h)
        highs.append(cells.max(axis=0) + h)
    return 0.5 * (np.min(lows, axis=0) + np.max(highs, axis=0))


def _inside(point, cells, reach, balls):
    # in a cell of half-width reach, or in a disk
    if np.any(np.max(np.abs(cells - point), axis=1) <= reach):
        return True
    return any(math.hypot(*(point - centre)) <= radius for centre, radius in balls)


def scan_stationary_points(models, box=(-3.0, 3.0), grid: int = 300) -> list[np.ndarray]:
    """Locate every stationary point of F inside ``box`` x ``box``, for each model.

    Takes a sequence of ``UniformModel`` and returns one array of shape
    (k, 2), sorted by w1, per model and in the same order.  What is proved:
    every stationary point in the box lies in a survivor cluster, and each
    reported point is a cluster's refined point, with residual <= 1e-8,
    inside its cluster and inside the box.  An eps whose certificate does
    not close (a cluster whose refined point fails that test, or more than
    ``_MAX_LIVE_CELLS`` live cells at one level) gets an empty array.  What
    is not proved: that a cluster holds only one stationary point, and
    rounding in the computed residuals (see the module docstring).  The
    exclusions below share one moment evaluation per cell across all eps.

    Write x = (u, v) on the rectangle [0,1] x [-1,1] and the residual
    res(w) = eps w - m(w)/2 with m(w) the integral of x over the band
    B(w) = {0 <= w.x <= 1}.

    Half-plane.  u >= 0, so m_u >= 0 and res_1 = eps w1 - m_u/2 <= 0 when
    w1 <= 0.  Equality needs w1 = 0 and m_u = 0; but for w = (0, w2) with
    w2 != 0 the band {0 <= w2 v <= 1} has positive area, so m_u > 0.  Hence
    every stationary point has w1 > 0, and cells with c1 + h <= 0 are
    dropped without evaluation.

    Outer radius.  On the band w.x <= 1, and the band is a strip of width
    1/||w|| whose chords in the rectangle are at most its diameter sqrt(5)
    long, so its area is at most sqrt(5)/||w||.  The radial residual is
    then w.res/||w|| = eps ||w|| - (integral of w.x over B)/(2 ||w||)
    >= eps ||w|| - sqrt(5)/(2 ||w||^2) > 0 for ||w|| > R(eps) =
    (sqrt(5)/(2 eps))^(1/3).  Cells whose nearest point lies beyond R(eps)
    are dropped for that eps.

    Inner disk.  For ||w|| <= 1/sqrt(2), w.x <= max(w1, 0) + |w2|
    <= sqrt(2) ||w|| <= 1 on the rectangle, so B(w) is the half-plane
    H(theta) = {e.x >= 0}, e = (cos theta, sin theta) the direction of w,
    and m = m(theta).  The residual vanishes at w = rho e exactly when
    g(theta) = e_perp.m(theta) = 0 (e_perp = (-sin theta, cos theta)) and
    rho = e.m(theta)/(2 eps) <= 1/sqrt(2); then w = m(theta)/(2 eps), and
    theta lies in (-pi/2, pi/2) by the half-plane fact.  The line e.x = 0
    meets the rectangle in a segment from the origin of length
    l(theta) = min(1/|sin theta|, 1/cos theta) <= sqrt(2), and moving the
    boundary of H gives m'(theta) = (l^3/3) e_perp, so ||m'|| <= 2 sqrt(2)/3,
    (e.m)' = g and g' = -e.m + l^3/3.  Both e.m and |g| are at most
    ||m|| <= (area 2) * (max ||x|| = sqrt(2)) = 2 sqrt(2), and l^3/3 <=
    2 sqrt(2)/3, so g and e.m are 2 sqrt(2)-Lipschitz.  An angle interval of
    half-width h is dropped when |g(centre)| > 2 sqrt(2) h; down to
    half-width 1e-7 this leaves the root theta = 0 (g is odd), which is the
    same for every eps.  A surviving cluster of half-width h holds a disk
    point for eps only if e.m(centre) - 2 sqrt(2) h <= sqrt(2) eps; the
    point then lies within sqrt(2) h/(3 eps) of m(centre)/(2 eps).  Every
    eps >= 1/sqrt(2) has its minimizer (1/(2 eps), 0) in this disk.

    Annulus.  The box is tiled by ``grid`` x ``grid`` square cells,
    generated and evaluated row by row; each surviving cell splits into four,
    evaluated in chunks of at most 512, down to half-width 1e-7.  Cells
    wholly inside the inner disk are left to the angle analysis.  Where it
    is smooth, m has derivative
    Dm(w) d = (1/||w||) [J_0 - J_1](d), J_s(d) = integral over the chord
    {w.x = s} of x (d.x), by moving the two band edges; ||x (d.x)||
    <= ||x||^2 ||d|| <= 2 ||d|| and chords are at most sqrt(5) long, so
    ||Dm(w)|| <= 4 sqrt(5)/||w||.  m is continuous away from 0, so
    integrating along the segment from a cell's centre c gives
    ||res(w) - res(c)|| <= (eps + 2 sqrt(5)/r_min) ||w - c|| in the cell,
    r_min the cell's smallest ||w||.  A cell is dropped for eps when
    ||res(c)||_2 > (eps + 2 sqrt(5)/r_min) * half-diagonal.  On 800k random
    (cell, point) pairs, eps in [1e-3, 10] and cells of half-width 1e-7 to
    0.3 at r_min > 1e-3, ||res(w) - res(c)|| reached at most 0.93 of
    (eps + 2 sqrt(5)/r_min) ||w - c||: the bound is tight to within 8 %.

    Survivors become points.  Connected leaf cells (sharing an edge or a
    corner) form a cluster, and a disk point region that touches a cluster
    merges into it.  One lockstep ``refine_candidate`` call starts from
    every cluster's bounding-box centre at half-width 1e-7.
    """
    if grid < 100:
        raise ValueError(f"grid must be >= 100, got {grid}")
    lo, hi = float(box[0]), float(box[1])
    if not 0.0 < hi - lo < math.inf:
        raise ValueError(f"box must have positive finite width, got {lo} to {hi}")
    width = (hi - lo) / grid
    levels, half = 0, 0.5 * width
    while half > _LEAF_HALF_WIDTH:
        levels, half = levels + 1, 0.5 * half
    if grid << levels > 2**52:
        raise ValueError(f"box {lo} to {hi} is too wide for leaf cells of half-width {_LEAF_HALF_WIDTH}")
    eps = np.array([model.epsilon for model in models], dtype=float)
    leaf_i, leaf_j, leaf_mask, failed = _quadtree_leaves(eps, lo, width, grid, levels)
    leaf_width = width * 0.5**levels

    # the angle roots serve every eps; each may give eps a disk point region
    thetas = _theta_root_clusters()
    angles = np.array([centre for centre, _ in thetas])
    mu, mv = _half_plane_moments(angles)
    along = np.cos(angles) * mu + np.sin(angles) * mv

    # a cluster is its leaf cells (n, 2) and its disk regions [(centre, radius)]
    clusters, owner = [], []
    # plain floats: beyond eps ~ 6e307 the ball radius's 3 * eps overflows,
    # which leaves the radius 0 instead of warning
    for k, e in enumerate(eps.tolist()):
        if failed[k]:
            continue
        sel = leaf_mask[:, k]
        cells = lo + (np.column_stack([leaf_i[sel], leaf_j[sel]]) + 0.5) * leaf_width
        labels, count = _components(leaf_i[sel], leaf_j[sel])
        groups = [(cells[labels == n], []) for n in range(count)]
        for (_, half), m1, m2, em in zip(thetas, mu, mv, along):
            if em - _THETA_LIPSCHITZ * half > math.sqrt(2.0) * e:
                continue  # the point would lie outside the disk
            ball = (np.array([m1, m2]) / (2.0 * e), math.sqrt(2.0) * half / (3.0 * e))
            touched = [_touches(ball, c, 0.5 * leaf_width) for c, _ in groups]
            merged = [g for g, t in zip(groups, touched) if t]
            groups = [g for g, t in zip(groups, touched) if not t]
            groups.append((
                np.concatenate([np.empty((0, 2))] + [c for c, _ in merged]),
                [ball] + [b for _, balls in merged for b in balls],
            ))
        clusters += groups
        owner += [k] * len(groups)

    seeds = np.array([_bounding_centre(c, 0.5 * leaf_width, balls) for c, balls in clusters]).reshape(-1, 2)
    points, residuals = refine_candidate(eps[owner], seeds, _LEAF_HALF_WIDTH)

    # a root on a cell edge may sit a rounding of the box bounds outside
    # both computed neighbours
    reach = 0.5 * leaf_width + 4.0 * np.spacing(max(abs(lo), abs(hi)))
    accepted = [[] for _ in eps]
    for k, (cells, balls), point, res in zip(owner, clusters, points, residuals):
        if not (res <= _ACCEPT_RESIDUAL and _inside(point, cells, reach, balls)):
            failed[k] = True
        elif np.all((lo <= point) & (point <= hi)):
            accepted[k].append(point)
    found = []
    for k in range(eps.size):
        pts = [] if failed[k] else sorted(accepted[k], key=lambda p: (p[0], p[1]))
        found.append(np.array(pts) if pts else np.empty((0, 2)))
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
