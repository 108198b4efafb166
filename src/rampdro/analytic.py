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
or fixed quadrature cannot get close).  The clip works on arrays of w:
each polygon's segment ends are (u, v) pairs of arrays, one row per
coordinate and one column per segment (see ``_clip``), and w = 0 needs no
special case.  Midpoint quadrature remains only as an independent
cross-check.

Away from the origin the gradient of F is the residual eps*w - m(w)/2, where
m(w) is the integral of x = (u, v) over the band {0 <= w.x <= 1} of the
rectangle (x has density 1/2 there).

The stationary-point scan is an exclusion certificate.  For each eps it
proves that every stationary point of F in the plane lies in one of the
survivor clusters it reports.  Four facts, derived in
``scan_stationary_points``, carry the proof: no stationary point has
w1 <= 0; none lies beyond R(eps) = (sqrt(5)/(2 eps))^(1/3); inside the disk
||w|| <= 1/sqrt(2) a closed-form lemma leaves only (1/(2 eps), 0), there
exactly when eps >= 1/sqrt(2); and elsewhere a quadtree on eps's own root
square [-B(eps), B(eps)]^2, which spans R(eps), drops every cell on which a
proved bound shows the residual cannot vanish.  A few Newton steps on the
closed-form Jacobian refine each cluster to a point.  What is not proved:
the bounds are applied to residuals computed in floating point (about 1e-15
absolute error) without interval arithmetic, and that a cluster with leaf
cells holds only one stationary point, since no Jacobian argument rules out
a second root among its cells, which are 2^-23 (about 1.2e-7) wide.  A
cluster that is the disk point alone holds exactly one.

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
    "root_half_width",
    "scan_stationary_points",
    "label_flip_balance",
    "closed_form_minimizer",
]

# the rectangle [0,1] x [-1,1] as its CCW boundary segments p -> q, each
# end a (u, v) pair of rows (see ``_clip``)
_RECT_P = np.array([(0.0, 1.0, 1.0, 0.0), (-1.0, -1.0, 1.0, 1.0)])
_RECT_Q = np.roll(_RECT_P, -1, axis=1)

# the rectangle's diameter (its longest chord), and the radius within which
# w.x <= 1 on all of it, so that the band is a half-plane
_RECT_DIAMETER = math.sqrt(5.0)
_INNER_RADIUS = math.sqrt(0.5)

# exclusion tree: the quadtree stops at this half-width, cells are evaluated
# at most this many at a time, and an eps whose live cells at one level
# exceed the cap is given up rather than filling memory
_LEAF_HALF_WIDTH = 1e-7
_CHUNK_CELLS = 512
_MAX_LIVE_CELLS = 1_000_000
_CHILD_I = np.array([0.0, 1.0, 0.0, 1.0])
_CHILD_J = np.array([0.0, 0.0, 1.0, 1.0])

# a refined cluster counts as a point when its residual essentially vanishes
_ACCEPT_RESIDUAL = 1e-8

# the refinement's Newton steps
_NEWTON_STEPS = 5


@dataclass(frozen=True)
class UniformModel:
    epsilon: float

    def __post_init__(self):
        if not 0.0 < float(self.epsilon) < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")


def _clip(p, q, a, b, c):
    # Keep the part of a convex polygon with a*u + b*v <= c.  The polygon is
    # its directed boundary segments p -> q.  Each of p and q is a (u, v)
    # pair: one array of shape (2, ..., segments), or for the rectangle
    # (2, segments), whose rows 0 and 1 are the u and the v coordinates.
    # Arrays made here are stored segment-major (the segments axis varies
    # slowest), so that a sum over the segments adds whole rows of cells.
    # Each segment is trimmed to the half-plane, to zero length at the
    # origin when wholly outside, and one closing segment, last, runs along
    # the line from the exit to the entry point (zero length when nothing
    # crosses).
    a, b, c = a[..., None], b[..., None], np.asarray(c)[..., None]
    cells, n = np.shape(a)[:-1], np.shape(p)[-1]
    sp, sq = np.empty((2, n) + cells).swapaxes(1, -1)
    np.multiply(a, p[0], out=sp)
    sp += b * p[1]
    sp -= c
    np.multiply(a, q[0], out=sq)
    sq += b * q[1]
    sq -= c
    p_in, q_in = sp <= 0.0, sq <= 0.0
    # the rectangle's (2, segments) pair gains the cells' axes
    grow = (slice(None),) + (None,) * (sp.ndim + 1 - np.ndim(p))
    p, q = p[grow], q[grow]
    with np.errstate(divide="ignore", invalid="ignore"):  # x is used only where p_in != q_in
        x = (q - p) * (sp / (sp - sq))
        x += p
    x_q, x_p = np.where(q_in, x, 0.0), np.where(p_in, x, 0.0)
    clipped_p, clipped_q = np.empty((2, 2, n + 1) + cells).swapaxes(2, -1)
    clipped_p[..., :n] = np.where(p_in, p, x_q)
    clipped_q[..., :n] = np.where(q_in, q, x_p)
    np.where(q_in, 0.0, x_p).sum(axis=-1, out=clipped_p[..., n])  # the exit point
    np.where(p_in, 0.0, x_q).sum(axis=-1, out=clipped_q[..., n])  # the entry point
    return clipped_p, clipped_q


def _moments(p, q):
    # area and the integrals of (u, v) over a polygon given by its segments
    cross = p[0] * q[1]
    cross -= q[0] * p[1]
    m = p + q
    m *= cross
    return 0.5 * cross.sum(axis=-1), m.sum(axis=-1) / 6.0


def _band(w1, w2):
    """The rectangle clipped to {s >= 0}, and that polygon clipped to the band
    {0 <= s <= 1}, each as its segments (see ``_clip``); s = w1*u + w2*v, w1
    and w2 broadcast against each other.  The band polygon's last two
    segments are its chords on s = 0 and s = 1.
    """
    # beyond 2^1000 the clip's sums could overflow, so (w, 1) is scaled by
    # 2^-24 there: the same lines, exactly unless a product is subnormal
    scale = np.where(np.maximum(np.abs(w1), np.abs(w2)) > 2.0**1000, 2.0**-24, 1.0)
    upper = _clip(_RECT_P, _RECT_Q, -scale * w1, -scale * w2, 0.0)
    return upper, _clip(*upper, scale * w1, scale * w2, scale)


def _residual(epsilon, w1, w2):
    # gradient components of F away from the origin, from the band's moments
    mu, mv = _moments(*_band(w1, w2)[1])[1]
    return epsilon * w1 - 0.5 * mu, epsilon * w2 - 0.5 * mv


def _newton_system(epsilon, w1, w2):
    """Residual (f1, f2) at w = (w1, w2), arrays of shape (k,), and its
    Jacobian eps I - Dm(w)/2 as entries (a, b, c, d) row by row, from one
    band evaluation; eps is one float.

    Dm(w) = (M_0 - M_1)/||w||, M_s the integral of x x^T along the band's
    chord on w.x = s (see ``scan_stationary_points``).  Simpson's rule is
    exact for x x^T: a chord p -> q of length l has
    M = (l/6) [p p^T + q q^T + (p + q)(p + q)^T].  A chord that lies along
    an edge of the rectangle is clipped to length 0.  At w = (1, 0), eps =
    1/2's root, that gives the Jacobian from w1 < 1.  On the axis w2 = 0 the
    chord on s = 0 lies along u = 0 and drops out of d; f2 is rounding only
    there, so the step barely reads d.  At a subnormal ||w||, Dm overflows
    to inf and the Newton step is not finite.
    """
    _, (p, q) = _band(w1, w2)
    _, (mu, mv) = _moments(p, q)
    # the two chords' ends as C-ordered (k, chord, 2) arrays, x = (u, v) on
    # the last axis: the einsum's order of summation follows its operands'
    # memory layout
    p, q = (e[..., -2:].transpose(1, 2, 0).copy() for e in (p, q))
    ends = np.stack([p, q, p + q], axis=-2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Dm/2 = (M_0 - M_1)/(2 ||w||), each M by Simpson's rule on e = p, q, p + q
        weight = np.linalg.norm(q - p, axis=-1) * ([1.0, -1.0] / (12.0 * np.hypot(w1, w2))[:, None])
        jac = epsilon * np.eye(2) - np.einsum("kc,kcni,kcnj->kij", weight, ends, ends)
    return (epsilon * w1 - 0.5 * mu, epsilon * w2 - 0.5 * mv), jac.reshape(-1, 4).T


def _finite_point(w):
    w = np.asarray(w, dtype=float).ravel()
    if w.size != 2:
        raise ValueError(f"w must have 2 entries, got {w.size}")
    w1, w2 = float(w[0]), float(w[1])
    if not (math.isfinite(w1) and math.isfinite(w2)):
        raise ValueError(f"w must be finite, got ({w1}, {w2})")
    return w1, w2


def f_epsilon(model: UniformModel, w) -> float:
    """Population objective by exact piecewise integration, at a finite w."""
    w1, w2 = _finite_point(w)
    reg = 0.5 * model.epsilon * (w1 * w1 + w2 * w2)
    upper, band = _band(w1, w2)
    area_band, (mu, mv) = _moments(*band)
    expected = 0.5 * (2.0 - _moments(*upper)[0] + area_band - w1 * mu - w2 * mv)
    return reg + float(expected)


def f_epsilon_quadrature(model: UniformModel, w, grid: int) -> float:
    """Composite-midpoint evaluation of the same objective, integer grid >= 1 cells a side (cross-check path)."""
    if not (grid >= 1 and float(grid).is_integer()):
        raise ValueError(f"grid must be an integer of at least 1, got {grid}")
    w1, w2 = _finite_point(w)
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
    not differentiable there.  So is a non-finite w.
    """
    w1, w2 = _finite_point(w)
    if w1 == 0.0 and w2 == 0.0:
        raise ValueError("stationarity residual is undefined at w = 0")
    return np.array(_residual(model.epsilon, w1, w2), dtype=float)


def origin_directional_derivative(direction) -> float:
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
    _, (mu, mv) = _moments(*_band(0.5 * u1 / norm, 0.5 * u2 / norm)[1])
    # adding 0.0 turns the -0.0 of an empty half-plane into 0.0
    return -0.5 * (u1 * float(mu) + u2 * float(mv)) + 0.0


def origin_directional_derivatives():
    """Derivatives along (1, 0) and (-1, 0); the certified values are -1/2, 0."""
    return origin_directional_derivative((1.0, 0.0)), origin_directional_derivative((-1.0, 0.0))


def outer_radius(epsilon: float) -> float:
    """R(eps) = (sqrt(5)/(2 eps))^(1/3): F has no stationary point beyond it.

    See ``scan_stationary_points`` for the derivation.  It is 2.24 at
    eps = 0.1 and 10.4 at eps = 0.001.  The quotient is formed as
    (sqrt(5)/2)/eps, the same bits as sqrt(5)/(2 eps) wherever 2 eps is
    finite, and still positive beyond.
    """
    return (0.5 * _RECT_DIAMETER / epsilon) ** (1.0 / 3.0)


def root_half_width(epsilons) -> float:
    """The smallest power of two above every R(eps), if all R(eps) < 2^28 (eps > ~5.8e-26)."""
    eps = [float(e) for e in epsilons]
    radius = max((outer_radius(e) for e in eps), default=0.0)
    if not radius < 2.0**28:
        raise ValueError(f"epsilon {min(eps)} is too small: its outer radius {radius} is not below {2.0**28}")
    return math.ldexp(1.0, math.frexp(radius)[1])


def refine_candidate(epsilon: float, seeds):
    """Newton refinement of the residual at one eps from seeds, shape (k, 2).

    Each of ``_NEWTON_STEPS`` steps evaluates the residual and its
    closed-form Jacobian at the iterates, in one band evaluation, and solves
    the 2 x 2 system.  Each smooth piece of the residual vanishes at eps =
    1/2's root w = (1, 0), where the Jacobian jumps, so the one-sided
    Jacobians converge from either side.  A singular system, or one whose
    determinant or Jacobian overflows, leaves a seed where it is.  Returns
    each seed's point of least residual max-norm among itself and its
    iterates (an iterate only if strictly better), shape (k, 2), and that
    norm, shape (k,), independently of the other seeds.
    """
    eps, x = float(epsilon), np.array(seeds, dtype=float).reshape(-1, 2)
    best, best_res = x.copy(), np.full(x.shape[0], np.inf)
    for _ in range(_NEWTON_STEPS + 1):  # the last pass only scores the last iterate
        (f1, f2), (a, b, c, d) = _newton_system(eps, x[:, 0], x[:, 1])
        res = np.maximum(np.abs(f1), np.abs(f2))
        better = res < best_res
        best[better], best_res[better] = x[better], res[better]
        # where the determinant vanishes, or overflows (eps above ~1e154),
        # the step is 0 or not finite
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.column_stack([d * f1 - b * f2, a * f2 - c * f1]) / (a * d - b * c)[:, None]
        x -= np.where(np.isfinite(step).all(axis=1, keepdims=True), step, 0.0)
    return best, best_res


def _exclusion_bound(eps, r_min, h):
    """(eps + sqrt(5)/r_min) h sqrt(2): no residual in a cell of half-width
    h, whose nearest point to the origin lies at r_min > 0, is farther than
    this from the residual at the cell's centre.  eps bounds the derivative
    of eps w, and sqrt(5)/||w|| that of m(w)/2 (see ``scan_stationary_points``).
    """
    return (eps + _RECT_DIAMETER / r_min) * (h * math.sqrt(2.0))


def _quadtree_leaves(eps: float):
    """Leaf cells of one eps's annulus exclusion tree (see ``scan_stationary_points``).

    The root cell is eps's own square [-B, B]^2, B = ``root_half_width([eps])``,
    and each level halves the cells' half-width h while h > 1e-7.  A cell of
    half-width h is an integer pair (i, j) with centre (i + 1/2, j + 1/2) * 2h
    - B.  i and j are held as float64, exact below 2^52, so that no step
    casts integers to floats (each cast takes a 64 KB buffer, which shows in
    peak memory).  Returns the leaf cells' i and j and their half-width, or
    None once the live cells of one level exceed ``_MAX_LIVE_CELLS``.
    """
    root = root_half_width([eps])
    radius = outer_radius(eps)

    def survivors(i, j, h):
        # at most _CHUNK_CELLS cells: drop the half-plane w1 <= 0, the inner
        # disk and the cells beyond R(eps), then those whose residual bound
        # excludes them
        c1, c2 = (i + 0.5) * (2.0 * h) - root, (j + 0.5) * (2.0 * h) - root
        a1, a2 = np.abs(c1), np.abs(c2)
        r_min = np.hypot(np.maximum(a1 - h, 0.0), np.maximum(a2 - h, 0.0))
        keep = (r_min <= radius) & (c1 + h > 0.0) & (np.hypot(a1 + h, a2 + h) > _INNER_RADIUS)
        i, j, c1, c2, r_min = i[keep], j[keep], c1[keep], c2[keep], r_min[keep]
        # a cell touching the origin (r_min = 0) is never excluded.  Nothing
        # overflows: eps * B(eps) is below 2.1 eps^(2/3), and r_min is 0 or
        # at least 2h
        with np.errstate(divide="ignore"):
            keep = ~(np.hypot(*_residual(eps, c1, c2)) > _exclusion_bound(eps, r_min, h))
        return i[keep], j[keep]

    h = root
    i, j = survivors(np.zeros(1), np.zeros(1), h)
    step = _CHUNK_CELLS // 4
    while h > _LEAF_HALF_WIDTH:
        h *= 0.5
        kept_i, kept_j, live = [np.empty(0)], [np.empty(0)], 0
        for start in range(0, i.size, step):
            parents = slice(start, start + step)
            child_i, child_j = survivors(
                (2.0 * i[parents, None] + _CHILD_I).ravel(),
                (2.0 * j[parents, None] + _CHILD_J).ravel(),
                h,
            )
            live += child_i.size
            if live > _MAX_LIVE_CELLS:
                return None
            kept_i.append(child_i)
            kept_j.append(child_j)
        i, j = np.concatenate(kept_i), np.concatenate(kept_j)
    return i, j, h


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


def _bounding_centre(cells, h):
    # centre of the box around the closed cells
    return 0.5 * ((cells.min(axis=0) - h) + (cells.max(axis=0) + h))


def _inside(point, cells, reach, ball):
    # in a closed cell of half-width reach, or in the disk, if any
    return _touches((point, 0.0), cells, reach) or bool(ball and math.hypot(*(point - ball[0])) <= ball[1])


def _certify(eps: float) -> np.ndarray:
    """One eps's certified points, sorted by w1, or shape (0, 2) where its
    certificate does not close (see ``scan_stationary_points``).
    """
    tree = _quadtree_leaves(eps)
    if tree is None:
        return np.empty((0, 2))
    leaf_i, leaf_j, h = tree
    cells = (np.column_stack([leaf_i, leaf_j]) + 0.5) * (2.0 * h) - root_half_width([eps])
    labels, count = _components(leaf_i, leaf_j)
    # a cluster is its leaf cells (n, 2) and at most one disk (centre, radius)
    clusters = [(cells[labels == n], None) for n in range(count)]
    # the disk point m(0)/(2 eps) = (0.5/eps, 0), m(0) = (1, 0) exactly.  The
    # division rounds once to nearest, so the true w1 lies within half the
    # spacing of doubles at w1, at most ulp(w1) (subnormal w1 too), and w2 = 0
    # is exact.  Rounding is monotone, so every eps >= 1/sqrt(2) passes the
    # test below; an eps an ulp short of it may too, and its disk then only
    # adds a region.
    w1 = 0.5 / eps
    if w1 <= _INNER_RADIUS:
        # every leaf wholly inside the inner disk was dropped, the point's own
        # leaf too unless it reaches the edge, so the leaves left around the
        # point are those reaching into the disk: each cluster with one
        # merges with the point
        touched = [_touches((np.zeros(2), _INNER_RADIUS), c, h) for c, _ in clusters]
        merged = [c for (c, _), t in zip(clusters, touched) if t]
        clusters = [g for g, t in zip(clusters, touched) if not t]
        clusters.append((np.concatenate([np.empty((0, 2))] + merged), (np.array([w1, 0.0]), math.ulp(w1))))

    # a cluster with the disk point starts from it: its residual is rounding only
    seeds = np.array([ball[0] if ball else _bounding_centre(c, h) for c, ball in clusters]).reshape(-1, 2)
    points, residuals = refine_candidate(eps, seeds)
    # leaf bounds are exact and rounding monotone: a point in a closed leaf
    # computes within h of its centre
    for (c, ball), point, res in zip(clusters, points, residuals):
        if not (res <= _ACCEPT_RESIDUAL and _inside(point, c, h, ball)):
            return np.empty((0, 2))
    return points[np.lexsort((points[:, 1], points[:, 0]))]


def scan_stationary_points(models) -> list[np.ndarray]:
    """Locate every stationary point of F in the plane, for each model.

    Takes a sequence of ``UniformModel`` and returns one array of shape
    (k, 2), sorted by w1, per model and in the same order.  What is proved:
    every stationary point lies in a survivor cluster, and each reported
    point is a cluster's refined point, with residual <= 1e-8, inside its
    cluster.  An eps whose certificate does not close (a cluster whose
    refined point fails that test, or more than ``_MAX_LIVE_CELLS`` live
    cells at one level) gets an empty array; one too small for
    ``root_half_width`` raises ``ValueError``.  What is not proved: that a
    cluster with leaf cells holds only one stationary point, and rounding in
    the computed residuals (see the module docstring).

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
    theta lies in (-pi/2, pi/2) by the half-plane fact.  Lemma: in that range
    g vanishes only at theta = 0.  For theta in (0, pi/2) let c = cot theta,
    so H is {v >= -c u}.  Its boundary leaves the rectangle through the
    bottom edge at u = 1/c when c >= 1, and through the right edge when
    c <= 1; integrating u and v over H gives
        m = (1 - 1/(6 c^2), 1/(3 c))      for c >= 1,
        m = (1/2 + c/3, 1/2 - c^2/6)      for c <= 1.
    So g = sin theta (c m_v - m_u), and c m_v - m_u is 1/(6 c^2) - 2/3
    <= -1/2 in the first case and (c - c^3)/6 - 1/2 <= 1/(9 sqrt(3)) - 1/2
    < -1/3 in the second: g(theta) <= -sin(theta)/3 < 0.  Reflecting
    v -> -v maps H(theta) to H(-theta) and m to (m_u, -m_v), so g is odd,
    and g(0) = 0 with m(0) = (1, 0), the whole rectangle's moment (exactly
    (1.0, 0.0) in floating point too).  Hence the only stationary point with
    ||w|| <= 1/sqrt(2) is m(0)/(2 eps) = (1/(2 eps), 0), and it exists
    exactly when it lies in the closed disk: eps >= 1/sqrt(2).  The scan
    gives it a disk whose radius covers only the rounding of 1/(2 eps).

    Annulus.  Each eps has its own quadtree, whose root cell is
    [-B(eps), B(eps)]^2, B(eps) = ``root_half_width([eps])``; each surviving
    cell splits into four, evaluated in chunks of at most 512, down to
    half-width 2^-24.  As B(eps) is a power of two at most 2^28, the leaves
    lie on one origin-aligned lattice with exact centres and edges.  Cells
    wholly inside the inner disk are left to the lemma.  Where it is smooth,
    m has derivative Dm(w) = (M_0 - M_1)/||w||, M_s = integral over the
    chord {w.x = s} of x x^T, by moving the two band edges.  Each M_s is
    positive semidefinite, and ||M_s||_2 <= integral over the chord of
    ||x||^2 <= 2 sqrt(5), as ||x||^2 <= 2 on the rectangle and chords are at
    most sqrt(5) long.  For positive semidefinite A and B, -B <= A - B <= A
    in the Loewner order, so ||A - B||_2 <= max(||A||_2, ||B||_2); hence
    ||Dm(w)/2|| <= sqrt(5)/||w||.  m is continuous away from 0, so
    integrating along the segment from a cell's centre c gives
    ||res(w) - res(c)|| <= (eps + sqrt(5)/r_min) ||w - c|| in the cell, r_min
    the cell's smallest ||w||.  A cell is dropped for eps when ||res(c)||_2 >
    (eps + sqrt(5)/r_min) * half-diagonal (``_exclusion_bound``).  On 1.7M
    random (cell, point) pairs, eps in [1e-3, 10] and cells of half-width
    1e-7 to 0.3 at r_min > 1e-3, ||res(w) - res(c)|| reached at most 0.98 of
    (eps + sqrt(5)/r_min) ||w - c||: the bound is tight to within 2 %, where
    eps r_min is large.  The moment part alone, ||m(w) - m(c)||/2, reached
    at most 0.44 of its term sqrt(5) ||w - c||/r_min.

    Survivors become points.  Connected leaf cells (sharing an edge or a
    corner) form a cluster, and the disk point merges into one cluster with
    every cluster that has a leaf reaching into the inner disk.  Each eps is
    certified on its own: one ``refine_candidate`` call per eps takes Newton
    steps on J = eps I - Dm/2 from the disk point in its cluster and the
    bounding-box centre of the others.
    """
    eps = [float(model.epsilon) for model in models]
    root_half_width(eps)  # every eps must fit the leaf lattice; the error names the smallest
    return [_certify(e) for e in eps]


def closed_form_minimizer(epsilon: float):
    """Global minimizer first coordinate and minimum value of F.

    (w1, F) = ((2 eps)^(-1/3), 3 (eps/32)^(1/3)) for eps <= 1/2, and
    (1/(2 eps), 1 - 1/(8 eps)) for eps > 1/2; w2 = 0 in both regimes.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if epsilon <= 0.5:
        return (2.0 * epsilon) ** (-1.0 / 3.0), 3.0 * (epsilon / 32.0) ** (1.0 / 3.0)
    # 0.5/eps is 1/(2 eps) rounded once, and stays positive where 2 eps overflows
    return 0.5 / epsilon, 1.0 - 0.125 / epsilon


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
