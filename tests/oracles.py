"""Independent reference computations used by the tests.

These deliberately avoid the code paths they check: the knapsack LP is
solved by enumerating polytope vertices or by HiGHS, the oracle answers
are read off a profile built whole with a stable sort, gradients come
from central finite differences, and expectations from dense midpoint
quadrature.  The closed-form origin derivatives are checked against
Richardson-extrapolated difference quotients, the analytic residual's
rounding against the same residual in exact rational arithmetic, and the
Jacobian enclosures against the closed-form Jacobian at single points.  The training inner loop is
checked bit for bit against its earlier, plainer form: a two-pass objective
evaluation and an L-BFGS iteration written with ``float(a @ b)`` dots and a
recomputed accepted point.  So is the analytic band kernel, against its
interleaved form: points as (..., segments, 2) arrays, trimmed with nested
``np.where`` calls and closed with ``np.concatenate``.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from rampdro import analytic
from rampdro.analytic import UniformModel, f_epsilon
from rampdro.losses import BAND_SIGMAS, LossKind, LossSpec
from rampdro.objective import ObjectiveSpec, RegKind, evaluate_with_gradient
from rampdro.solve import LBFGS_MEMORY, MAX_LINESEARCH, WOLFE_C1, WOLFE_C2, SolveReport


def knapsack_lp_vertices(dists, weights, epsilon):
    """Exact optimum of max{sum v : 0 <= v <= p, sum d_i v_i <= eps}.

    Every vertex of the feasible polytope has at most one coordinate strictly
    between its bounds, so enumerating (subset at upper bound) x (one
    fractional item) covers all candidates.  Meant for n <= 16.
    """
    d = np.asarray(dists, dtype=float).ravel()
    p = np.asarray(weights, dtype=float).ravel()
    keep = np.isfinite(d)  # infinite cost forces v = 0
    d = d[keep]
    p = p[keep]
    n = d.size
    if n == 0:
        return 0.0
    if n > 16:
        raise ValueError("vertex enumeration is for small instances only")

    masks = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(bool)
    cost = masks @ (d * p)
    value = masks @ p
    feasible = cost <= epsilon
    if epsilon == 0.0:
        # p * d of a subnormal d can round to 0; no item with d > 0 is free
        feasible &= ~masks[:, d > 0.0].any(axis=1)
    best = float(value[feasible].max()) if feasible.any() else 0.0

    rem = epsilon - cost[feasible]
    vals = value[feasible]
    open_slots = ~masks[feasible]
    movable = d > 0.0
    if movable.any() and rem.size:
        with np.errstate(over="ignore"):  # rem / d -> inf caps at p
            frac = np.minimum(p[movable][None, :], rem[:, None] / d[movable][None, :])
        frac = np.where(open_slots[:, movable], frac, 0.0)
        best = max(best, float((vals[:, None] + frac).max()))
    return best


def central_difference_gradient(fun, x, rel_step=1e-6):
    """Coordinate-wise central differences with scale-aware steps."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for j in range(x.size):
        h = rel_step * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        grad[j] = (fun(xp) - fun(xm)) / (2.0 * h)
    return grad


def random_knapsack_instance(rng, max_n=12, allow_zero=True, allow_inf=False):
    """Random (distances, weights) pair for the worst-case oracles."""
    n = int(rng.integers(1, max_n + 1))
    d = rng.exponential(1.0, n)
    if allow_zero:
        d[rng.random(n) < 0.3] = 0.0
    if allow_inf:
        d[rng.random(n) < 0.15] = np.inf
    w = rng.random(n) + 0.05
    w /= w.sum()
    return d, w


def stable_distance_profile(dists, weights):
    """The sorted distance profile the oracles read, built with a stable sort.

    Finite distances ascending with ties in input order, prefix sums of p and
    p*d, the count of zero distances, and for each positive distance the
    first index tied with it (by binary search).
    """
    d = np.asarray(dists, dtype=float).ravel()
    p = np.asarray(weights, dtype=float).ravel()
    keep = np.isfinite(d)
    d, p = d[keep], p[keep]
    order = np.argsort(d, kind="stable")
    d, p = d[order], p[order]
    zeros = int(np.searchsorted(d, 0.0, side="right"))
    return {
        "d": d,
        "cum_p": np.concatenate([[0.0], np.cumsum(p)]),
        "cum_pd": np.concatenate([[0.0], np.cumsum(p * d)]),
        "lower": np.searchsorted(d, d[zeros:], side="left"),
        "zeros": zeros,
    }


def first_tied_index(size, ties):
    """For each of a profile's first ``size`` sorted points, the first index
    tied with it, from ``ties``, the positions tied with the point before.
    """
    lower = np.arange(size, dtype=np.intp)
    lower[ties] = 0
    return np.maximum.accumulate(lower)


def dual_from_stable_profile(ref, epsilon):
    """(value, t_star) of the dual, read off ``stable_distance_profile``.

    The formulas of the profile's queries, applied to the whole sorted
    profile: every breakpoint phi(1/d_k), the last argmin, and the t -> 0+
    limit at the full finite mass.
    """
    d, cum_p, cum_pd, lo, z = ref["d"], ref["cum_p"], ref["cum_pd"], ref["lower"], ref["zeros"]
    if epsilon == 0.0:
        return min(1.0, float(cum_p[z])), math.inf
    limit_zero = float(cum_p[-1])
    if z == d.size:
        return min(1.0, limit_zero), 0.0
    dp = d[z:]
    with np.errstate(over="ignore"):
        phi = epsilon / dp + cum_p[lo] - cum_pd[lo] / dp
    best = phi.size - 1 - int(np.argmin(phi[::-1]))
    if limit_zero < phi[best]:
        return min(1.0, limit_zero), 0.0
    return min(1.0, float(phi[best])), 1.0 / float(dp[best])


def knapsack_from_stable_profile(ref, epsilon):
    """The greedy fractional knapsack over the whole ``stable_distance_profile``."""
    d, cum_p, cum_pd, z = ref["d"], ref["cum_p"], ref["cum_pd"], ref["zeros"]
    if epsilon == 0.0:
        return min(1.0, float(cum_p[z]))
    cost = cum_pd[z + 1:]
    k = int(np.searchsorted(cost, epsilon, side="right"))
    value = float(cum_p[z + k])
    if k < cost.size:
        value += (epsilon - float(cum_pd[z + k])) / d[z + k]
    return min(1.0, value)


def cvar_from_stable_profile(ref, rho):
    """The CVaR of the distance: every breakpoint g(d_k) of the whole profile."""
    d, cum_p, cum_pd, lo, z = ref["d"], ref["cum_p"], ref["cum_pd"], ref["lower"], ref["zeros"]
    finite_mass = float(cum_p[-1])
    if finite_mass < rho:
        return math.inf
    t_vals = d[z:]
    best = float((t_vals + (cum_pd[lo] - t_vals * cum_p[lo]) / rho).max(initial=0.0))
    if finite_mass == rho:
        best = max(best, float(cum_pd[-1]) / rho)
    return best


# HiGHS's primal and dual feasibility tolerance for ``knapsack_lp_highs``
HIGHS_TOL = 1e-9


def knapsack_lp_highs(dists, weights, epsilon):
    """Optimum of max{sum v : 0 <= v <= p, sum d_i v_i <= eps} by HiGHS.

    For any n.  Infinite distances are dropped (their v must be 0).  The
    answer carries HiGHS's tolerances; see ``highs_knapsack_tolerance``.
    """
    d = np.asarray(dists, dtype=float).ravel()
    p = np.asarray(weights, dtype=float).ravel()
    keep = np.isfinite(d)
    d, p = d[keep], p[keep]
    if d.size == 0:
        return 0.0
    res = linprog(
        -np.ones(d.size), A_ub=d[None, :], b_ub=[epsilon], bounds=np.column_stack([np.zeros(d.size), p]),
        method="highs",
        options={"primal_feasibility_tolerance": HIGHS_TOL, "dual_feasibility_tolerance": HIGHS_TOL},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the knapsack LP: {res.message}")
    return -float(res.fun)


def highs_knapsack_tolerance(dists, weights):
    """How far ``knapsack_lp_highs`` may sit from the exact optimum.

    At HiGHS's optimal basis the nonbasic v_i sit exactly at 0 or p_i.  The
    budget row may be violated by up to tau (the primal feasibility
    tolerance), which buys at most tau / d_min more value at the cheapest
    positive distance d_min, and the one basic v_j may leave its box by tau.
    A dual infeasibility of up to tau (the dual feasibility tolerance) leaves
    the objective at most tau * sum(p) below the optimum (weak duality over
    the box).  So |LP - optimum| <= tau (1 + 1/d_min + sum p); one more tau
    covers the rounding of the reported objective.
    """
    d = np.asarray(dists, dtype=float).ravel()
    p = np.asarray(weights, dtype=float).ravel()
    positive = d[np.isfinite(d) & (d > 0.0)]
    d_min = float(positive.min()) if positive.size else math.inf
    return HIGHS_TOL * (2.0 + 1.0 / d_min + float(p[np.isfinite(d)].sum()))


def distances_reference(h, ds):
    """max(0, y (<w, x> + b)) / ||w|| on the unscaled (w, b), with inf or 0 at w = 0.

    ``geometry.distances`` scales (w, b) by a power of two first; wherever
    this plain form neither overflows nor underflows, the two agree bit for
    bit.
    """
    norm = float(np.linalg.norm(h.w))
    scores = (ds.points @ h.w + h.b) * ds.labels
    if norm == 0.0:
        return np.where(scores > 0.0, np.inf, 0.0)
    return np.maximum(0.0, scores) / norm


def epsilon_star(dists, weights, rho):
    """Smallest radius at which the worst-case misclassification probability reaches rho.

    The knapsack fills finite points in increasing distance, so buying mass
    rho costs cum_pd[j] + (rho - cum_p[j]) * d[j], where item j is the one
    filled fractionally (cum_p[j] < rho <= cum_p[j + 1]).  Returns inf when
    the finite mass is below rho.
    """
    d = np.asarray(dists, dtype=float).ravel()
    p = np.asarray(weights, dtype=float).ravel()
    keep = np.isfinite(d)
    order = np.argsort(d[keep])
    d, p = d[keep][order], p[keep][order]
    cum_p = np.concatenate([[0.0], np.cumsum(p)])
    cum_pd = np.concatenate([[0.0], np.cumsum(p * d)])
    j = int(np.searchsorted(cum_p, rho, side="left")) - 1
    if j >= d.size:
        return float("inf")
    return float(cum_pd[j] + (rho - cum_p[j]) * d[j])


def origin_derivative_richardson(epsilon, direction, steps=(1e-3, 1e-4, 1e-5)):
    """One-sided derivative of F at the origin from difference quotients.

    The quotients (F(a u) - F(0))/a at steps decreasing by a fixed factor
    are extrapolated twice (Richardson), which removes their O(a) and O(a^2)
    error terms.
    """
    model = UniformModel(epsilon)
    u = np.asarray(direction, dtype=float)
    f0 = f_epsilon(model, np.zeros(2))
    d = [(f_epsilon(model, a * u) - f0) / a for a in steps]
    ratio = steps[0] / steps[1]
    e1 = (ratio * d[1] - d[0]) / (ratio - 1.0)
    e2 = (ratio * d[2] - d[1]) / (ratio - 1.0)
    return (ratio**2 * e2 - e1) / (ratio**2 - 1.0)



def f_epsilon_quadrature(model, w, grid):
    """Composite-midpoint evaluation of the uniform model's objective, integer grid >= 1 cells a side."""
    if not (grid >= 1 and float(grid).is_integer()):
        raise ValueError(f"grid must be an integer of at least 1, got {grid}")
    w1, w2 = analytic._finite_point(w)
    reg = 0.5 * model.epsilon * (w1 * w1 + w2 * w2)
    r = (np.arange(grid) + 0.5) / grid
    x2 = -1.0 + (np.arange(grid) + 0.5) * (2.0 / grid)
    total = 0.0
    for ri in r:  # row at a time to bound memory at large grids
        total += float(np.clip(1.0 - (w1 * ri + w2 * x2), 0.0, 1.0).sum())
    return reg + total / (grid * grid)


def newton_system(epsilon, w1, w2):
    """Residual (f1, f2) at w = (w1, w2), arrays of shape (k,), and its
    closed-form Jacobian eps I - Dm(w)/2 as entries (a, b, c, d) row by row,
    from one band evaluation; eps is one float.

    Dm(w) = (M_0 - M_1)/||w||, M_s the integral of x x^T along the band's
    chord on w.x = s (see ``analytic.scan_stationary_points``).  Simpson's
    rule is exact for x x^T: a chord p -> q of length l has
    M = (l/6) [p p^T + q q^T + (p + q)(p + q)^T].  A chord that lies along
    an edge of the rectangle is clipped to length 0.  At w = (1, 0), eps =
    1/2's root, that gives the Jacobian from w1 < 1.  On the axis w2 = 0 the
    chord on s = 0 lies along u = 0 and drops out of d.  At a subnormal
    ||w||, Dm overflows to inf.
    """
    _, (p, q) = analytic._band(w1, w2)
    _, (mu, mv) = analytic._moments(p, q)
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


def label_flip_balance(ds, h, sigma):
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

# -- the training inner loop, two-pass form --------------------------------
#
# Each smoothed kernel evaluates its softmax (or logistic) terms one at a
# time, and the loss is banded twice per gradient evaluation: once for the
# value and once for the slope.


def _softmax0_ref(z, sigma):
    return np.maximum(z, 0.0) + sigma * np.log1p(np.exp(-np.abs(z) / sigma))


def _logistic_ref(z):
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _sramp_ref(r, sigma):
    rr = np.maximum(r, 1.0 - r)
    v = _softmax0_ref(1.0 - rr, sigma) - _softmax0_ref(-rr, sigma)
    return np.clip(np.where(r < 0.5, 1.0 - v, v), 0.0, 1.0)


def _sramp_deriv_ref(r, sigma):
    rr = np.minimum(r, 1.0 - r)
    return _logistic_ref((rr - 1.0) / sigma) - _logistic_ref(rr / sigma)


def _shinge_ref(r, sigma):
    return _softmax0_ref(1.0 - r, sigma)


def _shinge_deriv_ref(r, sigma):
    return -_logistic_ref((1.0 - r) / sigma)


def _banded_ref(kernel, r, sigma, center, half_width, below, below_slope):
    flat = np.asarray(r, dtype=float).reshape(-1)
    tail = below if below_slope == 0.0 else below + below_slope * flat
    out = np.where(flat < center, tail, 0.0)
    idx = (~(np.abs(flat - center) >= half_width + BAND_SIGMAS * sigma)).nonzero()[0]
    if idx.size:
        out[idx] = kernel(flat[idx], sigma)
    return out


def loss_value_reference(loss, r):
    """Banded smoothed loss at margins r (1-D), one band selection."""
    if loss.kind is LossKind.SMOOTHED_RAMP:
        return _banded_ref(_sramp_ref, r, loss.sigma, 0.5, 0.5, 1.0, 0.0)
    return _banded_ref(_shinge_ref, r, loss.sigma, 1.0, 0.0, 1.0, -1.0)


def loss_slope_reference(loss, r):
    """Banded smoothed slope at margins r (1-D), a second band selection."""
    if loss.kind is LossKind.SMOOTHED_RAMP:
        return _banded_ref(_sramp_deriv_ref, r, loss.sigma, 0.5, 0.5, 0.0, 0.0)
    return _banded_ref(_shinge_deriv_ref, r, loss.sigma, 1.0, 0.0, -1.0, 0.0)


def two_pass_value_and_gradient(spec, ds, w, b):
    """Objective value and (d + 1,) gradient: loss value, then slope."""
    w = np.asarray(w, dtype=float)
    r = ds.labels * (ds.points @ w + b)
    if spec.reg_kind is RegKind.SQUARED_NORM:
        reg = 0.5 * spec.reg_weight * float(w @ w)
    else:
        reg = spec.reg_weight * float(np.linalg.norm(w))
    value = reg + float(ds.weights @ loss_value_reference(spec.loss, r))
    coeff = ds.weights * loss_slope_reference(spec.loss, r) * ds.labels
    grad_w = ds.points.T @ coeff
    grad_b = float(coeff.sum())
    if spec.reg_kind is RegKind.SQUARED_NORM:
        grad_w = grad_w + spec.reg_weight * w
    else:
        grad_w = grad_w + spec.reg_weight * w / float(np.linalg.norm(w))
    return value, np.concatenate([grad_w, [grad_b]])


def _wolfe_search_reference(fun, x, f0, g0, p, alpha):
    slope0 = float(g0 @ p)
    if not slope0 < 0.0:
        raise ValueError(f"search direction has nonnegative slope {slope0}")
    lo, hi = 0.0, np.inf
    for _ in range(MAX_LINESEARCH):
        fa, ga = fun(x + alpha * p)
        finite = np.isfinite(fa) and np.isfinite(ga).all()
        if not finite or fa > f0 + WOLFE_C1 * alpha * slope0:
            hi = alpha
        elif float(ga @ p) < WOLFE_C2 * slope0:
            lo = alpha
        else:
            return alpha, fa, ga
        alpha = 2.0 * alpha if np.isinf(hi) else 0.5 * (lo + hi)
    return None


def _lbfgs_direction_reference(g, memory):
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if memory:
        s, y, _ = memory[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def minimize_reference(fun, x0, opts):
    """L-BFGS under weak Wolfe with the stop rules of ``solve.minimize``."""
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    gnorm = math.sqrt(float(g @ g))
    trace = [(0, f, gnorm)]
    memory = []
    k = 0
    while True:
        if not (np.isfinite(f) and np.isfinite(g).all()):
            stop = "non_finite"
            break
        if gnorm <= opts.grad_tol * max(1.0, abs(f)):
            stop = "converged"
            break
        if k == opts.max_iters:
            stop = "iteration_limit"
            break
        p = _lbfgs_direction_reference(g, memory)
        if float(g @ p) >= 0.0:
            p = -g
        alpha0 = min(1.0, 1.0 / max(1e-12, gnorm)) if k == 0 else 1.0
        accepted = _wolfe_search_reference(fun, x, f, g, p, alpha0)
        if accepted is None:
            stop = "line_search_failed"
            break
        step, f_new, g_new = accepted
        k += 1
        x_new = x + step * p
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * math.sqrt(float(s @ s)) * math.sqrt(float(y @ y)):
            memory.append((s, y, 1.0 / sy))
            if len(memory) > LBFGS_MEMORY:
                memory.pop(0)
        x, f, g = x_new, f_new, g_new
        gnorm = math.sqrt(float(g @ g))
        trace.append((k, f, gnorm))
    return SolveReport(minimizer=x, value=f, grad_norm=gnorm, iterations=k, stop=stop, trace=trace)


# the uniform model's band kernel with the points interleaved: each polygon
# is its segments p -> q as (..., segments, 2) arrays, x = (u, v) on the last
# axis.  rampdro.analytic does the same flops in the same order on (u, v)
# rows, so every result below must match it bit for bit
_RECT_P_INTERLEAVED = np.array([(0.0, -1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 1.0)])
_RECT_Q_INTERLEAVED = np.roll(_RECT_P_INTERLEAVED, -1, axis=0)


def _clip_interleaved(p, q, a, b, c):
    a, b, c = a[..., None], b[..., None], np.asarray(c)[..., None]
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


def _moments_interleaved(p, q):
    cross = p[..., 0] * q[..., 1] - q[..., 0] * p[..., 1]
    return 0.5 * cross.sum(axis=-1), ((p + q) * cross[..., None]).sum(axis=-2) / 6.0


def _band_interleaved(w1, w2):
    scale = np.where(np.maximum(np.abs(w1), np.abs(w2)) > 2.0**1000, 2.0**-24, 1.0)
    upper = _clip_interleaved(_RECT_P_INTERLEAVED, _RECT_Q_INTERLEAVED, -scale * w1, -scale * w2, 0.0)
    return upper, _clip_interleaved(*upper, scale * w1, scale * w2, scale)


def residual_interleaved(epsilon, w1, w2):
    """The stationarity residual (f1, f2) of the uniform model at w = (w1, w2)."""
    m = _moments_interleaved(*_band_interleaved(w1, w2)[1])[1]
    return epsilon * w1 - 0.5 * m[..., 0], epsilon * w2 - 0.5 * m[..., 1]


def newton_system_interleaved(epsilon, w1, w2):
    """The residual at w1, w2 of shape (k,) and its closed-form Jacobian entries (a, b, c, d)."""
    _, (p, q) = _band_interleaved(w1, w2)
    _, m = _moments_interleaved(p, q)
    p, q = p[:, -2:], q[:, -2:]
    ends = np.stack([p, q, p + q], axis=-2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        weight = np.linalg.norm(q - p, axis=-1) * ([1.0, -1.0] / (12.0 * np.hypot(w1, w2))[:, None])
        jac = epsilon * np.eye(2) - np.einsum("kc,kcni,kcnj->kij", weight, ends, ends)
    return (epsilon * w1 - 0.5 * m[:, 0], epsilon * w2 - 0.5 * m[:, 1]), jac.reshape(-1, 4).T


def f_epsilon_interleaved(epsilon, w1, w2):
    """The uniform model's objective at a finite w = (w1, w2), two floats."""
    reg = 0.5 * epsilon * (w1 * w1 + w2 * w2)
    upper, band = _band_interleaved(w1, w2)
    area_band, (mu, mv) = _moments_interleaved(*band)
    expected = 0.5 * (2.0 - _moments_interleaved(*upper)[0] + area_band - w1 * mu - w2 * mv)
    return reg + float(expected)


def origin_directional_derivative_interleaved(u1, u2):
    """The one-sided derivative at the origin along a finite nonzero (u1, u2), two floats."""
    norm = math.hypot(u1, u2)
    _, (mu, mv) = _moments_interleaved(*_band_interleaved(0.5 * u1 / norm, 0.5 * u2 / norm)[1])
    return -0.5 * (u1 * float(mu) + u2 * float(mv)) + 0.0


def _clip_exact(polygon, a, b, c):
    # the part of a convex polygon (a list of Fraction vertices, counter-
    # clockwise) with a*u + b*v <= c, one pass of Sutherland-Hodgman
    kept = []
    for p, q in zip(polygon, polygon[1:] + polygon[:1]):
        sp, sq = a * p[0] + b * p[1] - c, a * q[0] + b * q[1] - c
        if sp <= 0:
            kept.append(p)
        if (sp < 0 < sq) or (sq < 0 < sp):
            t = sp / (sp - sq)
            kept.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return kept


def residual_exact(epsilon, w1, w2):
    """The stationarity residual eps w - m(w)/2 at float w = (w1, w2), as two
    Fractions: the band {0 <= w.x <= 1} of the rectangle [0,1] x [-1,1]
    clipped and integrated in exact rational arithmetic (x has density 1/2).
    """
    eps, w1, w2 = Fraction(epsilon), Fraction(w1), Fraction(w2)
    rectangle = [(Fraction(0), Fraction(-1)), (Fraction(1), Fraction(-1)), (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))]
    band = _clip_exact(_clip_exact(rectangle, -w1, -w2, 0), w1, w2, 1)
    mu = mv = Fraction(0)
    for p, q in zip(band, band[1:] + band[:1]):
        cross = p[0] * q[1] - q[0] * p[1]
        mu += (p[0] + q[0]) * cross
        mv += (p[1] + q[1]) * cross
    # the moments are (1/6) sum (p + q) cross; m(w) halves them for the density
    return eps * w1 - mu / 12, eps * w2 - mv / 12
