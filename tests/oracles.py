"""Independent reference computations used by the tests.

These deliberately avoid the code paths they check: the knapsack LP is
solved by enumerating polytope vertices, gradients come from central finite
differences, and expectations from dense midpoint quadrature.  The lockstep
refinement is checked against its one-seed form, and the closed-form origin
derivatives against Richardson-extrapolated difference quotients.  The
training inner loop is checked bit for bit against its earlier, plainer
form: a two-pass objective evaluation and an L-BFGS iteration written with
``float(a @ b)`` dots and a recomputed accepted point.
"""

import math

import numpy as np

from rampdro.analytic import UniformModel, _band_moments, f_epsilon
from rampdro.losses import BAND_SIGMAS, LossKind
from rampdro.objective import RegKind
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


_COMPASS = np.array(
    [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float
)


def _residual_norm(epsilon, w1, w2):
    _, _, mu, mv = _band_moments(w1, w2)
    return np.maximum(np.abs(epsilon * w1 - 0.5 * mu), np.abs(epsilon * w2 - 0.5 * mv))


def refine_one_seed(epsilon, seed, half_width):
    """Compass-shrink refinement of one seed, one round per loop pass.

    Moves to the best of the eight compass points at distance h (first in
    compass order on ties) when it improves, else halves h, until
    h <= 1e-13 or 500 rounds; the origin itself counts as inf.
    """
    best = np.array([float(seed[0]), float(seed[1])])
    best_res = float(_residual_norm(epsilon, best[0], best[1]))
    h = half_width
    rounds = 0
    while h > 1e-13 and rounds < 500:
        rounds += 1
        cand = best + h * _COMPASS
        res = _residual_norm(epsilon, cand[:, 0], cand[:, 1])
        res[(cand[:, 0] == 0.0) & (cand[:, 1] == 0.0)] = np.inf
        k = int(np.argmin(res))
        if res[k] < best_res:
            best, best_res = cand[k], float(res[k])
        else:
            h *= 0.5
    return best, best_res


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
