"""Independent reference computations used by the tests.

These deliberately avoid the code paths they check: the knapsack LP is
solved by enumerating polytope vertices, gradients come from central finite
differences, and expectations from dense midpoint quadrature.  The lockstep
refinement is checked against its one-seed form, and the closed-form origin
derivatives against Richardson-extrapolated difference quotients.
"""

import numpy as np

from rampdro.analytic import UniformModel, _band_moments, f_epsilon


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
    h <= 1e-13 or 500 rounds; points within 1e-10 of the origin count as inf.
    """
    best = np.array([float(seed[0]), float(seed[1])])
    best_res = float(_residual_norm(epsilon, best[0], best[1]))
    h = half_width
    rounds = 0
    while h > 1e-13 and rounds < 500:
        rounds += 1
        cand = best + h * _COMPASS
        res = _residual_norm(epsilon, cand[:, 0], cand[:, 1])
        res[np.hypot(cand[:, 0], cand[:, 1]) < 1e-10] = np.inf
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
