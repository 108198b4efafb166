"""Worst-case misclassification probability over a Wasserstein ball, and CVaR.

For a finite-support distribution with weights p_i and per-point distances
d_i = d(w, xi_i) to misclassification, strong duality reduces the worst-case
misclassification probability at radius epsilon to a one-dimensional convex
piecewise-linear minimization

    phi(t) = epsilon * t + sum_i p_i * max(0, 1 - t * d_i),   t > 0,

whose minimum sits at a breakpoint t = 1/d_i or in a limit.  The same value
is the optimum of a fractional knapsack (fill mass v_i <= p_i, paying d_i
per unit, budget epsilon), solved greedily in increasing-distance order.
Both routes are computed exactly by breakpoint enumeration, which is what
makes the tight dual-equals-primal equality tests possible.

The dual, the knapsack and the CVaR of the distance all read one sorted
distance profile: the finite distances in ascending order with prefix sums
of p and p*d.  Only the positive distances are sorted: the zeros, the
misclassified points, lead in input order.  The dual and the knapsack share
that sort but not a formula, so their agreement remains an independent check.

The plane-level queries (``worst_case_prob_dual``, ``worst_case_prob_knapsack``,
``cvar_distance``, ``check_chance_cvar``) keep one slot: the last distance
vector, read-only, and its profile, built and freed together and keyed on
the Dataset (weakly) and on the bits of (w, b).  So an epsilon sweep on one
hyperplane, or both sides of ``check_chance_cvar``, forms the n x d product
and sorts once.  The queries still pass that vector through the
``*_from_distances`` kernels, which find the slot's profile by identity;
any other input to a kernel is validated and profiled afresh.

Points at infinite distance (w = 0 with y*b > 0) contribute nothing to the
dual sum and are untouchable by the knapsack; the CVaR enumeration likewise
takes its breakpoints from the finite distances only, with the t -> infinity
limit handled analytically.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import Dataset
from .geometry import Hyperplane, distances

__all__ = [
    "WorstCaseResult",
    "CvarRadius",
    "worst_case_prob_dual",
    "worst_case_prob_knapsack",
    "cvar_distance",
    "check_chance_cvar",
    "cvar_radius",
    "worst_case_dual_from_distances",
    "worst_case_knapsack_from_distances",
    "cvar_from_distances",
]


@dataclass(frozen=True)
class WorstCaseResult:
    """Worst-case misclassification probability and the achieving multiplier.

    ``t_star`` is the dual minimizer: a positive breakpoint when the minimum
    is attained, ``inf`` for the t -> infinity limit (epsilon = 0), and 0.0
    for the t -> 0+ limit (budget large enough to move every reachable
    point).
    """

    value: float
    t_star: float


class CvarRadius(NamedTuple):
    epsilon: float
    argmax: list


class _DistanceProfile:
    """The finite distances in ascending order, with prefix sums of p and p*d.

    ``cum_p[k]`` and ``cum_pd[k]`` sum p_i and p_i * d_i over the first k
    sorted points; the first ``zeros`` of them are the misclassified points.
    Infinite distances are dropped: no budget reaches them and they add
    nothing to either dual.  The weights sum to 1 only up to rounding, so the
    dual and the knapsack cap the probability they return at 1.

    ``lower[k]`` is the first index tied with the positive distance
    ``d[zeros + k]``: prefix sums there cover d_i < d_k only, and ties at d_k
    add exactly zero to phi(1/d_k) and to g(d_k).

    Points are ordered as a stable sort orders them: by distance, ties in
    input order.  That fixes the summation order of every prefix sum.
    """

    def __init__(self, d: np.ndarray, p: np.ndarray):
        # d and p are validated 1-D float arrays of one shape
        finite = np.isfinite(d)
        if not finite.all():
            d, p = d[finite], p[finite]
        n = d.size
        # the zeros go first in input order, as a stable sort puts them, so
        # only the positive distances are sorted
        zero = d == 0.0
        order = np.empty(n, dtype=np.intp)
        z = self.zeros = int(np.count_nonzero(zero))
        order[:z] = np.flatnonzero(zero)
        positive = np.flatnonzero(~zero)
        del zero
        self.d = np.empty(n)
        np.take(d, order[:z], out=self.d[:z])  # 0.0 and -0.0 keep their bits
        # the default argsort is SIMD and several times faster than a stable
        # one, but orders ties arbitrarily; each run of ties is put back in
        # input order below, sorting only the tied points by (run, index)
        m = n - z
        dpos = d[positive]
        rank = np.argsort(dpos)
        sorted_pos = self.d[z:]
        np.take(dpos, rank, out=sorted_pos)
        del dpos
        starts = np.ones(m + 1, dtype=bool)  # run starts, plus an end sentinel
        np.not_equal(sorted_pos[1:], sorted_pos[:-1], out=starts[1:-1])
        tied = np.flatnonzero(~(starts[:-1] & starts[1:]))
        self.lower = np.arange(z, n)
        if tied.size:
            key = np.cumsum(starts[tied], dtype=np.int64)
            key *= m
            key += rank[tied]
            key.sort()
            key %= m
            rank[tied] = key
            del key
            # each positive point's run start, carried forward over its ties
            self.lower *= starts[:m]
            np.maximum.accumulate(self.lower, out=self.lower)
        del tied, starts
        np.take(positive, rank, out=order[z:])
        del positive, rank

        p = p[order]
        del order
        self.cum_p = np.zeros(n + 1)
        np.cumsum(p, out=self.cum_p[1:])
        p *= self.d
        self.cum_pd = np.zeros(n + 1)
        np.cumsum(p, out=self.cum_pd[1:])

    def dual(self, epsilon: float) -> WorstCaseResult:
        """Minimize phi over the positive breakpoints t = 1/d_k and t -> 0+."""
        if not epsilon >= 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
        if epsilon == 0.0:
            # the ball degenerates to the nominal distribution; the infimum is
            # attained only in the limit t -> infinity
            return WorstCaseResult(min(1.0, float(self.cum_p[self.zeros])), float("inf"))
        limit_zero = float(self.cum_p[-1])  # phi(t) -> reachable mass as t -> 0+
        if self.zeros == self.d.size:
            return WorstCaseResult(min(1.0, limit_zero), 0.0)

        d = self.d[self.zeros:]
        lo = self.lower
        # phi(1/d_k), dividing by d_k: 1/d_k overflows for subnormal d_k, and
        # inf * 0 would be nan where epsilon / d_k is a correct +inf
        with np.errstate(over="ignore"):
            phi = epsilon / d + self.cum_p[lo] - self.cum_pd[lo] / d
        # t = 1/d_k is descending, so the smallest minimizing t is the last argmin
        best = phi.size - 1 - int(np.argmin(phi[::-1]))
        if limit_zero < phi[best]:
            return WorstCaseResult(min(1.0, limit_zero), 0.0)
        return WorstCaseResult(min(1.0, float(phi[best])), 1.0 / float(d[best]))

    def knapsack(self, epsilon: float) -> float:
        """Fill whole items in increasing-distance order, then a fraction."""
        if not epsilon >= 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
        z = self.zeros
        if epsilon == 0.0:
            # p_i * d_i can round to 0 for subnormal d_i; no such item is free
            return min(1.0, float(self.cum_p[z]))
        cost = self.cum_pd[z + 1:]  # cumulative cost of the movable items
        k = int(np.searchsorted(cost, epsilon, side="right"))
        value = float(self.cum_p[z + k])
        if k < cost.size:
            value += (epsilon - float(self.cum_pd[z + k])) / self.d[z + k]
        return min(1.0, value)

    def cvar(self, rho: float) -> float:
        """Maximize g over the positive breakpoints t = d_k, plus the flat tail."""
        if not (0.0 < rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {rho}")
        finite_mass = float(self.cum_p[-1])
        if finite_mass < rho:
            # g(t) = t * (1 - finite_mass / rho) + const grows without bound
            return float("inf")

        # g(t) = t + (1/rho) * sum_{d_i < t} p_i (d_i - t), at t = each positive
        # breakpoint; the t -> 0+ limit contributes the baseline 0
        t_vals = self.d[self.zeros:]
        lo = self.lower
        g = t_vals + (self.cum_pd[lo] - t_vals * self.cum_p[lo]) / rho
        best = float(g.max(initial=0.0))
        if finite_mass == rho:
            # flat tail: g is constant at sum(p_i d_i) / rho beyond the largest
            # finite breakpoint
            best = max(best, float(self.cum_pd[-1]) / rho)
        return best


def _build(dists, weights) -> _DistanceProfile:
    d = np.asarray(dists, dtype=float).ravel()
    p = np.asarray(weights, dtype=float).ravel()
    if d.shape != p.shape:
        raise ValueError("distances and weights must have matching shapes")
    if not (d >= 0.0).all():
        raise ValueError("distances must be nonnegative")
    return _DistanceProfile(d, p)


class _PlaneMemo(NamedTuple):
    dataset: weakref.ref
    plane: bytes  # the bits of (w, b)
    dists: np.ndarray  # read-only, and never handed to a caller
    profile: _DistanceProfile


_last_plane: _PlaneMemo | None = None


def _profile(dists, weights) -> _DistanceProfile:
    """The slot's profile when ``dists`` is the slot's own vector, else a new one.

    ``_plane_distances`` builds the slot's vector and passes it only to the
    kernels, so no caller holds it and object identity is a sound key.  The
    weights must be the slot's Dataset's own.  Any other input is validated
    and profiled afresh, and the result is stored nowhere.
    """
    last = _last_plane
    if last is not None and dists is last.dists:
        ds = last.dataset()
        if ds is not None and weights is ds.weights:
            return last.profile
    return _build(dists, weights)


def _plane_distances(ds, h: Hyperplane) -> np.ndarray:
    """``distances(h, ds)``, computed and profiled once per (dataset, hyperplane).

    One slot keeps the last distance vector and its profile, keyed on a weak
    reference to the Dataset and on the bits of (w, b).  A Dataset owns its
    arrays, so no caller can change them under the key; the weak reference
    never keeps a dataset alive, and a collected one never matches, even
    when its ``id`` is reused.  Other dataset types are not memoized.
    """
    global _last_plane
    if not isinstance(ds, Dataset):
        return distances(h, ds)
    plane = np.append(h.w, h.b).tobytes()
    last = _last_plane
    if last is not None and last.dataset() is ds and last.plane == plane:
        return last.dists
    # free the old pair first, so that two are never alive at once
    _last_plane = last = None
    dists = distances(h, ds)
    dists.setflags(write=False)
    _last_plane = _PlaneMemo(weakref.ref(ds), plane, dists, _build(dists, ds.weights))
    return dists


def worst_case_dual_from_distances(dists, weights, epsilon: float) -> WorstCaseResult:
    return _profile(dists, weights).dual(epsilon)


def worst_case_knapsack_from_distances(dists, weights, epsilon: float) -> float:
    return _profile(dists, weights).knapsack(epsilon)


def cvar_from_distances(dists, weights, rho: float) -> float:
    return _profile(dists, weights).cvar(rho)


def worst_case_prob_dual(ds, h: Hyperplane, epsilon: float) -> WorstCaseResult:
    """Exact dual-form worst-case misclassification probability."""
    return worst_case_dual_from_distances(_plane_distances(ds, h), ds.weights, epsilon)


def worst_case_prob_knapsack(ds, h: Hyperplane, epsilon: float) -> float:
    """Greedy fractional-knapsack form of the same worst-case probability."""
    return worst_case_knapsack_from_distances(_plane_distances(ds, h), ds.weights, epsilon)


def cvar_distance(ds, h: Hyperplane, rho: float) -> float:
    """CVaR at level rho of the distance to misclassification (low = risky)."""
    return cvar_from_distances(_plane_distances(ds, h), ds.weights, rho)


def check_chance_cvar(ds, h: Hyperplane, epsilon: float, rho: float):
    """Report both sides of the chance-constraint / CVaR equivalence.

    Returns ``(chance_holds, cvar_holds)`` where the first is
    worst-case probability <= rho and the second is rho * CVaR >= epsilon;
    away from the boundary the two always agree.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    profile = _profile(_plane_distances(ds, h), ds.weights)
    chance_holds = profile.dual(epsilon).value <= rho
    cvar_holds = rho * profile.cvar(rho) >= epsilon
    return chance_holds, cvar_holds


def cvar_radius(ds, candidates: Sequence[Hyperplane], rho: float) -> CvarRadius:
    """Radius rho * max-CVaR over the candidates, with the argmax set.

    At this radius the minimal worst-case probability over the same
    candidates equals rho (when the radius is finite and positive); ties in
    the CVaR maximum are kept within 1e-10.
    """
    if not candidates:
        raise ValueError("candidate list must be non-empty")
    values = [cvar_distance(ds, h, rho) for h in candidates]
    best = max(values)
    argmax = [i for i, v in enumerate(values) if best - v <= 1e-10 or v == best]
    return CvarRadius(rho * best, argmax)
