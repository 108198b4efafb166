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
distance profile: the positive finite distances in ascending order with
prefix sums of p and p*d.  The zeros, the misclassified points, enter every
query only through their total mass, so the profile stores no zero and starts
its prefix sums of p at that mass.  The dual and the knapsack share that sort
but not a formula, so their agreement remains an independent check.

A query at (epsilon, rho) reads the sorted distances only up to a crossing:
where the cumulative p*d passes epsilon (dual, knapsack) or the cumulative p
passes rho (CVaR).  So the profile is a prefix of the stable order that
grows on demand, one band of distances at a time, and a query sorts only
the lower tail it reads.  Every prefix is the full profile's first entries,
bit for bit, and a query stops growing it only when no breakpoint beyond
can change its answer, rounding included (see ``_DistanceProfile``).  So
every answer is the full profile's, bit for bit.  When every weight is the
same float, as the generators, the corruptions and a CSV without a weight
column make them, the order inside a run of tied distances cannot change any
prefix sum, so a band is sorted by value alone, and the zeros' mass, z
copies of that weight summed left to right, is formed in closed form, one
binade of the running sum at a time, with no array (see ``_run_sum``);
other weights take a stable argsort.  The queries read the prefix sums in
place and mask the rare tied positions.  The prefix arrays hold only what
the queries read: the first band's length, widened once, when a second band
is needed, to every positive distance.

The plane-level queries (``worst_case_prob_dual``, ``worst_case_prob_knapsack``,
``cvar_distance``, ``check_chance_cvar``) keep one slot: the last distance
vector, read-only, and its profile, built and freed together and keyed on
the Dataset (weakly) and on the bits of (w, b).  So an epsilon sweep on one
hyperplane, or both sides of ``check_chance_cvar``, forms the n x d product
once and sorts each distance at most once.  The queries still pass that
vector through the ``*_from_distances`` kernels, which find the slot's
profile by identity; any other input to a kernel is validated and profiled
afresh.  The slot trusts the Dataset's own checks of its weights, and keeps
their sum and whether they are all equal for every plane of that Dataset;
it still rejects a NaN distance, which an overflowing X @ w can give.

Points at infinite distance (w = 0 with y*b > 0) contribute nothing to the
dual sum and are untouchable by the knapsack; the CVaR enumeration likewise
takes its breakpoints from the finite distances only, with the t -> infinity
limit handled analytically.
"""

from __future__ import annotations

import math
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


_SAMPLE = 1024  # size of the strided sample that places a profile's cuts


class _DistanceProfile:
    """A prefix of the positive finite distances in ascending order, with prefix sums of p and p*d.

    ``cum_p[k]`` and ``cum_pd[k]`` sum p_i and p_i * d_i over the
    misclassified points (d_i = 0) and the first k sorted positive
    distances.  Infinite distances are dropped: no budget reaches them and
    they add nothing to either dual.  The weights sum to 1 only up to
    rounding, so the dual and the knapsack cap the probability they return
    at 1.

    The misclassified points are one base mass, not entries: every query
    reads them only through their total weight.  ``cum_p[0]`` is that
    weight, summed left to right in input order, as a stable sort's leading
    run of zeros sums it (a pairwise ``p.sum()`` may round otherwise).
    ``cum_pd[0]`` is 0.0, where that run's cost is +0 or -0.  No answer reads
    the sign: each reader adds the cost to, or subtracts it from, a positive
    term or another zero.  (Weights of -0.0 are the one exception: a sum of
    them alone may read +0.0 where the stable order's reads -0.0.)

    Points are ordered as a stable sort orders them: by distance, ties in
    input order.  That fixes the summation order of every prefix sum.  When
    every weight is the same positive float c, every term is (c, d_i), so
    the order inside a run of equal distances cannot change any sum: a band
    then sorts its values alone, and the zeros' base is z copies of c summed
    left to right, which ``_run_sum`` forms in closed form, one binade at a
    time, with no z-sized array.  Weights that differ anywhere take a stable
    argsort.

    Ties: the breakpoint at d_k reads the prefix sums at the first index
    tied with d_k, which cover d_i < d_k only; ties at d_k add exactly zero
    to phi(1/d_k) and to g(d_k).  Most points start their own run, so the
    profile keeps only ``_ties``, the positions tied with the point before
    them, and the dual and the CVaR read ``cum_p[:-1]`` and ``cum_pd[:-1]``
    in place.  There a tied position's sums stop inside its run, so its phi
    and g are masked: its true ones are its run start's, bit for bit (same
    d, same lower index), and the run start stays.  So the minimum, the
    distance at its last argmin and the maximum do not move.

    The profile is built lazily.  It holds every positive distance d <=
    ``cut``, and no other: so ``d``, ``cum_p`` and ``cum_pd`` are always the
    first ``size`` entries of the full profile's, bit for bit, ``_ties`` its
    tie positions below ``size``, and a tie run is never split.  A query
    that needs more appends the next band, every point left with d <= the
    next cut, sorted alone and summed on from the previous totals
    (``cumsum`` adds left to right).  The cuts come from a strided sample's
    estimated cost and mass; each band at least doubles the sample rank of
    the one before.  Once ``complete``, the prefix is the full profile.  The
    arrays behind ``d``, ``cum_p`` and ``cum_pd`` hold the first band and
    no more; the second band widens all three once, to the positive
    count, copying the first band's prefix, and every later band fills them
    in place.  So a query that reads one band allocates no array of the
    positive count's size.  (Doubling them instead would hold an old and a
    new set together at every widening.)

    A query stops growing when no point beyond ``cut`` can change its
    answer.  The knapsack reads only the prefix up to the first cost above
    epsilon, so it needs ``cum_pd[-1] > epsilon``.  The dual and the CVaR
    bound every breakpoint beyond the prefix from its totals P, C:

    - phi(1/d) >= P - max(0, C - epsilon) / cut for d > cut, since the
      terms p_i (1 - d_i/d) of points beyond the prefix are nonnegative and
      (epsilon - C) / d rises in d when C > epsilon; the limit t -> 0+ is
      the finite mass, at least P;
    - g(d) <= C/rho - d (P/rho - 1) <= C/rho - cut (P/rho - 1) for d > cut
      once P > rho, since beyond-prefix points only lower g; and P > rho
      rules out both finite-mass branches.

    Rounding: with N finite points (the zeros too, since the sums still add
    their weights) and unit roundoff u, a computed phi_k or g_k, like a
    computed prefix sum of nonnegative terms, is off its exact value by at
    most gamma = (N+4)u / (1 - (N+4)u) times the sum of its terms'
    magnitudes (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, sec. 3.1 and 4.2).  Beyond the cut those magnitudes are below
    epsilon/cut + 2M for phi and d (1 + 2M/rho) for g, with M the sum of all
    the weights, which bounds the finite mass.  The latter grows with d, so
    the CVaR also needs P/rho - 1 above gamma (1 + 3M/rho) for its bound to
    keep falling.  The margins of ``_dual_floor`` and ``_cvar_ceiling`` take
    ``_tol`` = 8(N+4)u, at least four times gamma, times those magnitudes
    and the bound's own terms: room for the beyond-prefix error, for the
    bound's error from the rounded P and C, and for the rounding of the
    bound itself.  So when a query stops, every computed phi beyond the
    prefix lies strictly above the prefix minimum (the last argmin stays
    put), and every computed g strictly below the prefix maximum.  The
    margins need nonnegative weights, which ``_build`` and the Dataset
    require, and sums that cannot overflow; otherwise ``_mass`` is inf and
    every query grows the profile whole.  A bound that is not finite also
    grows it.
    """

    def __init__(self, d: np.ndarray, p: np.ndarray, mass: float, weight: float | None):
        # d and p are 1-D float arrays of one shape: d is nonnegative but for
        # a nan, which is rejected here; p is nonnegative with the finite sum
        # mass, and weight is the positive value every p_i takes, or None
        top = float(d.max(initial=0.0))  # nan if any d_i is
        if not top < math.inf:
            if math.isnan(top):
                raise _negative_distance(d)
            finite = np.isfinite(d)
            d, p = d[finite], p[finite]
            top = float(d.max(initial=0.0))
        n = d.size
        self._source = d, p  # the bands are drawn from these, in input order
        self._weight = weight
        if weight is None:
            base = np.cumsum(p[d == 0.0])  # the zeros' weights, left to right
            zeros, base = base.size, float(base[-1]) if base.size else 0.0
        else:
            zeros = int(np.count_nonzero(d == 0.0))
            base = _run_sum(weight, zeros)
        self._positive = n - zeros
        # empty until _append sizes them to the bands
        self._d = np.empty(0)
        self._cum_p, self._cum_pd = np.full(1, base), np.zeros(1)
        self._ties = np.empty(0, dtype=np.intp)
        self.size, self.cut, self._rank, self._sample = 0, 0.0, -1, None
        self._top = top  # the largest finite distance
        self._mass = mass if mass * top < 2.0**1000 else math.inf
        self._tol = 8.0 * (n + 4) * 2.0**-53
        self._views()

    def _views(self) -> None:
        k = self.size
        self.d = self._d[:k]
        self.cum_p = self._cum_p[:k + 1]
        self.cum_pd = self._cum_pd[:k + 1]

    @property
    def complete(self) -> bool:
        return self.size == self._positive

    def cover(self, epsilon: float = -math.inf, rho: float = -math.inf) -> None:
        """Grow until the prefix's cost exceeds epsilon and its mass rho, or it is whole."""
        while not (self.complete or (self.cum_pd[-1] > epsilon and self.cum_p[-1] > rho)):
            self._grow(epsilon, rho)

    def _grow(self, epsilon: float, rho: float) -> None:
        """Append every point left with d <= the next cut."""
        if self._sample is None:
            self._sample = self._draw_sample()
        sample_d, cost, mass = self._sample
        # the first sample rank whose estimated cost or mass meets the need,
        # plus slack for the sampling error, and at least double the last
        need = max(np.searchsorted(cost, epsilon), np.searchsorted(mass, rho - self.cum_p[0]))
        rank = max(int(need) + 4 + int(3.0 * math.sqrt(need)), 2 * self._rank + 1)
        if not self._mass < math.inf:
            rank = sample_d.size
        cut = float(sample_d[rank]) if rank < sample_d.size else math.inf
        d, p = self._source
        band = d <= cut
        band &= d > self.cut  # the zeros, and every earlier band, lie at or below
        at = np.flatnonzero(band)
        del band
        self._append(d[at], None if self._weight else p[at])
        self._rank, self.cut = rank, cut

    def _draw_sample(self):
        """Every k-th positive distance, sorted, with estimated cumulative cost and mass."""
        d, p = self._source
        step = max(1, d.size // _SAMPLE)
        d, p = d[::step], p[::step]
        keep = np.flatnonzero(d > 0.0)
        order = keep[np.argsort(d[keep])]
        d, p = d[order], p[order]
        scale = self._positive / max(1, d.size)
        return d, np.cumsum(p * d) * scale, np.cumsum(p) * scale

    def _append(self, d: np.ndarray, p: np.ndarray | None) -> None:
        """Sort one band (d, and p unless the weights are equal, in input order) onto the prefix."""
        k, b = self.size, d.size
        if not b:
            return
        end = k + b
        if end > self._d.size:
            # the first band gets arrays of its own length; a second widens
            # them once, to every positive distance
            self._widen(self._positive if k else b)
        sorted_d = self._d[k:end]
        if p is None:
            sorted_d[:] = np.sort(d)  # equal weights: the value order sums as the stable order does
        else:
            rank = np.argsort(d, kind="stable")
            np.take(d, rank, out=sorted_d)
        ties = np.flatnonzero(sorted_d[1:] == sorted_d[:-1])  # entry j + 1 ties with entry j
        if ties.size:
            ties += k + 1
            self._ties = np.concatenate((self._ties, ties))
        del ties

        cp, pd = self._cum_p[k + 1:end + 1], self._cum_pd[k + 1:end + 1]
        if p is None:
            cp.fill(self._weight)
        else:
            np.take(p, rank, out=cp)
        np.multiply(cp, sorted_d, out=pd)
        # continue both sums bit for bit: cumsum adds total + next
        cp[0] = self._cum_p[k] + cp[0]
        pd[0] = self._cum_pd[k] + pd[0]
        np.cumsum(cp, out=cp)
        np.cumsum(pd, out=pd)
        self.size = end
        self._views()

    def _widen(self, size: int) -> None:
        """Reallocate the prefix arrays to hold ``size`` distances, keeping the prefix."""
        k = self.size
        arrays = []
        for old, extra in ((self._d, 0), (self._cum_p, 1), (self._cum_pd, 1)):
            new = np.empty(size + extra)
            new[:k + extra] = old[:k + extra]
            arrays.append(new)
        self._d, self._cum_p, self._cum_pd = arrays

    def dual(self, epsilon: float) -> WorstCaseResult:
        """Minimize phi over the positive breakpoints t = 1/d_k and t -> 0+."""
        if not epsilon >= 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
        if epsilon == 0.0:
            # the ball degenerates to the nominal distribution; the infimum is
            # attained only in the limit t -> infinity
            return WorstCaseResult(min(1.0, float(self.cum_p[0])), float("inf"))
        self.cover(epsilon)
        # an empty prefix covers no positive epsilon, so it is complete
        if not self.size:
            return WorstCaseResult(min(1.0, float(self.cum_p[0])), 0.0)
        while True:
            d = self.d
            # phi(1/d_k), dividing by d_k: 1/d_k overflows for subnormal d_k,
            # and inf * 0 would be nan where epsilon / d_k is a correct +inf;
            # near the float limit either quotient rounds to inf
            with np.errstate(over="ignore"):
                phi = epsilon / d
                phi += self.cum_p[:-1]
                phi -= self.cum_pd[:-1] / d
            phi[self._ties] = math.inf  # each tie's phi is its run start's
            # t = 1/d_k is descending, so the smallest minimizing t is the last argmin
            best = phi.size - 1 - int(np.argmin(phi[::-1]))
            if self.complete or phi[best] < self._dual_floor(float(epsilon)):
                break
            self._grow(epsilon, -math.inf)
        limit_zero = float(self.cum_p[-1])  # phi(t) -> reachable mass as t -> 0+
        if self.complete and limit_zero < phi[best]:
            return WorstCaseResult(min(1.0, limit_zero), 0.0)
        return WorstCaseResult(min(1.0, float(phi[best])), 1.0 / float(d[best]))

    def _dual_floor(self, epsilon: float) -> float:
        """phi's lower bound beyond the prefix, less the rounding margin."""
        c, total, cost = self.cut, float(self.cum_p[-1]), float(self.cum_pd[-1])
        margin = self._tol * (2.0 * self._mass + (cost + epsilon) / c)
        return total - max(0.0, cost - epsilon) / c - margin

    def knapsack(self, epsilon: float) -> float:
        """Fill whole items in increasing-distance order, then a fraction."""
        if not epsilon >= 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
        if epsilon == 0.0:
            # p_i * d_i can round to 0 for subnormal d_i; no such item is free
            return min(1.0, float(self.cum_p[0]))
        self.cover(epsilon)
        cost = self.cum_pd[1:]  # cumulative cost of the movable items
        k = int(np.searchsorted(cost, epsilon, side="right"))
        value = float(self.cum_p[k])
        if k < cost.size:
            value += (epsilon - float(self.cum_pd[k])) / self.d[k]
        return min(1.0, value)

    def cvar(self, rho: float) -> float:
        """Maximize g over the positive breakpoints t = d_k, plus the flat tail."""
        if not (0.0 < rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {rho}")
        self.cover(rho=rho)
        while not self.complete:
            best = self._cvar_breakpoints(rho)
            if best > self._cvar_ceiling(float(rho)):
                return best
            self._grow(-math.inf, rho)
        finite_mass = float(self.cum_p[-1])
        if finite_mass < rho:
            # g(t) = t * (1 - finite_mass / rho) + const grows without bound
            return float("inf")
        best = self._cvar_breakpoints(rho)
        if finite_mass == rho:
            # flat tail: g is constant at sum(p_i d_i) / rho beyond the largest
            # finite breakpoint
            best = max(best, float(self.cum_pd[-1]) / rho)
        return best

    def _cvar_breakpoints(self, rho: float) -> float:
        # g(t) = t + (1/rho) * sum_{d_i < t} p_i (d_i - t), at t = each positive
        # breakpoint; the t -> 0+ limit contributes the baseline 0
        t = self.d
        g = t * self.cum_p[:-1]
        np.subtract(self.cum_pd[:-1], g, out=g)
        g /= rho
        g += t
        g[self._ties] = -math.inf  # each tie's g is its run start's
        return float(g.max(initial=0.0))

    def _cvar_ceiling(self, rho: float) -> float:
        """g's upper bound beyond the prefix, plus the rounding margin; inf if unknown."""
        c, scale = self.cut, 1.0 + self._mass / rho
        excess = float(self.cum_p[-1]) / rho - 1.0
        cost = float(self.cum_pd[-1]) / rho
        # g must fall faster beyond the cut than its rounding error can rise,
        # and no beyond-prefix term may overflow
        if not (excess > self._tol * scale and self._top * scale < 2.0**1000):
            return math.inf
        return cost - c * excess + self._tol * (cost + c * scale)


def _run_sum(c: float, z: int) -> float:
    """z copies of c > 0 summed left to right in IEEE double: ``np.cumsum(np.full(z, c))[-1]``, or 0.0.

    The run is taken one binade at a time, with no array.  In a binade
    [2^(e-1), 2^e) with ulp u (the subnormals share the ulp of the binade
    above them, so they join it), every sum is M u for an integer M, and the
    top is 2^e = 2^53 u.  Write c/u = Q + F with 0 <= F < 1; ``divmod`` gives
    Q and F u exactly, as u is a power of two.  A step from M u whose result
    stays in the binade rounds the exact (M + Q + F) u to (M + Q + r) u, with
    r = [F > 1/2]; in the tie F = 1/2, r = 1 exactly when M + Q is odd (ties
    to even), which leaves M + Q + r even.  So after any such step, M + Q = Q
    (mod 2) whenever F = 1/2, and from the second step inside a binade on, r
    and the increment delta = (Q + r) u are fixed.  Since c < (Q + 1) u <=
    delta + u, a step from s <= 2^e - delta - 2u has an exact sum below
    2^e - u, which rounds inside the binade.  So from t, the result of a step
    inside the binade, the run is t + j delta exactly up to that margin:
    every term is a multiple of u below 2^e, so the integer M + j (Q + r)
    stays below 2^53, converts to a float exactly, and scales by u exactly.
    The last steps below the top, and the crossing, are taken one IEEE add
    at a time; Python's float addition rounds as numpy's ``add.accumulate``
    does.  Ties are common, not exotic: for c = 1.2103269940439809e-06,
    c/u = 22326592304631.5 in [2^-12, 2^-11), where the first step's
    increment differs from the steady one.  An increment of 0 leaves every
    further sum at s; so does inf, whose ulp is inf.
    """
    s, left = (c, z - 1) if z else (0.0, 0)
    while left:
        prev, s, left = s, s + c, left - 1
        u = math.ulp(s)
        if math.ulp(prev) != u:  # crossed into the next binade, or overflowed
            continue
        q, rem = divmod(c, u)
        step = int(q) + (2.0 * rem > u or (2.0 * rem == u and q % 2.0 == 1.0))  # delta / u
        if not step:
            return s
        m = int(s / u)
        j = min(left, max(0, (2**53 - 2 - step - m) // step + 1))
        s, left = float(m + j * step) * u, left - j
    return s


def _negative_distance(d: np.ndarray) -> ValueError:
    at = int(np.flatnonzero(~(d >= 0.0))[0])
    return ValueError(f"distances must be nonnegative, got {float(d[at])} at index {at}")


def _common_weight(p: np.ndarray) -> float | None:
    """The value every weight takes, if it is positive; else None."""
    c = float(p[0]) if p.size else 0.0
    return c if c > 0.0 and (p == c).all() else None


def _build(dists, weights) -> _DistanceProfile:
    d = np.asarray(dists, dtype=float).ravel()
    p = np.asarray(weights, dtype=float).ravel()
    if d.shape != p.shape:
        raise ValueError(f"distances and weights must have matching shapes, got {d.shape} and {p.shape}")
    if not (d >= 0.0).all():
        raise _negative_distance(d)
    with np.errstate(over="ignore"):  # an overflowed sum is rejected here
        mass = float(p.sum())
    if not ((p >= 0.0).all() and mass < math.inf):
        raise ValueError(f"weights must be nonnegative with a finite sum, got {p.min()} to {p.max()}")
    return _DistanceProfile(d, p, mass, _common_weight(p))


class _PlaneMemo(NamedTuple):
    dataset: weakref.ref
    weights: tuple  # the Dataset's weight sum and _common_weight, for every plane
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
    when its ``id`` is reused.  Other dataset types are not memoized.  A
    Dataset's weights are already validated, so the slot profiles them
    unchecked, with their sum and common value carried from plane to plane.
    """
    global _last_plane
    if not isinstance(ds, Dataset):
        return distances(h, ds)
    plane = np.append(h.w, h.b).tobytes()
    last = _last_plane
    if last is not None and last.dataset() is ds:
        if last.plane == plane:
            return last.dists
        weights = last.weights
    else:
        weights = float(ds.weights.sum()), _common_weight(ds.weights)
    # free the old pair first, so that two are never alive at once
    _last_plane = last = None
    dists = distances(h, ds)
    dists.setflags(write=False)
    _last_plane = _PlaneMemo(weakref.ref(ds), weights, plane, dists, _DistanceProfile(dists, ds.weights, *weights))
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
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    profile = _profile(_plane_distances(ds, h), ds.weights)
    profile.cover(epsilon, rho)  # one band for both sides
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
