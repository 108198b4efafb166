"""First-order smooth minimization: L-BFGS under a weak-Wolfe line search.

The line search is bracketing plus bisection, which terminates for any C^1
function bounded below.  Every run ends in a ``SolveReport`` whose stop code
is ``"converged"``, ``"iteration_limit"``, ``"line_search_failed"`` or
``"non_finite"`` (the start point has a non-finite value or gradient).  The
multistart driver keeps one report per start, sampled uniformly on the unit
sphere, and clusters the minimizers of the converged runs.

Everything here is deterministic: identical (objective, start, options)
produce identical reports, and multistart runs are assembled in start-index
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import sin_angle

__all__ = [
    "SolveOptions",
    "SolveReport",
    "MultiStartReport",
    "Cluster",
    "minimize",
    "multistart",
]

# cluster-identity thresholds for multistart minimizers
CLUSTER_SIN_TOL = 1e-2
CLUSTER_INTERCEPT_TOL = 1e-2
CLUSTER_VALUE_TOL = 1e-6

_ZERO_W = 1e-12

# L-BFGS history length, the weak Wolfe constants (0 < c1 < c2 < 1) and the
# cap on trial steps per line search
LBFGS_MEMORY = 10
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
MAX_LINESEARCH = 60


@dataclass(frozen=True)
class SolveOptions:
    grad_tol: float = 1e-8
    max_iters: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf or self.max_iters < 1:
            raise ValueError("grad_tol must be positive and finite, max_iters positive")


@dataclass
class SolveReport:
    minimizer: np.ndarray
    value: float
    grad_norm: float
    iterations: int  # accepted steps
    stop: str  # "converged", "iteration_limit", "line_search_failed" or "non_finite"
    trace: list

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


@dataclass(frozen=True)
class Cluster:
    run: SolveReport  # the member with the least value
    members: list
    sin_to_reference: Optional[float]


@dataclass
class MultiStartReport:
    runs: list  # one SolveReport per start index
    clusters: list  # converged runs only

    @property
    def failures(self) -> list:
        """Indices of the runs whose start point is not finite."""
        return [i for i, r in enumerate(self.runs) if r.stop == "non_finite"]

    @property
    def unconverged(self) -> list:
        """Indices of the runs that stopped on the iteration cap or a failed search."""
        return [i for i, r in enumerate(self.runs) if r.stop not in ("converged", "non_finite")]


def _wolfe_search(fun, x, f0, g0, p, alpha: float):
    """Bracketing/bisection search for the weak Wolfe conditions from step alpha.

    Expands until the sufficient-decrease test fails or curvature holds,
    then bisects the bracket.  Non-finite trial values shrink the bracket.
    Returns (step, f, g) at the accepted step, or None after MAX_LINESEARCH
    trials.
    """
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


def _lbfgs_direction(g, memory):
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


def minimize(fun: Callable, x0, opts: SolveOptions) -> SolveReport:
    """Minimize a smooth function with L-BFGS under weak Wolfe.

    Falls back to steepest descent whenever the two-loop direction is not a
    descent direction.  The line search starts from min(1, 1/||g||) on the
    first iteration and from the unit step afterwards.  Before each step the
    run stops with ``"non_finite"`` when f or g is not finite, with
    ``"converged"`` when ||g|| <= grad_tol * max(1, |f|), else with
    ``"iteration_limit"`` once max_iters steps are taken; it stops with
    ``"line_search_failed"`` when the search finds no Wolfe step.  A run that
    meets the tolerance on its last allowed step therefore converges.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    gnorm = math.sqrt(float(g @ g))
    trace = [(0, f, gnorm)]
    memory: list = []
    k = 0
    while True:
        # only the start can fail this: _wolfe_search never accepts a non-finite trial
        if not (np.isfinite(f) and np.isfinite(g).all()):
            stop = "non_finite"
            break
        if gnorm <= opts.grad_tol * max(1.0, abs(f)):
            stop = "converged"
            break
        if k == opts.max_iters:
            stop = "iteration_limit"
            break

        p = _lbfgs_direction(g, memory)
        if float(g @ p) >= 0.0:
            p = -g

        alpha0 = min(1.0, 1.0 / max(1e-12, gnorm)) if k == 0 else 1.0
        accepted = _wolfe_search(fun, x, f, g, p, alpha0)
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

    return SolveReport(
        minimizer=x, value=f, grad_norm=gnorm, iterations=k, stop=stop, trace=trace
    )


def _same_cluster(rep: SolveReport, run: SolveReport) -> bool:
    wr, br = rep.minimizer[:-1], rep.minimizer[-1]
    wx, bx = run.minimizer[:-1], run.minimizer[-1]
    nr, nx = np.linalg.norm(wr), np.linalg.norm(wx)
    if nr <= _ZERO_W or nx <= _ZERO_W:
        angle_ok = nr <= _ZERO_W and nx <= _ZERO_W
    else:
        angle_ok = sin_angle(wr, wx) <= CLUSTER_SIN_TOL
    b_ok = abs(br - bx) <= CLUSTER_INTERCEPT_TOL * (1.0 + max(abs(br), abs(bx)))
    v_ok = abs(rep.value - run.value) <= CLUSTER_VALUE_TOL * max(1.0, abs(rep.value))
    return angle_ok and b_ok and v_ok


def multistart(
    fun: Callable,
    dim: int,
    n_starts: int,
    opts: SolveOptions,
    reference=None,
) -> MultiStartReport:
    """Run ``minimize`` from points uniform on the unit sphere in R^dim.

    The last coordinate of each iterate is the intercept; ``reference``
    (default: the first coordinate axis) is compared against the remaining
    coordinates when reporting per-cluster angles.  Only converged runs are
    clustered, greedily in order of value: a run joins the first cluster
    whose least-value run it matches, or founds a new one.  ``runs`` holds
    one report per start; ``failures`` lists the runs with a non-finite
    start and ``unconverged`` those that stopped on the iteration cap or a
    failed line search.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be positive, got {n_starts}")
    if reference is None:
        reference = np.zeros(dim - 1)
        reference[0] = 1.0
    reference = np.asarray(reference, dtype=float)

    rng = np.random.default_rng(opts.seed)
    runs: list = []
    for _ in range(n_starts):
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        while norm < 1e-12:
            v = rng.standard_normal(dim)
            norm = np.linalg.norm(v)
        runs.append(minimize(fun, v / norm, opts))

    order = sorted(
        (i for i, r in enumerate(runs) if r.converged), key=lambda i: (runs[i].value, i)
    )
    clusters: list = []
    for i in order:
        for c in clusters:
            if _same_cluster(c.run, runs[i]):
                c.members.append(i)
                break
        else:
            w = runs[i].minimizer[:-1]
            sin = None
            if np.linalg.norm(w) > _ZERO_W and np.linalg.norm(reference) > 0:
                sin = sin_angle(w, reference)
            clusters.append(Cluster(runs[i], [i], sin))
    for c in clusters:
        c.members.sort()

    return MultiStartReport(runs=runs, clusters=clusters)
