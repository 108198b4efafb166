"""First-order smooth minimization: L-BFGS under a weak-Wolfe line search.

The line search is bracketing plus bisection, which terminates for any C^1
function bounded below.  The multistart driver samples starting points
uniformly on the unit sphere and clusters the minimizers its converged runs
find; runs that abort or stop unconverged are listed separately.

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
    "LineSearchResult",
    "MultiStartReport",
    "Cluster",
    "FailedStart",
    "UnconvergedStart",
    "SolveAbort",
    "line_search_weak_wolfe",
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


class SolveAbort(RuntimeError):
    """Non-finite objective or gradient encountered; carries the location."""


@dataclass(frozen=True)
class SolveOptions:
    grad_tol: float = 1e-8
    max_iters: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not self.grad_tol > 0 or self.max_iters < 1:
            raise ValueError("grad_tol and max_iters must be positive")


@dataclass
class SolveReport:
    minimizer: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    trace: list
    message: str = ""


@dataclass(frozen=True)
class LineSearchResult:
    step: float
    ok: bool
    f: float
    g: np.ndarray
    n_evals: int


@dataclass(frozen=True)
class FailedStart:
    index: int
    message: str


@dataclass(frozen=True)
class UnconvergedStart:
    index: int
    iterations: int
    message: str


@dataclass(frozen=True)
class Cluster:
    representative: np.ndarray
    representative_index: int
    members: list
    sin_to_reference: Optional[float]


@dataclass
class MultiStartReport:
    runs: list  # Optional[SolveReport] per start index
    failures: list  # FailedStart: aborted on a non-finite value
    unconverged: list  # UnconvergedStart: finished without meeting grad_tol
    clusters: list  # converged runs only


def _wolfe_search(fun, x, f0, g0, p, alpha0: float) -> LineSearchResult:
    """Bracketing/bisection search for the weak Wolfe conditions.

    Expands until the sufficient-decrease test fails or curvature holds,
    then bisects the bracket.  Non-finite trial values shrink the bracket.
    """
    slope0 = float(g0 @ p)
    if not slope0 < 0.0:
        raise ValueError(f"search direction has nonnegative slope {slope0}")
    lo, hi = 0.0, np.inf
    alpha = alpha0 if alpha0 > 0.0 else 1.0
    best = (0.0, f0, g0)

    for k in range(MAX_LINESEARCH):
        fa, ga = fun(x + alpha * p)
        finite = np.isfinite(fa) and np.isfinite(ga).all()
        if finite and fa < best[1]:
            best = (alpha, fa, ga)
        if not finite or fa > f0 + WOLFE_C1 * alpha * slope0:
            hi = alpha
        elif float(ga @ p) < WOLFE_C2 * slope0:
            lo = alpha
        else:
            return LineSearchResult(alpha, True, fa, ga, k + 1)
        alpha = 2.0 * alpha if np.isinf(hi) else 0.5 * (lo + hi)

    return LineSearchResult(best[0], False, best[1], best[2], MAX_LINESEARCH)


def line_search_weak_wolfe(fun, x, direction, alpha0: float = 1.0) -> LineSearchResult:
    """Public wrapper that evaluates the anchor point itself."""
    x = np.asarray(x, dtype=float)
    f0, g0 = fun(x)
    return _wolfe_search(fun, x, f0, g0, np.asarray(direction, float), alpha0)


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
    first iteration and from the unit step afterwards.  Terminates when
    ||g|| <= grad_tol * max(1, |f|), on the iteration cap, or when the line
    search cannot satisfy the Wolfe conditions.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    if not (np.isfinite(f) and np.isfinite(g).all()):
        raise SolveAbort(f"non-finite objective or gradient at the start point (f={f})")

    gnorm = math.sqrt(float(g @ g))
    trace = [(0, f, gnorm)]
    memory: list = []
    message = ""
    converged = False
    k = 0

    for k in range(1, opts.max_iters + 1):
        if gnorm <= opts.grad_tol * max(1.0, abs(f)):
            converged = True
            k -= 1
            break

        p = _lbfgs_direction(g, memory)
        if float(g @ p) >= 0.0:
            p = -g

        alpha0 = min(1.0, 1.0 / max(1e-12, gnorm)) if k == 1 else 1.0
        ls = _wolfe_search(fun, x, f, g, p, alpha0)
        if not ls.ok:
            message = f"line search failed at iteration {k}"
            k -= 1
            break

        x_new = x + ls.step * p
        f_new, g_new = ls.f, ls.g
        if not (np.isfinite(f_new) and np.isfinite(g_new).all()):
            raise SolveAbort(f"non-finite objective or gradient at iteration {k}")

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
    else:
        message = "iteration limit reached"

    if not converged and gnorm <= opts.grad_tol * max(1.0, abs(f)):
        converged = True
    return SolveReport(
        minimizer=x,
        value=f,
        grad_norm=gnorm,
        iterations=k,
        converged=converged,
        trace=trace,
        message=message,
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
    clustered: runs that abort are reported as failures, and runs that stop
    on the iteration cap or a failed line search as unconverged.  ``runs``
    keeps one entry per start either way (None for an aborted one).
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be positive, got {n_starts}")
    if reference is None:
        reference = np.zeros(dim - 1)
        reference[0] = 1.0
    reference = np.asarray(reference, dtype=float)

    rng = np.random.default_rng(opts.seed)
    runs: list = []
    failures: list = []
    unconverged: list = []
    for idx in range(n_starts):
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        while norm < 1e-12:
            v = rng.standard_normal(dim)
            norm = np.linalg.norm(v)
        try:
            run = minimize(fun, v / norm, opts)
        except SolveAbort as exc:
            run = None
            failures.append(FailedStart(idx, str(exc)))
        else:
            if not run.converged:
                unconverged.append(UnconvergedStart(idx, run.iterations, run.message))
        runs.append(run)

    order = sorted(
        (i for i, r in enumerate(runs) if r is not None and r.converged),
        key=lambda i: (runs[i].value, i),
    )
    reps: list = []
    members: list = []
    for i in order:
        for c, rep_idx in enumerate(reps):
            if _same_cluster(runs[rep_idx], runs[i]):
                members[c].append(i)
                break
        else:
            reps.append(i)
            members.append([i])

    clusters = []
    for rep_idx, mem in zip(reps, members):
        w = runs[rep_idx].minimizer[:-1]
        sin = None
        if np.linalg.norm(w) > _ZERO_W and np.linalg.norm(reference) > 0:
            sin = sin_angle(w, reference)
        clusters.append(Cluster(runs[rep_idx].minimizer, rep_idx, sorted(mem), sin))

    return MultiStartReport(
        runs=runs, failures=failures, unconverged=unconverged, clusters=clusters
    )
