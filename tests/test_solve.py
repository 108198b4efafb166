import numpy as np
import pytest
import scipy.optimize

from rampdro.dataset import generate_separable
from rampdro.geometry import sin_angle
from rampdro.losses import LossKind, LossSpec
from rampdro.objective import ObjectiveSpec, RegKind, objective_function
from rampdro.solve import (
    WOLFE_C1,
    WOLFE_C2,
    SolveOptions,
    _wolfe_search,
    minimize,
    multistart,
)


def quadratic(diag, xstar):
    A = np.asarray(diag, dtype=float)
    xs = np.asarray(xstar, dtype=float)

    def fun(x):
        r = x - xs
        return 0.5 * float(r @ (A * r)), A * r

    return fun


QUAD5 = quadratic([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, -2.0, 0.5, 3.0, -1.0])
XSTAR5 = np.array([1.0, -2.0, 0.5, 3.0, -1.0])


def sramp_objective(n=200, d=3, seed=5, eps_bar=0.1, sigma=0.05):
    ds = generate_separable(n, d, seed)
    spec = ObjectiveSpec(LossSpec(LossKind.SMOOTHED_RAMP, sigma), RegKind.SQUARED_NORM, eps_bar)
    return objective_function(spec, ds), d + 1


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)
    with pytest.raises(ValueError):
        SolveOptions(grad_tol=float("nan"))


def test_line_search_on_scalar_quadratic():
    fun = quadratic([1.0], [0.0])
    f0, g0 = fun(np.array([1.0]))
    res = _wolfe_search(fun, np.array([1.0]), f0, g0, np.array([-1.0]), 1.0)
    assert res is not None
    step = res[0]
    # re-verify both weak Wolfe inequalities at the returned step
    fa, ga = fun(np.array([1.0 - step]))
    slope = float(g0 @ np.array([-1.0]))
    assert fa <= f0 + 1e-4 * step * slope
    assert float(ga @ np.array([-1.0])) >= 0.9 * slope


def test_line_search_rejects_ascent_direction():
    fun = quadratic([1.0], [0.0])
    f0, g0 = fun(np.array([1.0]))
    with pytest.raises(ValueError):
        _wolfe_search(fun, np.array([1.0]), f0, g0, np.array([1.0]), 1.0)


def test_line_search_on_smoothed_ramp_objective():
    fun, dim = sramp_objective()
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(dim)
        f0, g0 = fun(x)
        p = -g0
        res = _wolfe_search(fun, x, f0, g0, p, 1.0)
        assert res is not None
        step = res[0]
        fa, ga = fun(x + step * p)
        slope = float(g0 @ p)
        assert fa <= f0 + WOLFE_C1 * step * slope + 1e-15
        assert float(ga @ p) >= WOLFE_C2 * slope


def test_quadratic_converges_quickly():
    rep = minimize(QUAD5, np.zeros(5), SolveOptions(grad_tol=1e-9))
    assert rep.converged
    assert rep.iterations <= 50
    assert np.max(np.abs(rep.minimizer - XSTAR5)) <= 1e-8


def test_trace_monotone_decrease():
    fun, dim = sramp_objective(sigma=0.02)
    rep = minimize(fun, np.ones(dim) / dim, SolveOptions(grad_tol=1e-6))
    values = [t[1] for t in rep.trace]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert rep.trace[0][0] == 0 and rep.trace[-1][0] == rep.iterations


def test_converged_implies_relative_grad_tol():
    fun, dim = sramp_objective()
    opts = SolveOptions(grad_tol=1e-7)
    rep = minimize(fun, np.ones(dim), opts)
    assert rep.converged
    assert rep.grad_norm <= opts.grad_tol * max(1.0, abs(rep.value))


def test_stop_reasons():
    fun, dim = sramp_objective()
    x0 = np.ones(dim)
    full = minimize(fun, x0, SolveOptions(grad_tol=1e-8))
    assert full.stop == "converged" and full.iterations > 1
    # a run that converges on its last allowed step has converged
    capped = minimize(fun, x0, SolveOptions(grad_tol=1e-8, max_iters=full.iterations))
    assert capped.stop == "converged" and capped.converged
    assert capped.iterations == full.iterations
    short = minimize(fun, x0, SolveOptions(grad_tol=1e-8, max_iters=full.iterations - 1))
    assert short.stop == "iteration_limit" and not short.converged
    assert short.iterations == full.iterations - 1


def test_stop_on_line_search_failure():
    # the reported gradient has the wrong sign, so -g is an ascent direction
    rep = minimize(lambda x: (float(x @ x), -2.0 * x), np.ones(3), SolveOptions())
    assert rep.stop == "line_search_failed" and not rep.converged
    assert rep.iterations == 0 and np.array_equal(rep.minimizer, np.ones(3))


def test_determinism():
    fun, dim = sramp_objective(sigma=0.02)
    x0 = np.full(dim, 0.3)
    a = minimize(fun, x0, SolveOptions(grad_tol=1e-8))
    b = minimize(fun, x0, SolveOptions(grad_tol=1e-8))
    assert np.array_equal(a.minimizer, b.minimizer)
    assert a.value == b.value and a.iterations == b.iterations
    assert a.trace == b.trace


def test_wolfe_reverified_post_hoc():
    fun, dim = sramp_objective(n=300, sigma=0.02)
    log = []

    def logged(x):
        f, g = fun(x)
        log.append((x.copy(), f, g))
        return f, g

    rep = minimize(logged, np.ones(dim) * 0.5, SolveOptions(grad_tol=1e-6))
    assert rep.iterations > 0
    # each iterate is the first later evaluation matching the trace's (f, ||g||)
    iterates, it = [], iter(log)
    for _, f, gnorm in rep.trace:
        iterates.append(next(e for e in it if e[1] == f and np.linalg.norm(e[2]) == gnorm))
    assert np.array_equal(iterates[-1][0], rep.minimizer)
    # the Wolfe inequalities are invariant to splitting the step s into alpha * p
    for (x0, f0, g0), (x1, f1, g1) in zip(iterates, iterates[1:]):
        s = x1 - x0
        slope = float(g0 @ s)
        assert slope < 0.0
        assert f1 <= f0 + WOLFE_C1 * slope + 1e-15
        assert float(g1 @ s) >= WOLFE_C2 * slope


def test_convex_minimum_matches_scipy_bfgs():
    ds = generate_separable(150, 3, 8)
    spec = ObjectiveSpec(LossSpec(LossKind.SMOOTHED_HINGE, 0.05), RegKind.SQUARED_NORM, 0.3)
    fun = objective_function(spec, ds)
    x0 = np.zeros(4)
    ours = minimize(fun, x0, SolveOptions(grad_tol=1e-9))
    ref = scipy.optimize.minimize(fun, x0, jac=True, method="BFGS", options={"gtol": 1e-10})
    assert ours.converged
    assert ours.value == pytest.approx(ref.fun, abs=1e-6)


def test_abort_on_non_finite_start():
    def bad(x):
        return np.nan, np.zeros_like(x)

    rep = minimize(bad, np.zeros(2), SolveOptions())
    assert rep.stop == "non_finite" and not rep.converged
    assert rep.iterations == 0 and np.array_equal(rep.minimizer, np.zeros(2))


def test_line_search_never_accepts_non_finite_trial():
    # a flat quadratic on a large ball whose edge passes just beside the
    # start: the first search doubles its step 1, 2, 4, 8, leaves the ball at
    # 8 and bisects back inside
    A = np.array([1.0, 0.01])
    centre, radius = np.array([-100.0, 0.9]), 100.006
    outside = []

    def fun(x):
        if (x - centre) @ (x - centre) > radius**2:
            outside.append(x.copy())
            return np.nan, np.full_like(x, np.nan)
        return 0.5 * float(x @ (A * x)), A * x

    rep = minimize(fun, np.array([-0.001, 1.0]), SolveOptions())
    assert outside and np.allclose(outside[0], [0.007, 0.92])
    assert rep.stop == "converged"
    assert np.isfinite(np.array(rep.trace)).all()


def test_multistart_convex_single_cluster_value_agreement():
    ds = generate_separable(150, 3, 8)
    spec = ObjectiveSpec(LossSpec(LossKind.SMOOTHED_HINGE, 0.05), RegKind.SQUARED_NORM, 0.3)
    fun = objective_function(spec, ds)
    report = multistart(fun, 4, 20, SolveOptions(grad_tol=1e-9, seed=123))
    assert len(report.clusters) == 1
    values = [r.value for r in report.runs]
    assert max(values) - min(values) <= 1e-7
    assert sorted(i for c in report.clusters for i in c.members) == list(range(20))


def test_multistart_deterministic():
    fun, dim = sramp_objective(sigma=0.02)
    a = multistart(fun, dim, 5, SolveOptions(grad_tol=1e-6, seed=9))
    b = multistart(fun, dim, 5, SolveOptions(grad_tol=1e-6, seed=9))
    for ra, rb in zip(a.runs, b.runs):
        assert np.array_equal(ra.minimizer, rb.minimizer)
    assert [c.members for c in a.clusters] == [c.members for c in b.clusters]


def test_multistart_same_start_identical_runs():
    fun, _ = sramp_objective()
    x0 = np.array([0.2, -0.1, 0.4, 0.0])
    r1 = minimize(fun, x0, SolveOptions(grad_tol=1e-8))
    r2 = minimize(fun, x0, SolveOptions(grad_tol=1e-8))
    assert np.array_equal(r1.minimizer, r2.minimizer)
    assert r1.trace == r2.trace


def test_multistart_reports_failures_and_excludes_them():
    def flaky(x):
        # non-finite objective whenever the first coordinate is positive
        if x[0] > 0:
            return np.nan, np.full_like(x, np.nan)
        r = x + 1.0
        return 0.5 * float(r @ r), r

    report = multistart(flaky, 3, 12, SolveOptions(seed=2))
    assert report.failures and len(report.runs) == 12
    failed = set(report.failures)
    clustered = {i for c in report.clusters for i in c.members}
    assert failed.isdisjoint(clustered) and failed.isdisjoint(report.unconverged)
    assert failed.union(clustered) == set(range(12))
    for i in report.failures:
        assert report.runs[i].stop == "non_finite" and report.runs[i].iterations == 0


def test_multistart_clusters_only_converged_runs():
    fun, dim = sramp_objective()
    # the 8 starts need 20-30 iterations at grad_tol 1e-8, so a cap of 25 splits them
    report = multistart(fun, dim, 8, SolveOptions(grad_tol=1e-8, seed=3, max_iters=25))
    assert len(report.runs) == 8 and not report.failures
    converged = {i for i, r in enumerate(report.runs) if r.converged}
    unconverged = set(report.unconverged)
    assert converged and unconverged and converged | unconverged == set(range(8))
    assert {i for c in report.clusters for i in c.members} == converged
    for i in report.unconverged:
        assert report.runs[i].iterations == 25 and report.runs[i].stop == "iteration_limit"


def test_multistart_sin_to_reference():
    fun, dim = sramp_objective(n=800, d=4, sigma=0.02)
    report = multistart(fun, dim, 6, SolveOptions(grad_tol=1e-6, seed=4))
    best = report.clusters[0]
    w = best.run.minimizer[:-1]
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert best.sin_to_reference == pytest.approx(sin_angle(w, e1), abs=1e-15)


def test_multistart_validates_n_starts():
    fun, dim = sramp_objective()
    with pytest.raises(ValueError):
        multistart(fun, dim, 0, SolveOptions())
