"""Mutation check: each listed mutant of the program must fail its tests.

    python tests/mutate.py

Each entry of ``MUTANTS`` names a file of the repository, a text that
occurs in it exactly once, the text that replaces it, and the tests that
must then fail.  Every mutant runs in a fresh copy of the repository under
a temporary directory, so the working tree is never changed; so does each
test selection on the unchanged program first, which must pass.  A mutant
is killed when pytest reports failing tests (exit status 1).  The script
exits nonzero when a mutant survives, when its text no longer occurs once,
when a selection fails on the unchanged program, or when pytest ends in any
other way (no tests collected, a usage error).

It uses the standard library only, and pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


# the certificate's exclusion constants: the annulus bound
# (eps + sqrt(5)/r_min) h sqrt(2) and the outer radius R(eps).  Halving
# sqrt(5) alone is left out: ||Dm(w)/2|| ||w|| stays at or below about 1.0
# (its largest value, just right of eps = 1/2's kink), under sqrt(5)/2 =
# 1.12, so that bound still holds, and no sound test can fail it
ANALYTIC = "src/rampdro/analytic.py"
BOUND = "(eps + _RECT_DIAMETER / r_min) * (h * math.sqrt(2.0))"
CORNERS = ("tests/test_analytic.py::test_exclusion_bound_holds_at_cell_corners",)
# the uniqueness proof: the Jacobian's intervals over a box (the chord on
# s = 1's Simpson weight) and Krawczyk's test, which must read J over the
# whole box, the residual's rounding bound delta and the contraction term
# (I - Y J)(X - c),
ENCLOSURE = ("tests/test_analytic.py::test_jacobian_enclosure_holds_the_closed_form_jacobian",)
KRAWCZYK = (
    "tests/test_analytic.py::test_krawczyk_proves_one_root_and_refuses_two",
    "tests/test_analytic.py::test_krawczyk_allows_for_the_rounding_of_the_residual",
)
# and, where J jumps, strong monotonicity: mu from the chord on s = 0, and
# the disk about the centre that the residual's rounding widens
MONOTONE = (
    "tests/test_analytic.py::test_monotonicity_bounds_the_symmetric_jacobian_from_below",
    "tests/test_analytic.py::test_monotone_image_needs_the_disk_of_its_radius_in_the_box",
)
# the one certificate path: the reported point is the contracted box's
# midpoint, it must pass the residual check, and the tree asks for a proof
# only of boxes that hold the disk point
MIDPOINT = ("tests/test_analytic.py::test_scan_finds_the_closed_form_point",)
RESIDUAL = ("tests/test_analytic.py::test_refined_point_leaving_its_cluster_gives_up_that_epsilon",)
DISK = ("tests/test_analytic.py::test_tree_tests_only_boxes_that_hold_the_disk_point",)
# the inner-disk cut: a cell is dropped only where the lemma covers it.
# Cut at 0.75, the tree drops the root's own cells just outside the disk,
# which the tree's early box proof hides unless it runs every level.  The
# half-plane cut drops a cell only where it lies wholly in w1 <= 0; cutting
# every cell that reaches into it drops the root square itself.
# Dropping the cut, or the radius cuts' margin (_CUT_MARGIN = 0), survives:
# the first only keeps more cells, and the second covers up to 125 ulps of
# error in pow and 254 in hypot, where an accurate C library errs by about
# one (see ROADMAP item 12)
INNER = ("tests/test_analytic.py::test_every_level_keeps_the_cell_that_holds_the_root",)
HALF_PLANE = INNER + MIDPOINT
# the oracles' rounding margins, which stop a profile's growth early only
# when no unseen distance can change the answer
DRO = "src/rampdro/dro.py"
MARGINS = ("tests/test_dro.py::test_stop_bounds_lie_beyond_their_unmargined_values_by_the_tol_terms",)
# the profile's two sort paths and its tie masks: a value sort is the
# stable order only when every weight is equal, and a tied position's phi
# and g, read from sums that stop inside its run, round off its run start's
EQUAL = (
    "tests/test_dro.py::test_profile_matches_stable_sort_bitwise",
    "tests/test_dro.py::test_grown_profile_answers_match_stable_sort_bitwise",
)
TIES = (
    "tests/test_dro.py::test_grown_profile_answers_match_stable_sort_bitwise",
    "tests/test_dro.py::test_breakpoints_one_ulp_beyond_the_cut_keep_their_answers",
)
# the profile's zeros' base and its arrays: the closed form's steady
# increment, which differs from a binade's first one in a tie, and arrays
# sized to the first band, then widened once to every positive distance;
# the two array mutants change memory, not answers, so only the allocation
# test sees them
RUN_SUM = (
    "tests/test_dro.py::test_run_sum_matches_cumsum_bitwise",
    "tests/test_dro.py::test_run_sum_matches_cumsum_bitwise_property",
)
ARRAYS = ("tests/test_dro.py::test_profile_arrays_hold_only_the_bands_read",)
WIDEN = "self._widen(self._positive if k else b)"
# the solver's weak Wolfe constants and its stop test's relative scale,
# which only an objective with |f| > 1 at the stop can see
SOLVE = "src/rampdro/solve.py"
MUTANTS = [
    Mutant("bound without sqrt(2)", ANALYTIC, BOUND, "(eps + _RECT_DIAMETER / r_min) * h", CORNERS),
    Mutant(
        "bound (eps + sqrt(5)/(2 r_min)) h", ANALYTIC, BOUND, "(eps + _RECT_DIAMETER / (2.0 * r_min)) * h", CORNERS,
    ),
    Mutant("bound without sqrt(5)/r_min", ANALYTIC, BOUND, "eps * (h * math.sqrt(2.0))", CORNERS),
    Mutant(
        "bound with sqrt(5) r_min", ANALYTIC, BOUND, "(eps + _RECT_DIAMETER * r_min) * (h * math.sqrt(2.0))", CORNERS,
    ),
    Mutant("bound without eps", ANALYTIC, BOUND, "(_RECT_DIAMETER / r_min) * (h * math.sqrt(2.0))", CORNERS),
    Mutant(
        "R(eps) halved", ANALYTIC,
        "return (0.5 * _RECT_DIAMETER / epsilon) ** (1.0 / 3.0)",
        "return 0.5 * (0.5 * _RECT_DIAMETER / epsilon) ** (1.0 / 3.0)",
        ("tests/test_analytic.py::test_exclusion_facts",),
    ),
    Mutant(
        "s = 1 chord weight halved", ANALYTIC,
        "weight = abs(qv - pv) / (12.0 * w1)", "weight = abs(qv - pv) / (24.0 * w1)", ENCLOSURE,
    ),
    Mutant(
        "Krawczyk on J's midpoint only", ANALYTIC,
        "j11, j12, j22 = jac", "j11, j12, j22 = (_thin(0.5 * (e.lo + e.hi)) for e in jac)", KRAWCZYK,
    ),
    Mutant(
        "Krawczyk without delta", ANALYTIC,
        "values = [f[k] + _Interval(-delta, delta) for k in range(2)]", "values = [_thin(f[k]) for k in range(2)]",
        KRAWCZYK,
    ),
    Mutant(
        "Krawczyk without its contraction term", ANALYTIC,
        "image += (float(i == j) - (y0 * a + y1 * b)) * offset[j]", "pass", KRAWCZYK,
    ),
    Mutant(
        "monotonicity without the chord on s = 0", ANALYTIC,
        "mu = (eps - (w1.sq() + _thin(top).sq()) / (6.0 * (w1 * w1 * w1))).lo", "mu = eps", MONOTONE,
    ),
    Mutant(
        "monotone radius without delta", ANALYTIC,
        "reach = ((_thin(_nextafter(math.hypot(*value), math.inf)) + delta) / mu).hi",
        "reach = (_thin(_nextafter(math.hypot(*value), math.inf)) / mu).hi", MONOTONE,
    ),
    Mutant(
        "midpoint of the unshrunk box", ANALYTIC,
        "(lo1, lo2), (hi1, hi2) = refine_candidate(eps, proof)",
        "refine_candidate(eps, proof); (lo1, lo2), (hi1, hi2) = proof", MIDPOINT,
    ),
    Mutant(
        "residual check dropped", ANALYTIC,
        "if max(abs(float(f)) for f in _residual(eps, *point)) <= _ACCEPT_RESIDUAL:", "if True:", RESIDUAL,
    ),
    Mutant(
        "inner-disk cut at 0.75", ANALYTIC, "inner = _INNER_RADIUS * (1.0 - _CUT_MARGIN)", "inner = 0.75", INNER,
    ),
    Mutant("half-plane cut at c1 - h", ANALYTIC, "(c1 + h > 0.0)", "(c1 - h > 0.0)", HALF_PLANE),
    Mutant(
        "box test without the disk point", ANALYTIC,
        "proof = _one_root(eps, *box) if _holds(box, disk) else None", "proof = _one_root(eps, *box)", DISK,
    ),
    Mutant(
        "dual floor without its margin", DRO,
        "margin = self._tol * (2.0 * self._mass + (cost + epsilon) / c)", "margin = 0.0", MARGINS,
    ),
    Mutant(
        "CVaR ceiling without its margin", DRO,
        "return cost - c * excess + self._tol * (cost + c * scale)", "return cost - c * excess", MARGINS,
    ),
    Mutant("equal-weights test blind to the last weight", DRO, "(p == c).all()", "(p[:-1] == c).all()", EQUAL),
    Mutant("tie mask dropped from the dual", DRO, "phi[self._ties] = math.inf", "pass", TIES),
    Mutant("tie mask dropped from the CVaR", DRO, "g[self._ties] = -math.inf", "pass", TIES),
    Mutant(
        "run sum's increment from the binade's first step", DRO,
        "step = int(q) + (2.0 * rem > u or (2.0 * rem == u and q % 2.0 == 1.0))", "step = int((s - prev) / u)",
        RUN_SUM,
    ),
    Mutant("second band widened to its own end", DRO, WIDEN, "self._widen(end)", ARRAYS),
    Mutant("first band given every positive distance", DRO, WIDEN, "self._widen(self._positive)", ARRAYS),
    Mutant(
        "Wolfe c1 at 0.45", SOLVE, "WOLFE_C1 = 1e-4", "WOLFE_C1 = 0.45",
        ("tests/test_solve.py::test_convex_minimum_matches_scipy_bfgs",),
    ),
    Mutant(
        "Wolfe c2 at 0.5", SOLVE, "WOLFE_C2 = 0.9", "WOLFE_C2 = 0.5",
        ("tests/test_solve.py::test_line_search_never_accepts_non_finite_trial",),
    ),
    Mutant(
        "stop test without its scale", SOLVE,
        "if gnorm <= opts.grad_tol * max(1.0, abs(f)):", "if gnorm <= opts.grad_tol:",
        ("tests/test_solve.py::test_stop_rule_scales_grad_tol_by_a_large_value",),
    ),
    # the loss band: outside 36 sigma of a kink the exact kernels are within
    # e^-36 of their asymptotes, and a narrower band is not
    Mutant(
        "loss band at 18 sigma", "src/rampdro/losses.py", "BAND_SIGMAS = 36.0", "BAND_SIGMAS = 18.0",
        ("tests/test_losses.py::test_banded_spec_within_bound_of_exact",),
    ),
]


def _pytest(tree: Path, tests) -> int:
    # the copy's own package comes first on the path
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT_S,
    )
    if done.returncode not in (0, 1):
        print(done.stdout[-2000:])
    return done.returncode


def main() -> int:
    faults = []
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        clean = Path(tmp) / "clean"
        shutil.copytree(ROOT, clean, ignore=COPY_IGNORE)
        for tests in dict.fromkeys(m.tests for m in MUTANTS):
            code = _pytest(clean, tests)
            print(f"unchanged program: exit {code} on {' '.join(tests)}")
            if code != 0:
                faults.append(f"unchanged program fails {' '.join(tests)} (exit {code})")
        for n, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant-{n}"
            shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
            target = tree / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                faults.append(f"{mutant.name}: its text occurs {text.count(mutant.old)} times in {mutant.path}")
                continue
            target.write_text(text.replace(mutant.old, mutant.new))
            code = _pytest(tree, mutant.tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
            print(f"{mutant.name}: {verdict}")
            if code != 1:
                faults.append(f"{mutant.name}: {verdict}")
            shutil.rmtree(tree)
    print("mutants that did not die:", faults or "none")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
