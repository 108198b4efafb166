"""The benchmark's workloads.

Each workload runs one *unit* of work under a timer and checks the unit's
outputs afterwards, outside the timed (and traced) region.  Unit ``k`` of a
tables or oracle run draws its inputs from ``(seed, k)``, so a run that
fits several units averages over several inputs; unit 0 of the tables run
uses the run seed itself as the command's ``--seed``.  The train and
certify workloads run one fixed command.

The CLI workloads call ``rampdro.cli.main`` in-process and pass only the
flags the workload is defined by, so a change to any other CLI default
shows up in the measurement.  The oracle workload calls the public library
functions directly.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from rampdro import cli, dataset, dro, geometry, objective, solve
from rampdro.losses import LossKind, LossSpec

CLI_SEED_STRIDE = 1000        # unit k of run seed s runs the CLI with --seed s + 1000 k
TRAIN_SEED = 3
ORACLE_N, ORACLE_D, ORACLE_FLIP = 100_000, 10, 0.10
SWEEP_EPSILONS = np.geomspace(1e-3, 3.0, 50)
SINGLE_PLANES, SINGLE_EPSILON, SINGLE_RHO = 25, 0.05, 0.3
DUAL_KNAPSACK_TOL = 1e-10
MONOTONE_SLACK = 1e-12        # rounding allowance for the nondecreasing ε-sweep
VERDICT_MARGIN = 1e-9         # chance/CVaR verdicts must agree this far from ρ
T3_HEADER = ["flip_pct", "seed", "n_datasets", "avg_n_solutions", "avg_sin_ramp", "avg_sin_hinge"]


def child_seed(base: int, *key: int) -> int:
    """The CLI's per-stream seed derivation, needed to rebuild its dataset."""
    ss = np.random.SeedSequence([int(base), *[int(k) for k in key]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class Checked:
    """A unit's verdict: ops attempted and failed, and comparable outputs."""

    attempted: int
    failed: int
    correct: bool
    outputs: object
    notes: list = field(default_factory=list)


class StartLog:
    """Records (starts, converged) of every ``solve.multistart`` call.

    Installed for the whole run, before any tracing; the CLI looks the
    function up on the module at call time, so the wrapper sees every solve
    of a command.
    """

    def __init__(self):
        self.calls: list = []
        original = solve.multistart

        @functools.wraps(original)
        def multistart(*args, **kwargs):
            report = original(*args, **kwargs)
            runs = report.runs
            self.calls.append((len(runs), sum(1 for r in runs if r is not None and r.converged)))
            return report

        solve.multistart = multistart

    def take(self):
        calls, self.calls = self.calls, []
        return sum(s for s, _ in calls), sum(c for _, c in calls)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.pop("timestamp", None)
    return payload


class CliWorkload:
    """One CLI command per unit, timed around ``cli.main``."""

    def __init__(self):
        self.starts = StartLog()

    def setup(self, seed: int, workdir) -> None:
        self.seed = seed
        self.workdir = workdir

    def argv(self, k: int) -> list:
        raise NotImplementedError

    def run(self, k: int):
        argv = self.argv(k)
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed unit, not a benchmark crash
            rc = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, None, rc

    def check(self, rc) -> Checked:
        starts, converged = self.starts.take()
        if rc != 0:
            return Checked(max(starts, 1), max(starts, 1), False, None, [f"command exited {rc}"])
        ok, outputs, notes = self.verify()
        if not ok:
            return Checked(starts, starts, False, outputs, notes)
        return Checked(starts, starts - converged, True, outputs, notes)


class Train(CliWorkload):
    """Every unit is the same command: its cost under the CG default varies
    up to 2x between dataset seeds, more than a run can average away."""

    name = "train-n10k"

    def out(self):
        return self.workdir / "train.json"

    def argv(self, k):
        return ["train", "--n", "10000", "--d", "10", "--seed", str(TRAIN_SEED),
                "--starts", "20", "--out", str(self.out())]

    def verify(self):
        payload = _read_json(self.out())
        cfg, res = payload["config"], payload["result"]
        ds = dataset.generate_separable(cfg["n"], cfg["d"], child_seed(cfg["seed"], 1))
        spec = objective.ObjectiveSpec(
            LossSpec(LossKind(cfg["loss"]), cfg["sigma"]), objective.RegKind.SQUARED_NORM, cfg["epsilon_bar"]
        )
        h = geometry.Hyperplane(res["minimizer"]["w"], res["minimizer"]["b"])
        value = objective.evaluate(spec, ds, h)
        _, grad = objective.evaluate_with_gradient(spec, ds, h)
        grad_norm = float(np.linalg.norm(grad))
        tol = cfg["grad_tol"]
        notes = []
        if abs(value - res["value"]) > 1e-12 * max(1.0, abs(res["value"])):
            notes.append(f"re-evaluated value {value!r} != reported {res['value']!r}")
        if abs(grad_norm - res["grad_norm"]) > tol:
            notes.append(f"recomputed gradient norm {grad_norm!r} != reported {res['grad_norm']!r}")
        if res["converged"] and grad_norm > tol * max(1.0, abs(value)):
            notes.append(f"reported converged but gradient norm is {grad_norm!r}")
        return not notes, payload, notes


class Tables(CliWorkload):
    name = "tables-t3-small"

    def out(self):
        return self.workdir / "t3.csv"

    def argv(self, k):
        return ["reproduce", "--table", "T3", "--scale", "0.01", "--seed",
                str(self.seed + CLI_SEED_STRIDE * k), "--out", str(self.out())]

    def verify(self):
        with open(self.out(), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        trends = _read_json(self.out().with_suffix(".trends.json"))
        notes = []
        if not rows or rows[0] != T3_HEADER:
            notes.append(f"unexpected header {rows[:1]}")
        if len(rows) != 5:
            notes.append(f"expected 4 data rows, got {len(rows) - 1}")
        for row in rows[1:]:
            for col in (4, 5):
                sin = float(row[col]) if len(row) > col else float("nan")
                if not (math.isfinite(sin) and 0.0 <= sin <= 1.0):
                    notes.append(f"sin value {row[col:col + 1]} outside [0, 1] in row {row}")
        return not notes, {"rows": rows, "trends": trends}, notes


class Certify(CliWorkload):
    """Deterministic: the command takes no seed, so every unit is the same."""

    name = "certify-5eps"

    def out(self):
        return self.workdir / "certify.json"

    def argv(self, k):
        return ["certify-analytic", "--out", str(self.out())]

    def check(self, rc) -> Checked:
        if rc != 0:
            return Checked(1, 1, False, None, [f"command exited {rc}"])
        payload = _read_json(self.out())
        res = payload["result"]
        origin_ok = all(v["pass"] for v in res["origin"].values())
        eps_failed = sum(1 for e in res["per_epsilon"] if not all(e["checks"].values()))
        attempted = 1 + len(res["per_epsilon"])
        failed = eps_failed + (0 if origin_ok else 1)
        notes = [] if res["all_pass"] else ["all_pass is false"]
        return Checked(attempted, failed, res["all_pass"], payload, notes)


class Oracle:
    """Queries against one generated n = 10^5 dataset built in setup.

    A unit is one 50-ε sweep of the dual and knapsack oracles on one
    hyperplane, then 25 one-off chance/CVaR checks on 25 more hyperplanes:
    two sweep queries per single query, as in 4 sweeps against 100 checks.
    """

    name = "oracle-n100k"
    latency = {"sweep": 95, "single": 90}   # per-query percentiles reported beside p50

    def setup(self, seed: int, workdir) -> None:
        base = dataset.generate_separable(ORACLE_N, ORACLE_D, child_seed(seed, 1))
        self.ds = dataset.flip_labels(base, ORACLE_FLIP, child_seed(seed, 2))
        self.seed = seed

    def planes(self, k: int, count: int):
        """Hyperplanes near the labelling rule x1 = 0, tilted by a random amount."""
        rng = np.random.default_rng([self.seed, k])
        out = []
        for _ in range(count):
            w = rng.uniform(0.05, 0.6) * rng.standard_normal(ORACLE_D)
            w[0] += 1.0
            out.append(geometry.Hyperplane(w, 0.5 * rng.standard_normal()))
        return out

    def run(self, k: int):
        sweep_plane, *single_planes = self.planes(k, 1 + SINGLE_PLANES)
        sweep, verdicts = [], []
        lat = {"sweep": [], "single": []}
        clock = time.perf_counter
        t0 = clock()
        for eps in SWEEP_EPSILONS:
            q0 = clock()
            dual = dro.worst_case_prob_dual(self.ds, sweep_plane, float(eps))
            knap = dro.worst_case_prob_knapsack(self.ds, sweep_plane, float(eps))
            lat["sweep"].append(clock() - q0)
            sweep.append((dual.value, dual.t_star, knap))
        for h in single_planes:
            q0 = clock()
            verdicts.append(dro.check_chance_cvar(self.ds, h, SINGLE_EPSILON, SINGLE_RHO))
            lat["single"].append(clock() - q0)
        return clock() - t0, lat, (sweep, single_planes, verdicts)

    def check(self, pending) -> Checked:
        sweep, planes, verdicts = pending
        failed, notes = 0, []
        for i, (dual, _, knap) in enumerate(sweep):
            bad = abs(dual - knap) > DUAL_KNAPSACK_TOL
            if i:
                prev_dual, _, prev_knap = sweep[i - 1]
                bad |= dual < prev_dual - MONOTONE_SLACK or knap < prev_knap - MONOTONE_SLACK
            if bad:
                failed += 1
                notes.append(f"sweep query {i}: dual {float(dual)!r}, knapsack {float(knap)!r}")
        for i, (h, (chance, cvar_ok)) in enumerate(zip(planes, verdicts)):
            value = dro.worst_case_prob_dual(self.ds, h, SINGLE_EPSILON).value
            if abs(value - SINGLE_RHO) > VERDICT_MARGIN and (chance != cvar_ok or chance != (value <= SINGLE_RHO)):
                failed += 1
                notes.append(f"single query {i}: worst case {float(value)!r}, chance {chance}, cvar {cvar_ok}")
        outputs = (sweep, [(bool(c), bool(v)) for c, v in verdicts])
        return Checked(len(sweep) + len(verdicts), failed, failed == 0, outputs, notes[:5])


WORKLOADS = {w.name: w for w in (Train, Tables, Oracle, Certify)}
