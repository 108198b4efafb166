"""Command-line surface: training, oracle queries, table reproduction, certification.

Commands
    train             minimize the regularized smoothed loss, write a JSON report
    oracle            worst-case probability / CVaR / margin queries for a fixed hyperplane
    reproduce         rerun one of the four experiment tables, write CSV + trend flags
    certify-analytic  certify the closed-form results for the uniform model

Every command is a deterministic function of its arguments and seeds, for a
fixed BLAS thread count; reports are identical across reruns except for the
``timestamp`` field.  (At n = 10^5, OpenBLAS splits the n-long sums of X^T s
across threads, so ``train`` reports can differ in their last bits between
thread counts.)  Every JSON report is ``{command, timestamp, config, ...}``,
written by one helper: ``config`` echoes every parsed flag except ``--out``
under its argparse name, and lays the command's derived fields over it
(``train``: n, d, the parsed reference, the start distribution and the Wolfe
constants; ``oracle``: n, d and the parsed ``w``; ``certify-analytic``: the
parsed ``epsilons`` and the root box).  JSON report layouts are pinned by
the schemas shipped under ``rampdro/schemas``.

Exit codes: 0 success, 2 validation error, 3 numerical failure (``SolveAbort``,
raised and caught here when no start of a training solve converges), 4 I/O
error.  The environment variable ``RAMPDRO_OUT_DIR`` supplies the base
directory for relative ``--out`` paths.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analytic, dataset, dro, geometry, objective, solve
from .losses import LossKind, LossSpec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class SolveAbort(RuntimeError):
    """No start of a training solve converged (exit 3)."""


OUT_DIR_ENV = "RAMPDRO_OUT_DIR"

_T1_N = (100, 300, 1000, 3000, 10000, 30000)
_T2_EPS_BAR = (0.001, 0.01, 0.1, 1.0, 10.0)
_T3_FLIP = (0.10, 0.20, 0.30, 0.40)
_T3_DATASETS = 10
_T4_ADV = (0.10, 0.20, 0.30)
_ALLOWED_INVERSIONS = 1  # a trend tolerates one out-of-order step


def _child_seed(base: int, *key: int) -> int:
    ss = np.random.SeedSequence([int(base), *[int(k) for k in key]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _resolve_out(path_str: str) -> Path:
    path = Path(path_str)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report(path: Path, args, derived: dict, **body) -> int:
    """Write ``{command, timestamp, config, **body}`` to ``path`` and return ``EXIT_OK``.

    ``config`` is every parsed flag but ``--out``, with the command's derived
    fields (a parsed vector, the dataset's n and d, fixed settings) laid over it.
    """
    config = {k: v for k, v in vars(args).items() if k not in ("command", "handler", "out")}
    timestamp = datetime.now(timezone.utc).isoformat()
    _write_json(path, {"command": args.command, "timestamp": timestamp,
                       "config": {**config, **derived}, **body})
    return EXIT_OK


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.asarray([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"expected comma-separated floats, got {text!r}: {exc}") from None


def _build_dataset(args) -> dataset.Dataset:
    if args.data is not None:
        ds = dataset.load_csv(args.data)
    else:
        if args.n is None or args.d is None:
            raise ValueError("provide --data, or both --n and --d for generated data")
        ds = dataset.generate_separable(args.n, args.d, _child_seed(args.seed, 1))
    ds = dataset.flip_labels(ds, args.flip_fraction, _child_seed(args.seed, 2))
    return dataset.inject_adversarial(ds, args.adv_fraction, _child_seed(args.seed, 3))


def _train(args, ds, loss: LossSpec, eps_bar: float, starts: int, seed: int, reference=None):
    """Multistart ``loss`` + eps_bar/2 ||w||^2; return (report, best cluster, its hyperplane)."""
    opts = solve.SolveOptions(args.grad_tol, args.max_iters, seed)
    spec = objective.ObjectiveSpec(loss, objective.RegKind.SQUARED_NORM, eps_bar)
    fun = objective.objective_function(spec, ds)
    report = solve.multistart(fun, ds.d + 1, starts, opts, reference)
    if not report.clusters:
        raise SolveAbort(
            f"no start converged: {len(report.failures)} of {starts} had a non-finite start, "
            f"{len(report.unconverged)} stopped unconverged"
        )
    best = report.clusters[0]
    z = best.run.minimizer
    return report, best, geometry.Hyperplane(z[:-1], float(z[-1]))


def _cluster_payload(report: solve.MultiStartReport):
    return [
        {
            "representative": {"w": c.run.minimizer[:-1], "b": float(c.run.minimizer[-1])},
            "value": c.run.value,
            "members": c.members,
            "sin_to_reference": c.sin_to_reference,
        }
        for c in report.clusters
    ]


def _cmd_train(args) -> int:
    loss = LossSpec(LossKind(args.loss), args.sigma)
    if not loss.smooth:
        raise ValueError("training requires a smoothed loss (sramp or shinge)")
    ds = _build_dataset(args)
    reference = _parse_floats(args.reference) if args.reference else None
    if reference is not None and not (
        reference.size == ds.d and np.isfinite(reference).all() and np.any(reference != 0)
    ):
        raise ValueError(f"reference must be a nonzero finite {ds.d}-vector, got {args.reference}")
    solve_seed = _child_seed(args.seed, 4)
    report, best, h = _train(args, ds, loss, args.epsilon_bar, args.starts, solve_seed, reference)
    best_run = best.run
    runs = report.runs
    ramp_spec_sq = objective.ObjectiveSpec(
        LossSpec(LossKind.RAMP), objective.RegKind.SQUARED_NORM, args.epsilon_bar
    )
    imputed = objective.imputed_epsilon(args.epsilon_bar, h)
    ramp_spec_norm = objective.ObjectiveSpec(
        LossSpec(LossKind.RAMP), objective.RegKind.NORM, imputed
    )
    dro_vars = objective.to_dro_variables(h)

    return _report(
        _resolve_out(args.out), args,
        {
            "n": ds.n,
            "d": ds.d,
            "reference": reference if reference is not None else "e1",
            "start_distribution": "unit_sphere",
            "wolfe_c1": solve.WOLFE_C1,
            "wolfe_c2": solve.WOLFE_C2,
        },
        result={
            "minimizer": {"w": h.w, "b": h.b},
            "value": best_run.value,
            "grad_norm": best_run.grad_norm,
            "iterations": best_run.iterations,
            "converged": best_run.converged,
            "sin_angle_to_reference": best.sin_to_reference,
            "imputed_epsilon": imputed,
            "dro_variables": {"w0": dro_vars.w0, "b0": dro_vars.b0, "t": dro_vars.t},
            "ramp_objective_sqnorm": objective.evaluate(ramp_spec_sq, ds, h),
            "ramp_objective_norm": objective.evaluate(ramp_spec_norm, ds, h),
            "n_clusters": len(report.clusters),
            "clusters": _cluster_payload(report),
            "failures": [{"index": i, "message": runs[i].stop} for i in report.failures],
            "unconverged": [
                {"index": i, "iterations": runs[i].iterations, "message": runs[i].stop}
                for i in report.unconverged
            ],
        },
    )


def _cmd_oracle(args) -> int:
    ds = _build_dataset(args)
    w = _parse_floats(args.w)
    if w.size != ds.d:
        raise ValueError(f"--w has {w.size} components, dataset has d={ds.d}")
    h = geometry.Hyperplane(w, args.b)
    profile = geometry.margin_profile(h, ds)
    dual = dro.worst_case_prob_dual(ds, h, args.epsilon)
    knap = dro.worst_case_prob_knapsack(ds, h, args.epsilon)
    result = {
        "margin": {
            "eta": profile.eta,
            "misclass_mass": profile.misclass_mass,
            "n_misclassified": int(profile.misclassified.size),
        },
        "worst_case": {
            "dual_value": dual.value,
            "t_star": dual.t_star,
            "knapsack_value": knap,
            "difference": abs(dual.value - knap),
        },
    }
    if args.rho is not None:
        result["cvar"] = dro.cvar_distance(ds, h, args.rho)
        if args.epsilon > 0:
            chance, cvar_ok = dro.check_chance_cvar(ds, h, args.epsilon, args.rho)
            result["chance_holds"] = chance
            result["cvar_holds"] = cvar_ok

    return _report(_resolve_out(args.out), args, {"n": ds.n, "d": ds.d, "w": w}, result=result)


def _monotone(values, direction: str) -> bool:
    bad = 0
    for a, b in zip(values, values[1:]):
        if direction == "nonincreasing" and b > a:
            bad += 1
        if direction == "nondecreasing" and b < a:
            bad += 1
    return bad <= _ALLOWED_INVERSIONS


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


def _sin(cluster: solve.Cluster) -> float:
    return float("nan") if cluster.sin_to_reference is None else cluster.sin_to_reference


def _run_table(args):
    scale = args.scale
    if not (0.0 < scale <= 1.0):
        raise ValueError(f"--scale must lie in (0, 1], got {scale}")
    if args.starts < 1:
        raise ValueError(f"--starts must be at least 1, got {args.starts}")
    d = args.d
    sramp = LossSpec(LossKind.SMOOTHED_RAMP, args.sigma)
    shinge = LossSpec(LossKind.SMOOTHED_HINGE, args.sigma)
    starts = _scaled(args.starts, scale, 1)
    rows, trends = [], {}

    if args.table == "T1":
        header = ["n", "seed", "n_solutions", "sin_theta_best", "sin_theta_all"]
        counts, sins = [], []
        for n_nominal in _T1_N:
            n = _scaled(n_nominal, scale, 4)
            seed = _child_seed(args.seed, 10, n_nominal)
            ds = dataset.generate_separable(n, d, seed)
            rep, best, _ = _train(args, ds, sramp, args.epsilon_bar, starts, _child_seed(seed, 1))
            all_sins = [c.sin_to_reference for c in rep.clusters if c.sin_to_reference is not None]
            counts.append(len(rep.clusters))
            sins.append(_sin(best))
            rows.append([n, seed, len(rep.clusters), f"{sins[-1]:.6g}",
                         ";".join(f"{s:.6g}" for s in all_sins)])
        trends = {
            "cluster_count_nonincreasing": _monotone(counts, "nonincreasing"),
            "sin_theta_nonincreasing": _monotone(sins, "nonincreasing"),
        }

    elif args.table == "T2":
        header = ["eps_bar", "seed", "n_solutions", "norm_w", "imputed_epsilon", "sin_theta"]
        seed = _child_seed(args.seed, 20)
        n = _scaled(10000, scale, 4)
        ds = dataset.generate_separable(n, d, seed)
        norms, imputed, sins = [], [], []
        for eps_bar in _T2_EPS_BAR:
            solve_seed = _child_seed(seed, int(eps_bar * 1000))
            rep, best, h = _train(args, ds, sramp, eps_bar, starts, solve_seed)
            norms.append(h.norm)
            imputed.append(objective.imputed_epsilon(eps_bar, h))
            sins.append(_sin(best))
            rows.append([f"{eps_bar:g}", seed, len(rep.clusters), f"{norms[-1]:.6g}",
                         f"{imputed[-1]:.6g}", f"{sins[-1]:.6g}"])
        trends = {
            "imputed_epsilon_increasing": _monotone(imputed, "nondecreasing"),
            "norm_w_decreasing": _monotone(norms, "nonincreasing"),
            "sin_theta_nondecreasing_from_second": _monotone(sins[1:], "nondecreasing"),
        }

    elif args.table == "T3":
        header = ["flip_pct", "seed", "n_datasets", "avg_n_solutions", "avg_sin_ramp", "avg_sin_hinge"]
        ramp_below = []
        n = _scaled(10000, scale, 4)
        for frac in _T3_FLIP:
            seed = _child_seed(args.seed, 30, int(frac * 100))
            counts, ramp_sins, hinge_sins = [], [], []
            for rep_i in range(_T3_DATASETS):
                ds_seed = _child_seed(seed, rep_i)
                base = dataset.generate_separable(n, d, ds_seed)
                ds = dataset.flip_labels(base, frac, _child_seed(ds_seed, 1))
                solve_seed = _child_seed(ds_seed, 2)  # both losses run from the same starts
                rr, ramp_best, _ = _train(args, ds, sramp, args.epsilon_bar, starts, solve_seed)
                _, hinge_best, _ = _train(args, ds, shinge, args.epsilon_bar, starts, solve_seed)
                counts.append(len(rr.clusters))
                ramp_sins.append(_sin(ramp_best))
                hinge_sins.append(_sin(hinge_best))
            avg_r = float(np.mean(ramp_sins))
            avg_h = float(np.mean(hinge_sins))
            ramp_below.append(avg_r < avg_h)
            rows.append([int(frac * 100), seed, _T3_DATASETS, f"{np.mean(counts):.3g}",
                         f"{avg_r:.6g}", f"{avg_h:.6g}"])
        trends = {"ramp_sin_below_hinge_all_rows": all(ramp_below)}

    else:  # T4
        header = [
            "adv_pct", "seed", "sin_ramp", "intercept_ramp", "misclass_ramp",
            "misclass_nonadv_ramp", "sin_hinge", "intercept_hinge",
            "misclass_hinge", "misclass_nonadv_hinge",
        ]
        n = _scaled(10000, scale, 4)
        summary = []
        for frac in _T4_ADV:
            seed = _child_seed(args.seed, 40, int(frac * 100))
            base = dataset.generate_separable(n, d, seed)
            adv_seed = _child_seed(seed, 1)
            ds = dataset.inject_adversarial(base, frac, adv_seed)
            injected = set(dataset.select_corruption_indices(n, frac, adv_seed).tolist())
            row = [int(frac * 100), seed]
            stats = {}
            for tag, loss in (("ramp", sramp), ("hinge", shinge)):
                _, best, h = _train(args, ds, loss, args.epsilon_bar, starts, _child_seed(seed, 2))
                bad = geometry.margin_profile(h, ds).misclassified
                nonadv = sum(1 for i in bad.tolist() if i not in injected)
                row.extend([f"{_sin(best):.6g}", f"{h.b:.6g}", int(bad.size), nonadv])
                stats[tag] = {"b": abs(h.b), "nonadv": nonadv}
            summary.append(stats)
            rows.append(row)
        last = summary[-1]
        trends = {
            "hinge_intercept_exceeds_ramp_at_max_adv": last["hinge"]["b"] > last["ramp"]["b"],
            "hinge_nonadv_misclass_exceeds_ramp_at_max_adv": last["hinge"]["nonadv"] > last["ramp"]["nonadv"],
        }

    return header, rows, trends


def _cmd_reproduce(args) -> int:
    header, rows, trends = _run_table(args)
    out = _resolve_out(args.out)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return _report(out.with_suffix(".trends.json"), args, {}, csv=str(out), trends=trends)


def _cmd_certify(args) -> int:
    epsilons = _parse_floats(args.epsilons)
    if epsilons.size == 0 or np.any(epsilons <= 0.0):
        raise ValueError(f"--epsilons must be a non-empty list of positive values, got {args.epsilons!r}")

    models = [analytic.UniformModel(float(eps)) for eps in epsilons]
    box = analytic.root_half_width(epsilons)
    d_plus, d_minus = analytic.origin_directional_derivatives()
    origin = {
        "along_plus_e1": {"value": d_plus, "error": abs(d_plus + 0.5), "pass": abs(d_plus + 0.5) <= 1e-4},
        "along_minus_e1": {"value": d_minus, "error": abs(d_minus), "pass": abs(d_minus) <= 1e-6},
    }

    scans = analytic.scan_stationary_points(models)
    per_eps = []
    for model, points in zip(models, scans):
        eps = model.epsilon
        w1_star, f_star = analytic.closed_form_minimizer(eps)
        residual = analytic.stationarity_residual(model, (w1_star, 0.0))
        checks = {
            "single_point": points.shape[0] == 1,
            "closed_form_residual": bool(np.max(np.abs(residual)) <= 1e-8),
        }
        entry = {
            "epsilon": eps,
            "outer_radius": analytic.outer_radius(eps),
            "points": points,
            "n_points": int(points.shape[0]),
            "closed_form": {"w1": w1_star, "value": f_star},
            "residual_at_closed_form": residual,
            # a reported point is proved to be F's only stationary point
            "unique_root": points.shape[0] == 1,
        }
        if points.shape[0] >= 1:
            loc_err = float(np.linalg.norm(points[0] - np.array([w1_star, 0.0]), ord=np.inf))
            val_err = abs(analytic.f_epsilon(model, points[0]) - f_star)
            checks["location"] = loc_err <= 1e-4
            checks["value"] = val_err <= 1e-6
            entry["location_error"] = loc_err
            entry["value_error"] = val_err
        entry["checks"] = checks
        per_eps.append(entry)

    all_pass = (
        origin["along_plus_e1"]["pass"]
        and origin["along_minus_e1"]["pass"]
        and all(all(e["checks"].values()) for e in per_eps)
    )
    return _report(
        _resolve_out(args.out), args,
        # the largest root square, the smallest eps's: [-box, box]^2
        {"epsilons": epsilons, "box": box},
        result={"origin": origin, "per_epsilon": per_eps, "all_pass": all_pass},
    )


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", default=None, help="dataset CSV (header x1,...,xd,y[,p])")
    p.add_argument("--n", type=int, default=None, help="points to generate")
    p.add_argument("--d", type=int, default=None, help="feature dimension to generate")
    p.add_argument("--seed", type=int, default=0, help="base seed for all derived streams")
    p.add_argument("--flip-fraction", type=float, default=0.0, help="fraction of labels to flip")
    p.add_argument("--adv-fraction", type=float, default=0.0, help="fraction of adversarial injections")


def _add_solver_args(p: argparse.ArgumentParser, grad_tol: float) -> None:
    p.add_argument("--sigma", type=float, default=0.02)
    p.add_argument("--epsilon-bar", type=float, default=0.1)
    p.add_argument("--starts", type=int, default=20)
    p.add_argument("--grad-tol", type=float, default=grad_tol)
    p.add_argument("--max-iters", type=int, default=10000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rampdro",
        description="Distributionally robust linear classification toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="minimize the regularized smoothed loss")
    _add_dataset_args(p)
    _add_solver_args(p, grad_tol=1e-8)
    p.add_argument("--loss", choices=["ramp", "sramp", "shinge"], default="sramp")
    p.add_argument("--reference", default=None, help="comma-separated reference direction (default e1)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("oracle", help="worst-case probability, CVaR, margin queries")
    _add_dataset_args(p)
    p.add_argument("--w", required=True, help="comma-separated hyperplane normal")
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("reproduce", help="rerun an experiment table")
    p.add_argument("--table", choices=["T1", "T2", "T3", "T4"], required=True)
    p.add_argument("--scale", type=float, default=1.0, help="shrink factor for n and starts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int, default=10)
    _add_solver_args(p, grad_tol=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_reproduce)

    p = sub.add_parser("certify-analytic", help="certify the uniform-model closed forms")
    p.add_argument("--epsilons", default="0.1,0.3,0.5,1,2", help="comma-separated positive values")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_certify)

    return parser


def _error_payload(kind: str, exc: Exception) -> str:
    return json.dumps({"error": {"type": kind, "message": str(exc)}}, sort_keys=True)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (dataset.CsvFormatError, ValueError) as exc:
        print(_error_payload("validation", exc), file=sys.stderr)
        return EXIT_VALIDATION
    except SolveAbort as exc:
        print(_error_payload("numerical", exc), file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(_error_payload("io", exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
