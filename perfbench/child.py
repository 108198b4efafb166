"""One workload in its own process; prints one JSON line on stdout.

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--setup-only]

Untraced (``--trace 0``): set up, then run units 0, 1, 2, ... (at least
three) while the next unit is expected to finish within ``--seconds``, and
report the median unit time.  Traced (``--trace 1``): run unit 0 untraced and traced in
turn, at least twice each; report per-layer metrics, the tracing overhead,
and whether the traced outputs and counts equal the untraced ones.
``--setup-only`` measures the set-up time and exits.

run.py starts this script with the BLAS thread count pinned; it is not
meant to be run by hand.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports, then inputs

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import rampdro  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


MIN_UNITS = 3  # a median of fewer cannot discard one slow unit


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def run_units(wl, seconds):
    """Untraced units: at least MIN_UNITS, then until the next would overrun ``seconds``."""
    units, costs = [], []
    lat: dict = {}
    totals = {"attempted": 0, "failed": 0, "correct": True, "notes": []}
    start = time.perf_counter()
    k = 0
    while True:
        u0 = time.perf_counter()
        secs, unit_lat, pending = wl.run(k)
        chk = wl.check(pending)
        costs.append(time.perf_counter() - u0)
        units.append(secs)
        for phase, values in (unit_lat or {}).items():
            lat.setdefault(phase, []).extend(values)
        totals["attempted"] += chk.attempted
        totals["failed"] += chk.failed
        totals["correct"] &= chk.correct
        totals["notes"].extend(f"unit {k}: {n}" for n in chk.notes)
        k += 1
        if k >= MIN_UNITS and time.perf_counter() - start + statistics.median(costs) > seconds:
            break
    out = {"wall_s": statistics.median(units), "units": units, **totals}
    out["latency_ms"] = {}
    for phase, values in lat.items():
        tail = wl.latency[phase]
        out["latency_ms"].update({
            f"{phase}_p50_ms": percentile(values, 50) * 1e3,
            f"{phase}_p{tail}_ms": percentile(values, tail) * 1e3,
            f"{phase}_samples": len(values),
        })
    return out


def run_traced(wl, tracer, setup_rec, seconds, spans_path):
    """Unit 0 untraced and traced in turn, at least twice each, same inputs."""
    setup_layers = tracing.layer_metrics(setup_rec)
    plain, reps = [], []
    start = time.perf_counter()
    while len(reps) < 2 or time.perf_counter() - start + reps[-1]["cost"] <= seconds:
        u0 = time.perf_counter()
        secs, _, pending = wl.run(0)
        plain.append((secs, wl.check(pending)))
        rec = tracer.start_recording()
        tracer.install()
        try:
            secs, _, pending = wl.run(0)
        finally:
            tracer.uninstall()
        chk = wl.check(pending)
        layers = tracing.layer_metrics(rec)
        layers["dataset.generate_s"] += setup_layers["dataset.generate_s"]
        layers["trace.wall_s"] = secs
        if not reps:
            tracing.write_spans(spans_path, rec)
        reps.append({"layers": layers, "check": chk, "modules": tracing.module_self_s(rec),
                     "cost": time.perf_counter() - u0})

    ref = plain[0][1]
    notes = [n for r in reps for n in r["check"].notes]
    if any(r["check"].outputs != ref.outputs for r in reps):
        notes.append("traced outputs differ from the untraced outputs")
    for name in tracing.COUNT_METRICS:
        if len({r["layers"][name] for r in reps}) != 1:
            notes.append(f"count {name} differs between traced runs")
    metrics = {}
    for name in tracing.LAYER_METRICS:
        if name == "trace.overhead_s":
            continue
        values = [r["layers"][name] for r in reps]
        metrics[name] = values[0] if name in tracing.COUNT_METRICS else statistics.median(values)
    untraced_s = statistics.median(s for s, _ in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_s
    modules = {m: statistics.median(r["modules"].get(m, 0.0) for r in reps) for m in tracing.MODULES}
    return {
        "layers": {k: {"value": v, "unit": tracing.LAYER_METRICS[k]} for k, v in metrics.items()},
        "module_self_s": modules,
        "untraced_wall_s": untraced_s,
        "traced_reps": len(reps),
        "attempted": ref.attempted,
        "failed": ref.failed,
        "correct": all(c.correct for _, c in plain) and all(r["check"].correct for r in reps) and not notes,
        "notes": ref.notes + notes,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if not Path(rampdro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"rampdro was imported from {rampdro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    args.workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]()

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        setup_rec = tracer.start_recording()
        tracer.install()
    try:
        wl.setup(args.seed, args.workdir)
    finally:
        if tracer:
            tracer.uninstall()
    setup_s = time.perf_counter() - T0

    result = {"workload": args.workload, "setup_s": setup_s}
    if not args.setup_only:
        if tracer:
            spans = args.workdir.parent / f"{args.workload}-seed{args.seed}.spans.json"
            result.update(run_traced(wl, tracer, setup_rec, args.seconds, spans))
            result["spans_file"] = str(spans)
        else:
            result.update(run_units(wl, args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["numpy"] = np.__version__
        result["blas_threads"] = blas_threads()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
