"""rampdro benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in its own child process
with ``OPENBLAS_NUM_THREADS`` pinned; this process only starts children and
reports.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it give the machine and every metric by
name and unit, including the oracle's per-query percentiles.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WORKLOADS = ("train-n10k", "tables-t3-small", "oracle-n100k", "certify-5eps")
BLAS_THREADS = "1"      # pinned for the children: 2 threads were slower and noisier
SETUP_SAMPLES = 7       # set-ups measured per run, the measuring child's included
CHILD_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    }


def child(workload: str, seed: int, seconds: int, trace: int, setup_only: bool = False) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(WORK / f"{workload}-{os.getpid()}")]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    try:
        if trace:
            return child(workload, seed, seconds, 1)
        setups = [child(workload, seed, seconds, 0, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        result = child(workload, seed, seconds, 0)
        result["setup_samples"] = setups + [result["setup_s"]]
        result["setup_s"] = statistics.median(result["setup_samples"])
        return result
    finally:
        shutil.rmtree(WORK / f"{workload}-{os.getpid()}", ignore_errors=True)


def report(workload: str, result: dict, trace: int) -> dict:
    """Print one workload's metrics by name and unit; return the metrics for the result line."""
    print(f"== {workload}  attempted={result['attempted']} failed={result['failed']} "
          f"failed_share={result['failed'] / max(result['attempted'], 1):.4f} correct={result['correct']}")
    for note in result["notes"][:10]:
        print(f"   check: {note}")
    if trace:
        metrics = result["layers"]
        wall = metrics["trace.wall_s"]["value"]
        shares = ", ".join(f"{m} {s / wall:.1%}" for m, s in result["module_self_s"].items() if s > 0)
        print(f"   self time share of traced wall: {shares}")
        print(f"   tracing overhead: {metrics['trace.overhead_s']['value']:+.4f} s over untraced "
              f"{result['untraced_wall_s']:.4f} s; spans in {result['spans_file']}")
    else:
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END.items()}
        print(f"   units={len(result['units'])} unit_s={[round(u, 4) for u in result['units']]}")
        for name, value in result.get("latency_ms", {}).items():
            print(f"   {name} = {value:.6g}" + ("" if name.endswith("samples") else " ms"))
    for name, m in metrics.items():
        print(f"   {name} = {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "rampdro" / "__init__.py").is_file():
        print(f"no rampdro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    info = machine()
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    first = next(iter(results.values()))
    info.update(numpy=first["numpy"], blas_threads_effective=first["blas_threads"])
    print("machine " + json.dumps(info, sort_keys=True))

    metrics = {}
    for name, result in results.items():
        for metric, m in report(name, result, args.trace).items():
            metrics[metric if len(names) == 1 else f"{name}/{metric}"] = m
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
