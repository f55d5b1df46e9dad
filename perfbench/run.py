"""tauspec benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one by one

Run it from the repository root; it measures the sources under ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cli_cold
import oracle
import tracer as tracing
import workloads

# BLAS/OpenMP threads of every process the benchmark starts.
THREADS = min(2, len(os.sched_getaffinity(0)))
# In-process workloads run in this many fresh worker processes, one after
# the other; each one gives a set-up sample and measures seconds / WORKERS.
WORKERS = 4
WORKER_MIN_PASSES = 2
CLI_MIN_PASSES = 3
DEADLINE_S = 170.0
SCRATCH = ".perfbench_run"

END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_digits": "digits",
    "residual_digits": "digits",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {"import.tauspec_s": "s"}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.self_s"] = "s"
        out[f"{name}.calls"] = "count"
    for name in tracing.COUNT_NAMES:
        out[f"{name}.calls"] = "count"
    out["basis.linearization_row.calls"] = "count"
    out["basis.linearization_row.hit_ratio"] = "ratio"
    out["operators.integration_matrix.distinct_ratio"] = "ratio"
    out["solver.sweeps"] = "count"
    out["solver.equation_defects.per_sweep"] = "ratio"
    out["trace.overhead_frac"] = "ratio"
    return out


def worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def _inproc_records(name, seed, seconds, trace, env, src, scratch, deadline) -> list:
    job = scratch / "job.json"
    job.write_text(json.dumps({
        "src": str(src),
        "operations": workloads.inproc_operations(name, seed),
        "seconds": seconds / WORKERS,
        "min_passes": WORKER_MIN_PASSES,
        "trace": trace,
    }))
    out = scratch / "result.json"
    records = []
    for _ in range(WORKERS):
        out.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("inproc.py")), str(job), str(out)],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"{name} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        records.append(json.loads(out.read_text()))
    return records


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload and return its result record."""
    deadline = time.monotonic() + DEADLINE_S
    src = root / "src"
    # Imports then read bytecode, as from an installed package, on every run.
    compileall.compile_dir(str(src / "tauspec"), quiet=1)
    env = worker_env(src)
    scratch = root / SCRATCH / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if name == "cli-cold":
            records = [cli_cold.run(workloads.cli_operations(seed), seconds, CLI_MIN_PASSES,
                                    trace, env, scratch, deadline)]
        else:
            records = _inproc_records(name, seed, seconds, trace, env, src, scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (root / SCRATCH).rmdir()
        except OSError:
            pass
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return summarize(name, seed, seconds, trace, records, peak_kb)


def summarize(name, seed, seconds, trace, records, peak_kb) -> dict:
    passes = [p for r in records for p in r["passes"]]
    untraced = [p["seconds"] for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    setups = [s for r in records for s in r["setup_s"]]
    imports = [s for r in records for s in r["import_s"]]
    failures = [f for r in records for f in r["failures"]]
    attempted = sum(r["attempted"] for r in records)
    if trace:
        per_pass = [tracing.layer_metrics(p["trace"], p["sweeps"]) for p in traced]
        values = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        values["import.tauspec_s"] = statistics.median(imports)
        values["trace.overhead_frac"] = (
            statistics.median(p["seconds"] for p in traced) / statistics.median(untraced) - 1.0)
        units = per_layer_units()
        samples = {"traced passes": len(traced), "untraced passes": len(untraced)}
    else:
        values = {
            "pass_s": statistics.median(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_kb / 1024.0,
            "error_digits": oracle.digits(max(r["worst_error"] for r in records)),
            "residual_digits": oracle.digits(max(r["worst_residual"] for r in records)),
        }
        units = END_TO_END
        samples = {"pass_s": len(untraced), "setup_s": len(setups)}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": {
            "threads": THREADS,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
        },
        "samples": samples,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def print_report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"failed {record['failed']}/{record['attempted']}  samples {record['samples']}")
    for key, m in record["metrics"].items():
        print(f"  {key:52s} {m['value']:14.6g} {m['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print("record " + json.dumps(record))


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def _run_all(args) -> int:
    """Each workload in a fresh process of this script; a combined last line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=DEADLINE_S + 30)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tauspec" / "__init__.py").is_file():
        print("perfbench: ./src/tauspec not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print_report(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
