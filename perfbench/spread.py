"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload newton-cheb --seeds 1-10 [--out FILE]

Runs perfbench/run.py once per seed (from the repository root, with
``--trace 0`` and the ``run_seconds`` of BENCHMARK.json) and prints,
for each metric, the median of the per-run values and the distance between
their first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of that median.  ``--out`` appends one JSON record per workload with
every per-run value, for a baseline or a before/after comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_seed(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float | None]:
    """(median, (q3 - q1) / median); the share is None for one run or a zero median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            result = run_seed(name, seed, seconds)
            values = {k: m["value"] for k, m in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "values": values})
            print(f"{name} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        summary = {}
        for key in runs[0]["values"]:
            median, share = spread([r["values"][key] for r in runs])
            summary[key] = {"median": median, "iqr_share": share}
            shown = "-" if share is None else f"{share:.4f}"
            print(f"  {name:20s} {key:45s} median {median:12.6g}  iqr/median {shown}")
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": name, "seconds": seconds,
                                    "summary": summary, "runs": runs}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
