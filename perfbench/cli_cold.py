"""The cli-cold workload: fresh ``python -m tauspec.cli solve`` processes.

Each pass runs the seeded argument lists one process at a time and times
each from start to exit.  Every invocation must exit 0, write a
``tauspec-solution/1`` document whose coefficients match the exact
solution, and write the same bytes on every pass.  Set-up time is the
median time of a fresh ``import tauspec.cli``, taken in IMPORTS_PER_PASS
processes before each pass so that the samples spread over the run as the
passes do.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracer as tracing

IMPORTS_PER_PASS = 3
SOLUTION_FORMAT = "tauspec-solution/1"
_IMPORT_PROBE = (
    "import time; s = time.perf_counter(); import tauspec.cli; "
    "print(repr(time.perf_counter() - s))")
_HERE = Path(__file__).resolve().parent


def _run(cmd, env, deadline) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def import_times(env, deadline) -> list[float]:
    out = []
    for _ in range(IMPORTS_PER_PASS):
        proc = _run([sys.executable, "-c", _IMPORT_PROBE], env, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _check(op, proc, out_file: Path, first: dict, tally: oracle.Tally) -> int:
    """Check one invocation; returns its Newton sweep count."""
    label = op["label"]
    if proc.returncode != 0:
        tally.fail(label, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return 0
    try:
        raw = out_file.read_bytes()
        doc = json.loads(raw)
    except (OSError, ValueError) as exc:
        tally.fail(label, f"unreadable output: {exc}")
        return 0
    if first.setdefault(label, raw) != raw:
        tally.fail(label, "output differs from the first pass")
    if doc.get("format") != SOLUTION_FORMAT:
        tally.fail(label, f"format tag {doc.get('format')!r}")
    if doc.get("converged") is not True:
        tally.fail(label, "did not converge")
    try:
        error = oracle.relative_error(doc["basis"]["family"], doc["basis"]["domain"],
                                      doc["coefficients"], op["exact"])
        residual = max(doc["residual"]["equation_max"])
        sweeps = len(doc["newton"])
    except (KeyError, TypeError, ValueError) as exc:
        tally.fail(label, f"malformed solution document: {exc!r}")
        return 0
    tally.check(label, error, residual)
    return sweeps


def run(operations, seconds: float, min_passes: int, trace: bool, env,
        scratch: Path, deadline: float) -> dict:
    """Measure the workload; returns the same record shape as the in-process worker."""
    imports = []
    tally = oracle.Tally()
    first: dict = {}
    passes = []
    measured = 0.0
    last = 0.0
    # stop before a pass that would end past the budget; the import probes
    # are not part of it
    while len(passes) < min_passes or measured + last <= seconds:
        imports += import_times(env, deadline)
        pass_start = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        elapsed = 0.0
        sweeps = 0
        summaries = []
        for k, op in enumerate(operations):
            out_file = scratch / f"solution-{k}.json"
            out_file.unlink(missing_ok=True)
            tail = [*op["argv"], "--format", "json", "--out", str(out_file)]
            if traced:
                trace_file = scratch / f"trace-{k}.json"
                cmd = [sys.executable, str(_HERE / "cli_child.py"), str(trace_file), *tail]
            else:
                cmd = [sys.executable, "-m", "tauspec.cli", *tail]
            tally.attempted += 1
            start = time.perf_counter()
            proc = _run(cmd, env, deadline)
            elapsed += time.perf_counter() - start
            sweeps += _check(op, proc, out_file, first, tally)
            if traced and proc.returncode == 0:
                summaries.append(json.loads(trace_file.read_text())["trace"])
        record = {"seconds": elapsed, "traced": traced, "sweeps": sweeps}
        if traced:
            record["trace"] = tracing.combine(summaries)
        passes.append(record)
        last = time.perf_counter() - pass_start
        measured += last
    return {"import_s": imports, "setup_s": imports, "passes": passes, **tally.as_dict()}
