"""Worker process of the in-process workloads (newton-cheb, linear-manufactured).

    python3 perfbench/inproc.py JOB.json RESULT.json

JOB.json holds the solve list, the measuring budget in seconds and the
trace flag.  The worker times its own ``import tauspec`` first, then one
warm-up pass that fills the process-wide caches (the two together are its
set-up time), then closed-loop passes, one solve at a time, until the
budget is spent.  With tracing on, passes alternate
untraced and traced.  Every solve is checked against the exact solution
and against the warm-up pass bit for bit.
"""

from __future__ import annotations

import time

_START = time.perf_counter()
import tauspec as ts  # noqa: E402  (the import is what is being timed)

IMPORT_S = time.perf_counter() - _START

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402


def _coefficient_bytes(sol) -> bytes:
    return b"".join(sol.series[v].coeffs.tobytes() for v in sol.spec.variables)


def run_pass(operations, tally: oracle.Tally, reference: list | None) -> tuple[float, int, list]:
    """Solve every operation once; returns (solve seconds, sweeps, fingerprints)."""
    seconds = 0.0
    sweeps = 0
    prints = []
    for k, op in enumerate(operations):
        tally.attempted += 1
        label = op["label"]
        start = time.perf_counter()
        try:
            sol = ts.solve(ts.parse_problem(op["doc"]))
        except Exception as exc:  # noqa: BLE001  (a failed solve is counted, not fatal)
            seconds += time.perf_counter() - start
            tally.fail(label, f"raised {exc!r}")
            prints.append(None)
            continue
        seconds += time.perf_counter() - start
        sweeps += len(sol.newton)
        prints.append(_coefficient_bytes(sol))
        if not sol.converged:
            tally.fail(label, "did not converge")
            continue
        basis = sol.spec.basis
        coeffs = {v: sol.series[v].coeffs for v in sol.spec.variables}
        error = oracle.relative_error(basis.family, basis.domain, coeffs, op["exact"])
        tally.check(label, error, max(sol.residual.equation_max))
        if reference is not None and prints[k] != reference[k]:
            tally.fail(label, "coefficients differ from the warm-up pass")
    return seconds, sweeps, prints


def main(argv: list) -> int:
    job = json.loads(Path(argv[1]).read_text())
    src = Path(job["src"]).resolve()
    if src not in Path(ts.__file__).resolve().parents:
        print(f"inproc: tauspec imported from {ts.__file__}, not {src}", file=sys.stderr)
        return 1
    operations = job["operations"]
    tally = oracle.Tally()
    warm_start = time.perf_counter()
    _, _, reference = run_pass(operations, tally, None)
    warmup_s = time.perf_counter() - warm_start
    passes = []
    begin = time.perf_counter()
    last = 0.0
    # stop before a pass that would end past the budget
    while (len(passes) < job["min_passes"]
           or time.perf_counter() - begin + last <= job["seconds"]):
        pass_start = time.perf_counter()
        traced = job["trace"] and len(passes) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            seconds, sweeps, _ = run_pass(operations, tally, reference)
        finally:
            if tracer:
                tracer.uninstall()
        record = {"seconds": seconds, "traced": traced, "sweeps": sweeps}
        if tracer:
            record["trace"] = tracer.summary()
        passes.append(record)
        last = time.perf_counter() - pass_start
    result = {
        "import_s": [IMPORT_S],
        "setup_s": [IMPORT_S + warmup_s],
        "passes": passes,
        **tally.as_dict(),
    }
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
