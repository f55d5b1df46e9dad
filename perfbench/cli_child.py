"""One traced CLI invocation, as the ``tauspec`` console script runs it.

    python3 perfbench/cli_child.py TRACE.json <tauspec arguments...>

Imports ``tauspec.cli``, installs the tracer, calls ``tauspec.cli.main``
with the remaining arguments and exits with its code.  The import time
and the reduced trace are written to TRACE.json.
"""

from __future__ import annotations

import json
import sys
import time

import tracer as tracing


def main(argv: list) -> int:
    start = time.perf_counter()
    import tauspec.cli

    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tauspec.cli.main(argv[2:])
    finally:
        tracer.uninstall()
    with open(argv[1], "w") as f:
        json.dump({"import_s": import_s, "trace": tracer.summary()}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
