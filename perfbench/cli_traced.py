"""Run one `gdyn` command with span tracing, for the traced `cli` run.

    python3 perfbench/cli_traced.py SPAN_FILE COMMAND ARGS...

Behaves like `python -m gdyn.cli COMMAND ARGS...` (same output and exit
code) and writes the process's spans, counts, import time and time in
`main` to SPAN_FILE as JSON.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import gdyn.cli  # noqa: E402

t1 = perf_counter()
from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.on = True
t2 = perf_counter()
rc = gdyn.cli.main(sys.argv[2:])
t3 = perf_counter()
tracer.on = False
sys.stdout.flush()
with open(sys.argv[1], "w") as fh:
    json.dump({"trace": tracer.export(), "import_s": t1 - t0, "main_s": t3 - t2}, fh)
raise SystemExit(rc)
