"""gdyn benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload mine|suite|scaling|cli --seed N
                             --seconds S --trace 0|1

Run from the root of a checkout.  Set-up is timed on fresh interpreters
(untraced runs only): the median of `SETUP_SAMPLES` set-up-only
processes, half before and half after the run, each corrected for host
speed (`hostspeed`).  This process and its children are pinned to one
CPU.  The workload runs in its own fresh interpreter (`worker.py`) so
memory and module memos start the same way on every commit.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`,
the per-layer metrics with `--trace 1`.  Lines before it record where
`gdyn` was imported from, the git SHA and dirty flag when the checkout
is a git repository, the CPU count, the Python version, and per-workload
details.  Exits non-zero without a result if `src/gdyn` is missing or the
run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 12
TIME_LIMIT = 170.0


class RunError(Exception):
    pass


def spawn(cmd: list[str], limit: float) -> tuple[float, str]:
    """Start `cmd`, time it until it prints `ready`, and return that time
    with the rest of its standard output.  Killed after `limit` seconds."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(limit, 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0 or first.strip() != "ready":
        raise RunError(f"{' '.join(cmd[1:])} exited with {rc}")
    return ready, rest


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "dirty": None}

    def git(*a):
        return subprocess.run(["git", "-C", str(ROOT), *a], capture_output=True,
                              text=True, timeout=30).stdout.strip()

    return {"git_sha": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise RunError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "gdyn" / "__init__.py").is_file():
        raise RunError(f"no gdyn package under {ROOT / 'src'}")

    hostspeed.pin()
    deadline = monotonic() + TIME_LIMIT
    base = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed)]

    def setup_sample() -> float:
        before = hostspeed.probe()
        ready = spawn(base + ["--setup-only"], deadline - monotonic())[0]
        return ready * 2.0 * hostspeed.PROBE_S / (before + hostspeed.probe())

    samples = 0 if args.trace else SETUP_SAMPLES
    setup = [setup_sample() for _ in range(samples // 2)]
    _, out = spawn(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                   deadline - monotonic())
    # the other half after the run, so that set-up samples two moments of the host
    setup += [setup_sample() for _ in range(samples - samples // 2)]
    result = json.loads(out.strip().splitlines()[-1])

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setup)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RunError(f"worker did not report {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = {"gdyn_file": result["gdyn_file"], **git_state(), "nproc": os.cpu_count(),
           "python": platform.python_version(), "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print("env: " + json.dumps(env))
    print("detail: " + json.dumps(result["detail"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
