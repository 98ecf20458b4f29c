"""One workload run in a fresh interpreter; started by `run.py`.

    python3 perfbench/worker.py --workload NAME --seed N [--seconds S]
                                [--trace 0|1] [--setup-only]

Imports `gdyn` from the checkout's `src/` (and refuses to run if it
resolves anywhere else), builds the workload's inputs, prints `ready`,
then runs the timed loop and prints one JSON line of raw figures.  With
`--setup-only` it exits right after `ready`; `run.py` times that as set-up.
With `--trace 1` an untraced warm-up of a quarter of the time comes
first, then an untraced loop and a traced loop of half the time each, so
that the tracing overhead is measured on warm module memos.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import Corrector

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def timed(wl, seconds: float, whole: bool = False) -> dict:
    """Run work-list items in order, over and over, until `seconds` have
    passed and every item has run at least once (with `whole`, until the
    end of a pass, so that per-pass layer figures keep the list's mix).

    Every repetition is corrected for host speed (`hostspeed`), and an
    item's cost is the median of its corrected repetitions."""
    tr = wl.tracer
    clock = Corrector()
    systems = [0] * wl.pass_len
    failed = i = 0
    start = perf_counter()
    while True:
        k = i % wl.pass_len
        arg = wl.prepare(k)
        if tr:
            tr.new_group()
            tr.on = True
        t0 = perf_counter()
        try:
            out, n = wl.run(k, arg)
            raised = False
        except Exception:
            traceback.print_exc()
            out, n, raised = None, 0, True
        dt = perf_counter() - t0
        if tr:
            tr.on = False
        ok = not raised and wl.check(k, out)
        clock.add(k, dt)
        systems[k] = n
        failed += not ok
        i += 1
        if (i >= wl.pass_len and perf_counter() - start >= seconds
                and not (whole and i % wl.pass_len)):
            break
    reps: list[list[float]] = [[] for _ in range(wl.pass_len)]
    for k, dt in clock.finish():
        reps[k].append(dt)
    cost = [statistics.median(r) for r in reps]
    wall = sum(cost)
    return {
        "items": i,
        "failed": failed,
        "passes": i / wl.pass_len,
        "wall_s": wall,
        "systems_per_s": sum(systems) / wall,
        "cost": cost,
        "probe_ms": statistics.median(clock.probes) * 1000.0,
    }


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _per_item(wl, res: dict) -> dict:
    names = getattr(wl, "names", None)
    if not names:
        return {}
    return {f"verdict_s.{name}": res["cost"][k] for k, name in enumerate(names)}


def plain_run(wl, seconds: float) -> dict:
    res = timed(wl, seconds)
    who = resource.RUSAGE_CHILDREN if wl.subprocesses else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    attempted, failed = wl.verify()
    metrics = {
        "wall_s": res["wall_s"],
        "systems_per_s": res["systems_per_s"],
        "latency_ms.p50": statistics.median(res["cost"]) * 1000.0,
        "latency_ms.p90": _p90(res["cost"]) * 1000.0,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    attempted += res["items"]
    failed += res["failed"]
    detail = {"items": res["items"], "passes": res["passes"], "probe_ms": res["probe_ms"],
              "error_rate": failed / attempted, **_per_item(wl, res)}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "detail": detail}


def traced_run(wl, seconds: float, label: str) -> dict:
    from spans import Tracer, layer_metrics, merge, median_ms
    from workloads import Scaling

    timed(wl, seconds / 4)  # warm-up: module memos fill on the first pass
    base = timed(wl, seconds / 2, whole=True)
    tracer = Tracer()
    tracer.install()
    wl.tracer = tracer
    res = timed(wl, seconds / 2, whole=True)
    attempted, failed = wl.verify()
    trace = tracer.export()
    children = wl.child_traces if wl.subprocesses else []
    if wl.subprocesses:
        trace = merge([trace] + [c["trace"] for c in children])
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{label}.json", "w") as fh:
        json.dump(trace, fh, separators=(",", ":"))
    metrics = layer_metrics(trace, res["passes"])
    metrics["cli.import_ms"] = median_ms([c["import_s"] for c in children])
    metrics["cli.main_ms"] = median_ms([c["main_s"] for c in children])
    metrics["cli.process_ms"] = median_ms(base["cost"]) if wl.subprocesses else 0.0
    metrics["trace.overhead_s"] = res["wall_s"] - base["wall_s"]
    per_item = _per_item(wl, base)
    for name, _, _ in Scaling.SYSTEMS:
        metrics[f"verdict_s.{name}"] = per_item.get(f"verdict_s.{name}", 0.0)
    attempted += base["items"] + res["items"]
    failed += base["failed"] + res["failed"]
    metrics["error_rate"] = failed / attempted
    detail = {"items": base["items"] + res["items"], "traced_items": res["items"],
              "spans": len(trace["spans"]), "untraced_wall_s": base["wall_s"],
              "traced_wall_s": res["wall_s"]}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "detail": detail}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import gdyn

    where = Path(gdyn.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        print(f"error: gdyn resolves to {where}, not under {SRC}", file=sys.stderr)
        return 3
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            out = traced_run(wl, args.seconds, f"{args.workload}-{args.seed}")
        else:
            out = plain_run(wl, args.seconds)
    finally:
        wl.close()
    out["gdyn_file"] = str(where.relative_to(ROOT.resolve()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
