"""Steadiness self-check: run the benchmark twice on the same commit and
compare every end-to-end metric with its bound.

    python3 perfbench/selfcheck.py

Each of the two sets runs every workload of BENCHMARK.json on `SEEDS`
seeds for its `run_seconds` (set 1 uses seeds 101 .. 110, set 2 uses
201 .. 210).  For each workload and metric it reports the spread of
each set, (Q3 - Q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`, and the change of the second set's
median against the first, counted in the metric's worse direction.  A
spread or a worsening above the metric's bound fails, `setup_s` included;
a spread above a third of the bound is flagged `tight`.  Raw results go
to `.perfbench_out/selfcheck.json`.  Exits 1 on a failure.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = (1, 2)
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs: dict = {}
    for s in SETS:
        for w in names:
            for seed in range(100 * s + 1, 100 * s + SEEDS + 1):
                res = run_once(w, seed, spec["run_seconds"])
                runs.setdefault(w, []).append({"set": s, "seed": seed, **res})
                values = {k: v["value"] for k, v in res["metrics"].items()}
                print(f"set {s} {w} seed {seed}: correct={res['correct']} {json.dumps(values)}",
                      file=sys.stderr, flush=True)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "selfcheck.json").write_text(json.dumps(runs, indent=1))

    ok = True
    print(f"{'workload':9} {'metric':16} {'bound':>5}  spread1  spread2   worse  verdict")
    for w in names:
        if not all(r["correct"] for r in runs[w]):
            print(f"{w}: incorrect result")
            ok = False
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first, second = ([r["metrics"][name]["value"] for r in runs[w] if r["set"] == s]
                             for s in SETS)
            spreads = (spread(first), spread(second))
            sign = 1 if m["better"] == "lower" else -1
            base = statistics.median(first)
            worse = sign * (statistics.median(second) - base) / base
            verdict = "ok"
            if worse > bound or max(spreads) > bound:
                verdict = "FAIL"
                ok = False
            elif max(spreads) > bound / 3:
                verdict = "tight"
            print(f"{w:9} {name:16} {bound:5.2f} {spreads[0]:8.3f} {spreads[1]:8.3f}"
                  f" {worse:7.3f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
