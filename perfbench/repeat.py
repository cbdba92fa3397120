"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload point-queries --seeds 1-10 [--trace 1]

For every metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median, next to a third of the bound fixed in BENCHMARK.json,
the level a steady benchmark stays under. Runs are sequential; each leaves
its results file in ``.perfbench/results/``, which ``trajectory.py`` reads.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], bounds: dict) -> dict:
    table = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        table[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1,
                       "q3": q3, "spread": (q3 - q1) / med if med else None,
                       "bound": bounds.get(name), "values": vals}
    return table


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        res = run_once(args.workload, seed, bench["run_seconds"], args.trace)
        res["seed"] = seed
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
    table = summarize(runs, bounds)
    for name, row in table.items():
        third = f"{row['bound'] / 3:.3f}" if row["bound"] is not None else "-"
        spread = f"{row['spread']:.4f}" if row["spread"] is not None else "-"
        print(f"{name:40s} median {row['median']:.6g} {row['unit']:6s} "
              f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {spread} (bound/3 {third})")


if __name__ == "__main__":
    main()
