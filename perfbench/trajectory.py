"""Write one point of the benchmark trajectory from saved results.

    python3 perfbench/trajectory.py --sets 101-110 201-210 [--traced-seed 1]

Reads ``.perfbench/results/`` as left by ``run.py`` (for instance through
``repeat.py``): the ``--trace 0`` runs of every workload on each seed set,
and the ``--trace 1`` run on ``--traced-seed``. Writes
``trajectory/<commit>.json`` with, per workload and seed set, the median,
quartiles and spread of every end-to-end metric and of the unscaled wall
time, how far each later set's median moved from the first set's, and the
per-layer metrics of the traced run. All results must be of one source.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from repeat import parse_seeds, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench" / "results"


def load(workload: str, seed: int, trace: int) -> dict:
    return json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", nargs="+", required=True, help="seed sets, e.g. 101-110")
    ap.add_argument("--traced-seed", type=int, default=1)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out = {"machine": None, "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in WORKLOADS:
        traced = load(name, args.traced_seed, 1)
        machine = out["machine"] = out["machine"] or traced["machine"]
        entry = {"sets": {}}
        for text in args.sets:
            runs = [load(name, s, 0) for s in parse_seeds(text)]
            if any(r["machine"]["src_sha256_16"] != machine["src_sha256_16"] for r in runs):
                raise SystemExit(f"{name} {text}: results of other source")
            raw = [{"metrics": {"raw_wall_s": {"value": r["info"]["raw_wall_s"], "unit": "s"}}}
                   for r in runs]
            table = summarize(runs, bounds)
            table.update(summarize(raw, {}))
            entry["sets"][text] = {
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "correct": all(r["correct"] for r in runs),
                "tail_percentile": runs[0]["info"]["tail_percentile"],
                "metrics": {k: {f: v[f] for f in ("unit", "median", "q1", "q3", "spread")}
                            for k, v in table.items()},
            }
        first = entry["sets"][args.sets[0]]["metrics"]
        entry["median_shift"] = {
            text: {k: (s["metrics"][k]["median"] - v["median"]) / v["median"]
                   for k, v in first.items()}
            for text, s in entry["sets"].items() if text != args.sets[0]}
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced"] = {k: traced["info"][k]
                           for k in ("traced_wall_s", "untraced_wall_s", "counts")}
        entry["traced"]["correct"] = traced["correct"]
        out["workloads"][name] = entry
    out["commit"] = machine["git_commit"]
    path = HERE / "trajectory" / f"{(out['commit'] or machine['src_sha256_16'])[:7]}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(path)
    for name, entry in out["workloads"].items():
        for text, s in entry["sets"].items():
            spreads = {k: round(v["spread"], 3) for k, v in s["metrics"].items()
                       if v["spread"] is not None}
            print(f"{name} {text}: failed {s['failed']}/{s['attempted']} spread {spreads}")
        for text, shift in entry["median_shift"].items():
            print(f"{name} {text} median shift: "
                  + json.dumps({k: round(v, 3) for k, v in shift.items()}))


if __name__ == "__main__":
    main()
