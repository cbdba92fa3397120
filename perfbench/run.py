"""dickepair benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. Every unit (one pass over the workload) runs in a fresh
single-threaded worker process with OpenBLAS/OpenMP pinned to one thread;
see ``workloads.py`` for the workloads and why each unit starts cold.

``--trace 0`` starts units while the next one is expected to end within
``--seconds`` (and runs at least the workload's minimum number of units) and
reports the end-to-end metrics.
``--trace 1`` runs a fixed set of units, each once untraced and twice with
spans around every layer boundary. It reports the per-layer metrics of the
first traced pass and the tracing overhead, and fails when the two traced
passes disagree on a count. Either way every call passes through the
correctness gate in ``gates.py``, and the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Details
(machine, per-unit figures, gate messages) go to ``.perfbench/results/``.

Times are scaled to the reference speed by calibration bursts interleaved
with the work (``calib.py``): a unit's times are multiplied by
``REF_BURST_S`` over the mean burst time during that unit, a set-up's time
by the same ratio over the bursts taken during the set-up. The unscaled times
and the factors stay in the results file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calib import INTERVAL_S, REF_BURST_S
from tracer import PER_N_SPANS
from workloads import QUERY_NS, WORKLOADS, load_refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 170.0
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)
COUNTS = ("sweep.points", "pairwise.concurrence_calls", "steady.moment_calls",
          "logcomplex.logsum_calls", "logcomplex.logsum_terms", "logcomplex.exact_sums")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dickepair").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
        "calibration": {"ref_burst_s": REF_BURST_S, "interval_s": INTERVAL_S},
        "git_commit": git_commit(),
        "src_sha256_16": src_digest(),
    }


def run_worker(spec: dict) -> tuple[float, dict | None]:
    """Spawn one worker; (seconds up to its ``ready`` line, its result)."""
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(spec) + "\n")
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return setup, None
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def scaled_setup(measured: float, res: dict) -> dict:
    """Set-up without the calibration bursts, scaled to the reference speed."""
    raw = measured - res["setup_spent_s"]
    factor = REF_BURST_S / res["setup_burst_s"]
    return {"setup_s": raw * factor, "raw_setup_s": raw, "setup_factor": factor}


def scale_trace(t: dict, f: float) -> dict:
    for agg in t["spans"].values():
        agg["total_s"] *= f
        agg["self_s"] *= f
    t["per_n_ms"] = {k: [v * f for v in vals] for k, vals in t["per_n_ms"].items()}
    return t


def trace_counts(t: dict) -> dict:
    def calls(name):
        return t["spans"].get(name, {}).get("calls", 0)
    return {"sweep.points": calls("sweep.evaluate_point"),
            "pairwise.concurrence_calls": calls("pairwise.concurrence"),
            "steady.moment_calls": calls("steady.moment"),
            "logcomplex.logsum_calls": calls("logcomplex.logsum_complex"),
            "logcomplex.logsum_terms": t["logsum_terms"],
            "logcomplex.exact_sums": t["exact_sums"]}


class Run:
    """State of one benchmark run: units executed, gate failures, timings."""

    def __init__(self, args, workload, refs):
        self.args = args
        self.workload = workload
        self.refs = refs
        self.tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.setups: list[dict] = []
        self.units: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def spec(self, calls, trace=False, setup_only=False, spans_path=None) -> dict:
        return {"src": str(SRC), "warm_ns": list(self.workload.warm_ns),
                "setup_only": setup_only, "trace": trace, "spans_path": spans_path,
                "calls": [c.worker_view() for c in calls]}

    def probe_setup(self) -> None:
        setup, res = run_worker(self.spec([], setup_only=True))
        if res is not None:
            self.setups.append(scaled_setup(setup, res))

    def unit(self, index: int, trace: int = 0) -> dict:
        """Run unit ``index``; ``trace`` is 0 untraced, else the traced pass number."""
        import gates

        outdir = OUT / "tmp" / f"{self.tag}-u{index}-{trace}"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        calls = self.workload.make_unit(self.args.seed, index, outdir)
        # only the first traced pass of the latest traced run keeps its raw spans
        spans = None
        if trace == 1:
            spans = OUT / "spans" / f"{self.args.workload}-u{index}.tsv"
            spans.parent.mkdir(parents=True, exist_ok=True)
            spans = str(spans)
        setup, res = run_worker(self.spec(calls, trace=bool(trace), spans_path=spans))
        self.attempted += len(calls)
        unit = {"index": index, "trace": trace, "calls": len(calls), "ok": False}
        if not res:
            self.failed += len(calls)
            self.messages.append(f"unit {index}: worker failed")
        else:
            self.setups.append(scaled_setup(setup, res))
            f = REF_BURST_S / res["unit_burst_s"]
            unit.update(ok=True, wall_s=res["wall_s"] * f, raw_wall_s=res["wall_s"], factor=f,
                        bursts=res["unit_bursts"], peak_rss_mb=res["peak_rss_mb"],
                        latencies_s=[x * f for x in res["latencies_s"]])
            if trace:
                unit["trace_summary"] = scale_trace(res["trace"], f)
                unit["counts"] = trace_counts(res["trace"])
            unit["ok_points"] = unit["ok_calls"] = 0
            unit["point_time_s"] = 0.0
            for i, (call, rc) in enumerate(zip(calls, res["codes"])):
                if call.points:
                    unit["point_time_s"] += unit["latencies_s"][i]
                bad = gates.check_call(call, rc, self.refs, f"{self.tag}:{index}:{i}")
                if bad:
                    self.failed += 1
                    self.messages.append(f"unit {index} call {i} {call.argv[:3]}: "
                                         + "; ".join(bad))
                else:
                    unit["ok_points"] += call.points
                    unit["ok_calls"] += 1
        shutil.rmtree(outdir, ignore_errors=True)
        self.units.append(unit)
        return unit


def tail_percentile(samples: int) -> float:
    """Highest candidate percentile with at least ten of ``samples`` beyond it.

    With fewer than eleven samples the tail is the maximum.
    """
    for p in TAIL_CANDIDATES:
        if samples * (1.0 - p / 100.0) >= 10.0:
            return p
    return 100.0


def nearest_rank(sorted_vals: list[float], p: float) -> float:
    k = max(1, math.ceil(p / 100.0 * len(sorted_vals)))
    return sorted_vals[k - 1]


def end_to_end(run: Run) -> tuple[dict, dict]:
    units = [u for u in run.units if u["ok"]]
    lat_ms = sorted(x * 1e3 for u in units for x in u["latencies_s"])
    # the tail ranks the same samples on every run: the first min_units units
    first = units[:run.workload.min_units]
    tail_ms = sorted(x * 1e3 for u in first for x in u["latencies_s"])
    pct = tail_percentile(len(tail_ms))
    setups = [s["setup_s"] for s in run.setups]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(u["wall_s"] for u in units), "s"),
        "points_per_s": (statistics.median(u["ok_points"] / u["point_time_s"] for u in units),
                         "1/s"),
        "queries_per_s": (statistics.median(u["ok_calls"] / u["wall_s"] for u in units), "1/s"),
        "query_p50_ms": (statistics.median(lat_ms), "ms"),
        "query_tail_ms": (nearest_rank(tail_ms, pct), "ms"),
        "peak_rss_mb": (statistics.median(u["peak_rss_mb"] for u in units), "MB"),
    }
    info = {"units": len(units), "raw_wall_s": statistics.median(u["raw_wall_s"] for u in units),
            "unit_factors": [round(u["factor"], 4) for u in units],
            "raw_setup_s": statistics.median(s["raw_setup_s"] for s in run.setups),
            "setup_samples": len(setups), "tail_percentile": pct,
            "tail_samples": len(tail_ms), "latency_samples": len(lat_ms),
            "timed_s": sum(u["wall_s"] for u in units),
            "failed_ratio": run.failed / run.attempted}
    return metrics, info


def per_layer(run: Run) -> tuple[dict, dict]:
    traced = [u for u in run.units if u["ok"] and u["trace"] == 1]
    plain = [u for u in run.units if u["ok"] and not u["trace"]]
    spans, per_n, ctr = {}, {}, {"logsum_terms": 0, "exact_sums": 0, "cache_hits": 0,
                                 "cache_misses": 0}
    for u in traced:
        t = u["trace_summary"]
        for name, agg in t["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += agg[k]
        for key, vals in t["per_n_ms"].items():
            per_n.setdefault(key, []).extend(vals)
        for k in ctr:
            ctr[k] += t[k]

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    logsum_calls = get("logcomplex.logsum_complex", "calls")
    lookups = ctr["cache_hits"] + ctr["cache_misses"]
    traced_wall = statistics.median(u["wall_s"] for u in traced)
    plain_wall = statistics.median(u["wall_s"] for u in plain)
    m = {
        "cli.self_s": (get("cli.run", "self_s"), "s"),
        "sweep.self_s": (get("sweep.sweep", "self_s") + get("sweep.evaluate_point", "self_s"), "s"),
        "sweep.points": (get("sweep.evaluate_point", "calls"), "count"),
        "steady.tables_build_s": (get("steady.tables_build", "total_s"), "s"),
        "steady.tables_cache_hit_ratio": (ctr["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "steady.pair_entries_s": (get("steady.pair_entries", "total_s"), "s"),
        "steady.moment_s": (get("steady.moment", "total_s"), "s"),
        "steady.moment_calls": (get("steady.moment", "calls"), "count"),
        "pairwise.concurrence_s": (get("pairwise.concurrence", "total_s"), "s"),
        "pairwise.concurrence_calls": (get("pairwise.concurrence", "calls"), "count"),
        "logcomplex.logsum_calls": (logsum_calls, "count"),
        "logcomplex.logsum_s": (get("logcomplex.logsum_complex", "total_s"), "s"),
        "logcomplex.logsum_terms": (ctr["logsum_terms"], "count"),
        "logcomplex.exact_sums": (ctr["exact_sums"], "count"),
        "logcomplex.exact_ratio": (ctr["exact_sums"] / logsum_calls if logsum_calls else 0.0,
                                   "ratio"),
        "oracle.liouvillian_s": (get("oracle.build_liouvillian", "total_s"), "s"),
        "oracle.null_space_s": (get("oracle.steady_state_null_space", "total_s"), "s"),
        "oracle.solves": (get("oracle.steady_state_null_space", "calls"), "count"),
        "bench.tracing_overhead_s": (traced_wall - plain_wall, "s"),
    }
    # the per-N table exists only where single-point queries run; elsewhere
    # the layer did no single-point work and reads 0
    for prefix in PER_N_SPANS.values():
        for n in QUERY_NS:
            for prec in ("standard", "extended"):
                vals = per_n.get(f"{prefix}.n{n}.{prec}", [])
                m[f"{prefix}.n{n}.{prec}"] = (statistics.median(vals) if vals else 0.0, "ms")
    info = {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
            "unit_factors": [round(u["factor"], 4) for u in run.units if u["ok"]],
            "counts": counts_repeat(run), "spans": spans,
            "per_n_samples": {k: len(v) for k, v in per_n.items()}}
    return m, info


def counts_repeat(run: Run) -> str:
    """Compare the counts of the two traced passes over each unit of this run."""
    passes = {}
    for u in run.units:
        if u["ok"] and u["trace"]:
            passes.setdefault(u["index"], {})[u["trace"]] = u["counts"]
    diff = sorted({k for p in passes.values() if len(p) == 2
                   for k in COUNTS if p[1][k] != p[2][k]})
    if any(len(p) != 2 for p in passes.values()):
        run.messages.append("a traced pass failed, so the counts were not compared")
        return "not compared"
    if diff:
        run.messages.append(f"counts differ between the two traced passes: {diff}")
        return "differ: " + ", ".join(diff)
    return "repeat exactly"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dickepair" / "__init__.py").is_file():
        print(f"no dickepair sources under {SRC}; run inside a full checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import dickepair

    if Path(dickepair.__file__).resolve().parent != SRC / "dickepair":
        print(f"imported dickepair from {dickepair.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    machine = machine_info()
    run = Run(args, workload, load_refs())
    result_path = OUT / "results" / f"{run.tag}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)

    if args.trace:
        for k in range(workload.traced_units):
            for trace in (0, 1, 2):
                run.unit(k, trace)
        metrics, info = per_layer(run)
    else:
        for _ in range(SETUP_PROBES):
            run.probe_setup()
        # start another unit only while it is expected to end within --seconds
        t_loop, spent = time.perf_counter(), []
        while (len(spent) < workload.min_units or time.perf_counter() - t_loop
               + statistics.median(spent) <= args.seconds):
            t0 = time.perf_counter()
            run.unit(len(spent))
            spent.append(time.perf_counter() - t0)
        metrics, info = end_to_end(run)

    correct = run.failed == 0 and not run.messages
    out = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = dict(out, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine, info=info, messages=run.messages[:50],
                  setups=run.setups,
                  units=[{k: v for k, v in u.items() if k not in ("latencies_s", "trace_summary")}
                         for u in run.units])
    result_path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    print("machine: " + json.dumps(machine))
    for msg in run.messages[:10]:
        print("FAIL " + msg)
    for key, val in info.items():
        if key not in ("spans", "per_n_samples"):
            print(f"{key}: {val}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
