"""One benchmark unit in a fresh interpreter.

Reads a JSON spec on stdin, starts the interleaved calibration of
``calib.py``, imports the package from the checkout's ``src/``, warms the
ladder tables and prints ``ready`` (the parent times set-up up to that
line). It then runs the unit's CLI calls one after another through
``dickepair.cli.main`` and prints one JSON line with per-call latencies,
exit codes, the unit's wall time, peak RSS and the calibration figures.
Every time it reports is read from :meth:`Calibrator.clock`, so it excludes
the calibration bursts. With ``trace`` set, the layer boundaries are wrapped
by :class:`tracer.Tracer` after warm-up, and the counts it keeps are
returned with the spans.
"""
import json
import resource
import sys
import traceback

from calib import INTERVAL_S, SETUP_INTERVAL_S, Calibrator


def peak_rss_mb() -> float:
    """Peak RSS of this process image.

    ``ru_maxrss`` survives exec, so a worker forked from a large parent would
    report the parent's size; VmHWM belongs to the new address space only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


spec = json.loads(sys.stdin.readline())
sys.path.insert(0, spec["src"])
cal = Calibrator()
cal.start(SETUP_INTERVAL_S)

from dickepair.cli import main  # noqa: E402
from dickepair.params import SystemParams  # noqa: E402
from dickepair.sweep import evaluate_point  # noqa: E402

# off every workload's grid and out of the reference pool, so the warm-up
# leaves nothing in the _steady_tables LRU that a timed call could hit
for n in spec["warm_ns"]:
    evaluate_point(SystemParams(n, rabi=0.4321 * n, detuning=0.123, dipole_shift=0.77))
if not cal.bursts:
    cal.burst()  # a set-up shorter than one interval still gets a sample
result = {"setup_spent_s": cal.spent, "setup_burst_s": cal.mean_burst(0)}
print("ready", flush=True)

if spec["setup_only"]:
    cal.stop()
    print(json.dumps(result), flush=True)
    sys.exit(0)
cal.set_interval(INTERVAL_S)

tracer = None
if spec["trace"]:
    from dickepair import steady
    from tracer import Tracer

    tracer = Tracer(cal.clock)
    tracer.install()
    main = tracer.wrap("bench.query", main)
    cache_before = steady._steady_tables.cache_info()

latencies, codes = [], []
first_burst = len(cal.bursts)
t_unit = cal.clock()
for i, call in enumerate(spec["calls"]):
    if tracer is not None:
        tracer.current_query = i
    t0 = cal.clock()
    try:
        rc = main(call["argv"])
    except Exception:
        traceback.print_exc()
        rc = -1
    latencies.append(cal.clock() - t0)
    codes.append(rc)
wall = cal.clock() - t_unit
cal.stop()
if len(cal.bursts) == first_burst:
    cal.burst()  # a unit shorter than one interval still gets a sample
unit_burst = cal.mean_burst(first_burst)

result.update(
    latencies_s=latencies,
    codes=codes,
    wall_s=wall,
    peak_rss_mb=peak_rss_mb(),
    unit_burst_s=unit_burst,
    unit_bursts=len(cal.bursts) - first_burst,
)
if tracer is not None:
    cache_after = steady._steady_tables.cache_info()
    tracer.uninstall()
    result["trace"] = tracer.summary(spec["calls"])
    result["trace"]["cache_hits"] = cache_after.hits - cache_before.hits
    result["trace"]["cache_misses"] = cache_after.misses - cache_before.misses
    if spec["spans_path"]:
        tracer.write_spans(spec["spans_path"])
print(json.dumps(result), flush=True)
