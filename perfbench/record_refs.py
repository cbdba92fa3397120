"""Record the N > 16 reference values in ``refs.json``.

Run once, at the commit whose results are taken as the reference:

    python3 perfbench/record_refs.py

Every value is computed in extended precision (exact accumulation of every
ladder sum). The benchmark compares later results against these within the
1e-6 relative tolerance of acceptance criterion 8, because the dense
Liouvillian check only reaches N <= 16.
"""
from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

from workloads import DETUNING_RANGE, DIPOLE_RANGE, POOL_NS, PUMP_RANGE, REFS_PATH

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dickepair import SystemParams, concurrence, expectation_set, steady_pair_density  # noqa: E402
from dickepair.cli import main as cli_main  # noqa: E402
from gates import moment_row  # noqa: E402
from run import git_commit  # noqa: E402

POOL_SIZE = 64


def pool_entry(n: int, rng: random.Random) -> dict:
    rabi = rng.uniform(*PUMP_RANGE) * n / 2.0
    detuning = rng.uniform(*DETUNING_RANGE)
    dipole = rng.uniform(*DIPOLE_RANGE)
    p = SystemParams(n, rabi=rabi, detuning=detuning, dipole_shift=dipole)
    return {
        "rabi": rabi, "detuning": detuning, "dipole": dipole,
        "c": concurrence(steady_pair_density(p, "extended")).concurrence,
        "moments": moment_row(expectation_set(p, "extended")).tolist(),
    }


def figure_columns(name: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / f"{name}.csv"
        if cli_main(["figure", name, "--precision", "extended", "--out", str(out)]) != 0:
            raise SystemExit(f"figure {name} failed")
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return {col: [row[j] for row in rows] for j, col in enumerate(header)}


def main() -> None:
    refs = {
        "commit": git_commit(),
        "precision": "extended",
        "pool": {str(n): [pool_entry(n, random.Random(f"pool:{n}:{i}"))
                          for i in range(POOL_SIZE)] for n in POOL_NS},
        "fig6": figure_columns("fig6"),
    }
    REFS_PATH.write_text(json.dumps(refs, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {REFS_PATH}")


if __name__ == "__main__":
    main()
