"""Seeded benchmark workloads: the CLI calls that each repetition makes.

A repetition ("unit") is one pass over a workload and runs in a fresh
worker process, so no timed repetition can be served by the 128-entry
``_steady_tables`` LRU of an earlier one. Inside a unit every single-point
query gets its own parameter point, so queries do not share cache entries
either. The ``_ladder_tables`` cache is warmed for every ensemble size the
workload uses before timing starts; that warm-up counts as set-up.

The program only sees the generated argv. Points at N <= 16 are drawn fresh
from the seed and checked against the dense Liouvillian. Points at N > 16
are drawn from the reference pool in ``refs.json``, which holds their
extended-precision results recorded once at the seed commit.
"""
from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

QUERY_NS = (2, 6, 50, 74, 200)
POOL_NS = (50, 74, 200)
SINGLE_POINT = ("concurrence", "rho", "expect")
ORACLE_CHECK_NS = (2, 3, 4, 6)
MAXIMIZE_NS = (2, 2, 6, 6)
# per ensemble size and command in one block: standard then extended queries
STANDARD_PER_CELL = 6
EXTENDED_PER_CELL = 2

PUMP_RANGE = (0.05, 3.0)
DETUNING_RANGE = (-10.0, 5.0)
DIPOLE_RANGE = (0.0, 8.0)


@dataclass
class Call:
    """One CLI invocation and what the correctness gate needs to check it."""

    argv: list[str]
    kind: str
    n: int
    precision: str = "standard"
    # parameter points evaluated one per output row by the closed form; 0 for
    # maximize (a search) and oracle-check (a dense-oracle comparison)
    points: int = 1
    params: dict = field(default_factory=dict)
    pool_index: int | None = None

    def worker_view(self) -> dict:
        return {"argv": self.argv, "kind": self.kind, "n": self.n,
                "precision": self.precision}


@dataclass(frozen=True)
class Workload:
    make_unit: Callable[[int, int, Path], list[Call]]
    warm_ns: tuple[int, ...]
    # untraced runs repeat units within --seconds, but never fewer than
    # min_units; the tail latency is taken over the calls of the first
    # min_units units only, so every run and commit ranks the same samples
    min_units: int
    # a traced run does each of this many units once untraced and twice
    # traced, a fixed amount of work whose counts must repeat exactly
    traced_units: int


@functools.cache
def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _figure_unit(name: str, n: int, points: int):
    def make(seed: int, index: int, outdir: Path) -> list[Call]:
        out = str(outdir / f"{name}.csv")
        return [Call(["figure", name, "--out", out], kind=f"figure-{name}", n=n,
                     points=points)]
    return make


def _query_block(seed: int, index: int, outdir: Path) -> list[Call]:
    """128 closed-loop queries with a fixed mix; the seed picks points and order.

    Per block: for each N in QUERY_NS and each single-point command, six
    standard and two extended queries (120), plus four ``maximize`` and one
    ``oracle-check`` per k in ORACLE_CHECK_NS.
    """
    rng = random.Random(f"point-queries:{seed}:{index}")
    pool = load_refs()["pool"]
    calls = []

    def add(argv, n, precision="standard", points=1, params=None, pool_index=None):
        out = str(outdir / f"q{len(calls):03d}-{argv[0]}.csv")
        calls.append(Call(argv + ["--out", out], kind=argv[0], n=n, precision=precision,
                          points=points, params=params or {}, pool_index=pool_index))

    for n in QUERY_NS:
        cells = [(kind, prec) for kind in SINGLE_POINT
                 for prec in ["standard"] * STANDARD_PER_CELL + ["extended"] * EXTENDED_PER_CELL]
        picks = rng.sample(range(len(pool[str(n)])), len(cells)) if n in POOL_NS else None
        for j, (kind, prec) in enumerate(cells):
            if picks is None:
                pump = rng.uniform(*PUMP_RANGE)
                params = {"rabi": pump * n / 2.0, "detuning": rng.uniform(*DETUNING_RANGE),
                          "dipole": rng.uniform(*DIPOLE_RANGE)}
                pool_index = None
            else:
                pool_index = picks[j]
                params = {k: pool[str(n)][pool_index][k] for k in ("rabi", "detuning", "dipole")}
            add([kind, "--n", str(n), "--rabi", repr(params["rabi"]),
                 "--detuning", repr(params["detuning"]), "--dipole", repr(params["dipole"]),
                 "--precision", prec], n, prec, params=params, pool_index=pool_index)
    for n in MAXIMIZE_NS:
        params = {"dipole": rng.uniform(2.0, 8.0), "detuning": rng.uniform(-12.0, 0.0)}
        add(["maximize", "--n", str(n), "--dipole", repr(params["dipole"]),
             "--detuning", repr(params["detuning"]), "--axis", "pump:0.05:3:32"], n,
            points=0, params=params)
    for k in ORACLE_CHECK_NS:
        add(["oracle-check", "--n", str(k)], k, points=0)
    rng.shuffle(calls)
    return calls


WORKLOADS = {
    # 200 x 126 grid at N = 2: each ladder sum has 3x3 terms, so per-point
    # fixed cost dominates (batching should show here, an O(N) sum should not)
    "fig3-landscape": Workload(_figure_unit("fig3", 2, 200 * 126), warm_ns=(2,),
                               min_units=1, traced_units=1),
    # 4 curves x 400 pumps at N = 74: the O(N^2) ladder sums dominate
    "fig6-collective": Workload(_figure_unit("fig6", 74, 4 * 400), warm_ns=(74,),
                                min_units=4, traced_units=2),
    # interactive single-point use; the only workload reaching the oracle,
    # the expect moment path and real work in the exact accumulator
    "point-queries": Workload(_query_block, warm_ns=(2, 3, 4, 6, 50, 74, 200),
                              min_units=8, traced_units=3),
}
