"""The package names the benchmark harness in perfbench/ reaches for.

The harness patches, imports and reads these names from outside ``src/``;
a refactor that renames one breaks ``--trace 1`` or the correctness gate
without failing any other test.
"""
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(autouse=True)
def perfbench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_tracer_installs_counts_and_uninstalls(tmp_path):
    from tracer import Tracer

    from dickepair.cli import main

    logcomplex, steady = (importlib.import_module(f"dickepair.{m}")
                          for m in ("logcomplex", "steady"))
    originals = (logcomplex.math, steady.logsum_complex, steady._SteadyTables.moment)
    tracer = Tracer()
    tracer.install()
    try:
        # an operating point no other test uses, so the tables are built here
        argv = ["expect", "--n", "3", "--rabi", "0.8123", "--detuning", "-1.7",
                "--precision", "extended", "--out", str(tmp_path / "e.csv")]
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    assert (logcomplex.math, steady.logsum_complex, steady._SteadyTables.moment) == originals
    summary = tracer.summary([])
    for name in ("cli.run", "steady.expectation_set", "steady.tables_build",
                 "steady.moment", "logcomplex.logsum_complex"):
        assert summary["spans"][name]["calls"] > 0, name
    # extended precision sums every ladder sum exactly, through logcomplex.math
    assert summary["exact_sums"] == summary["spans"]["logcomplex.logsum_complex"]["calls"]
    assert summary["logsum_terms"] > 0


def test_tracer_spans_a_batched_sweep(tmp_path):
    from tracer import Tracer

    from dickepair.cli import main

    tracer = Tracer()
    tracer.install()
    patched = list(tracer._undo)
    try:
        argv = ["sweep", "--n", "3", "--dipole", "1.3", "--axis", "pump:0.2:1.1:4",
                "--axis", "detuning:-2:0:3", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
    spans = tracer.summary([])["spans"]
    for name in ("sweep.sweep", "pairwise.steady_pair_density", "pairwise.concurrence"):
        assert spans[name]["calls"] > 0, name


def test_gates_import():
    gates = importlib.import_module("gates")
    assert callable(gates.read_csv)


def test_worker_names():
    from dickepair import steady
    from dickepair.sweep import evaluate_point

    assert callable(evaluate_point)
    info = steady._steady_tables.cache_info()
    assert info.hits >= 0 and info.misses >= 0
