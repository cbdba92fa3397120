"""Correctness gate for every CLI call the benchmark makes.

Runs in the parent process, outside every timed region. A call fails when
its exit code is nonzero or its output breaks a check:

* invariants everywhere: trace 1, Hermitian and positive semidefinite within
  1e-9 for every pair matrix (``rho`` output, or assembled from ``expect``
  moments), concurrence in [0, 1] and spin-flip lambdas >= -1e-9;
* N <= 16: agreement with the dense Liouvillian null space within the
  ``oracle-check`` tolerance 1e-8 (a seeded sample of rows for ``fig3``);
* N > 16: agreement with the extended-precision values recorded in
  ``refs.json`` within criterion 8's 1e-6 relative tolerance.
"""
from __future__ import annotations

import random

import numpy as np

from dickepair import (
    ExpectationSet,
    NumericalFailure,
    SystemParams,
    build_liouvillian,
    concurrence,
    density_expectation_set,
    oracle_pair_density,
    steady_state_null_space,
    two_qubit_rho,
)

ORACLE_TOL = 1e-8
INVARIANT_TOL = 1e-9
REF_REL_TOL = 1e-6
FIG3_SAMPLE = 64
EXPECT_FIELDS = ("s_plus_re", "s_plus_im", "s_z", "s_z2", "s_plus_sz_re", "s_plus_sz_im",
                 "s_plus2_re", "s_plus2_im", "s_plus_s_minus")


def read_csv(path):
    """(metadata dict, header, float rows) of a dickepair CSV file."""
    meta, lines = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(": ")
                meta[key] = value
            else:
                lines.append(line.rstrip("\n"))
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float)
    return meta, header, rows.reshape(len(lines) - 1, len(header))


def rel_diff(a, b) -> float:
    """Criterion 8's relative difference, floored at 1e-12."""
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def _oracle(n: int, rabi: float, detuning: float, dipole: float):
    """(pair matrix, collective moments) from the dense Liouvillian null space."""
    p = SystemParams(n, rabi=rabi, detuning=detuning, dipole_shift=dipole)
    state = steady_state_null_space(build_liouvillian(p))
    return oracle_pair_density(state, n), density_expectation_set(state)


def moment_row(m: ExpectationSet) -> np.ndarray:
    return np.array([m.s_plus.real, m.s_plus.imag, m.s_z, m.s_z2, m.s_plus_sz.real,
                     m.s_plus_sz.imag, m.s_plus2.real, m.s_plus2.imag, m.s_plus_s_minus])


def _moments_from_row(row) -> ExpectationSet:
    return ExpectationSet(s_plus=complex(row[0], row[1]), s_z=row[2], s_z2=row[3],
                          s_plus_sz=complex(row[4], row[5]),
                          s_plus2=complex(row[6], row[7]), s_plus_s_minus=row[8])


def _c_ok(c: float, lambdas=()) -> list[str]:
    bad = []
    if not 0.0 <= c <= 1.0:
        bad.append(f"concurrence {c!r} outside [0, 1]")
    if len(lambdas) and min(lambdas) < -INVARIANT_TOL:
        bad.append(f"spin-flip lambda {min(lambdas)!r} below -{INVARIANT_TOL}")
    return bad


def rho_invariants(rho: np.ndarray) -> tuple[list[str], float | None]:
    """Failures of the pair-matrix invariants, and its concurrence."""
    bad = []
    trace_err = abs(np.trace(rho) - 1.0)
    herm_err = float(np.max(np.abs(rho - rho.conj().T)))
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if trace_err > INVARIANT_TOL:
        bad.append(f"|trace - 1| = {trace_err:.3e}")
    if herm_err > INVARIANT_TOL:
        bad.append(f"hermiticity error {herm_err:.3e}")
    if min_eig < -INVARIANT_TOL:
        bad.append(f"eigenvalue {min_eig:.3e} below -{INVARIANT_TOL}")
    try:
        res = concurrence(rho)
    except NumericalFailure as exc:
        return bad + [f"concurrence failed: {exc}"], None
    return bad + _c_ok(res.concurrence, res.lambdas), res.concurrence


def _check_single(call, header, rows, refs) -> list[str]:
    n, prm = call.n, call.params
    row = rows[0]
    pool = None if call.pool_index is None else refs["pool"][str(n)][call.pool_index]
    oracle = _oracle(n, prm["rabi"], prm["detuning"], prm["dipole"]) if pool is None else None
    if call.kind == "concurrence":
        c, lambdas, ref1, ref2 = row[0], row[1:5], row[5], row[6]
        bad = _c_ok(c, lambdas)
        if pool is not None:
            if rel_diff(c, pool["c"]) > REF_REL_TOL:
                bad.append(f"C {c!r} vs reference {pool['c']!r}")
        else:
            ref = concurrence(oracle[0])
            err = max(abs(c - ref.concurrence), abs(ref1 - ref.c_ref_1),
                      abs(ref2 - ref.c_ref_2))
            if err > ORACLE_TOL:
                bad.append(f"concurrence differs from the dense oracle by {err:.3e}")
        return bad
    if call.kind == "rho":
        rho = (row[0::2] + 1j * row[1::2]).reshape(4, 4)
        bad, c = rho_invariants(rho)
        if pool is not None:
            if c is not None and rel_diff(c, pool["c"]) > REF_REL_TOL:
                bad.append(f"C {c!r} vs reference {pool['c']!r}")
        else:
            err = float(np.max(np.abs(rho - oracle[0])))
            if err > ORACLE_TOL:
                bad.append(f"rho differs from the dense oracle by {err:.3e}")
        return bad
    # expect
    if header != list(EXPECT_FIELDS):
        return [f"unexpected expect header {header}"]
    bad, _ = rho_invariants(two_qubit_rho(_moments_from_row(row), n))
    if pool is not None:
        ref = np.array(pool["moments"])
        worst = max(rel_diff(a, b) for a, b in zip(row, ref))
        if worst > REF_REL_TOL:
            bad.append(f"moments differ from reference by {worst:.3e} relative")
    else:
        err = float(np.max(np.abs(row - moment_row(oracle[1]))))
        if err > ORACLE_TOL:
            bad.append(f"moments differ from the dense oracle by {err:.3e}")
    return bad


def _check_maximize(call, rows) -> list[str]:
    rabi, _, detuning, c_max = rows[0]
    bad = _c_ok(c_max)
    ref = concurrence(_oracle(call.n, rabi, detuning, call.params["dipole"])[0]).concurrence
    if abs(c_max - ref) > ORACLE_TOL:
        bad.append(f"c_max {c_max!r} vs dense oracle {ref!r} at the reported argmax")
    return bad


def _check_fig3(meta, header, rows, sample_seed) -> list[str]:
    col = {name: j for j, name in enumerate(header)}
    lambdas = rows[:, col["lambda1"]:col["lambda4"] + 1]
    bad = []
    if rows.shape[0] != 200 * 126:
        bad.append(f"fig3 has {rows.shape[0]} rows, expected {200 * 126}")
    if (rows[:, col["c"]] < 0).any() or (rows[:, col["c"]] > 1).any():
        bad.append("fig3 concurrence outside [0, 1]")
    if lambdas.min() < -INVARIANT_TOL:
        bad.append(f"fig3 spin-flip lambda {lambdas.min():.3e} below -{INVARIANT_TOL}")
    if np.abs(rows[:, col["sz_norm"]]).max() > 0.5 + INVARIANT_TOL:
        bad.append("fig3 |<Sz>/N| above 1/2")
    dipole = float(meta["dipole_shift"])
    rng = random.Random(sample_seed)
    worst = 0.0
    for i in rng.sample(range(rows.shape[0]), FIG3_SAMPLE):
        r = rows[i]
        rho, mom = _oracle(2, r[col["rabi"]], r[col["detuning"]], dipole)
        ref = concurrence(rho)
        expect = [ref.concurrence, ref.c_ref_1, ref.c_ref_2, mom.s_z / 2.0,
                  mom.s_plus_s_minus / 4.0]
        got = [r[col[k]] for k in ("c", "c_ref1", "c_ref2", "sz_norm", "spsm_norm")]
        worst = max(worst, max(abs(a - b) for a, b in zip(got, expect)))
    if worst > ORACLE_TOL:
        bad.append(f"fig3 sample differs from the dense oracle by {worst:.3e}")
    return bad


def _check_fig6(header, rows, refs) -> list[str]:
    ref = refs["fig6"]
    bad = []
    if header != list(ref) or rows.shape[0] != len(ref["pump"]):
        return [f"fig6 layout {header} x {rows.shape[0]} differs from the reference"]
    for j, name in enumerate(header):
        if not name.startswith("c_") or name.startswith("c_ref"):
            continue
        got = rows[:, j]
        if (got < 0).any() or (got > 1).any():
            bad.append(f"fig6 {name} outside [0, 1]")
        worst = max(rel_diff(a, b) for a, b in zip(got, ref[name]))
        if worst > REF_REL_TOL:
            bad.append(f"fig6 {name} differs from reference by {worst:.3e} relative")
    return bad


def check_call(call, rc: int, refs: dict, sample_seed: str) -> list[str]:
    """Failure messages for one call; empty when it passes."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        meta, header, rows = read_csv(call.argv[call.argv.index("--out") + 1])
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    if rows.shape[0] == 0:
        return ["no output rows"]
    if call.kind == "oracle-check":
        worst = float(meta.get("worst_error", "nan"))
        if not worst <= ORACLE_TOL or rows.shape[0] != 75:
            return [f"oracle-check worst error {worst!r} over {rows.shape[0]} rows"]
        return []
    if meta.get("precision") != call.precision:
        return [f"output precision {meta.get('precision')!r}, asked for {call.precision!r}"]
    if call.kind == "maximize":
        return _check_maximize(call, rows)
    if call.kind == "figure-fig3":
        return _check_fig3(meta, header, rows, sample_seed)
    if call.kind == "figure-fig6":
        return _check_fig6(header, rows, refs)
    return _check_single(call, header, rows, refs)
