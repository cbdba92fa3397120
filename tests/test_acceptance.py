"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the scoreboard.
Criteria 4 and 5 check the transition signatures that the exact steady
state has at finite N, each read off one ``detect_transition`` report per
swept curve. The steepest response of <Sz>/N lies below the
mean-field pump 1.00 (0.94 at N = 50) and rises toward it with N (within
0.05 at N = 200). The N = 50 peak concurrence (0.0103, about 0.5/N) is
checked against an independent dense ladder solve and the 2/N bound for
symmetric states. The shifted operating point of criterion 5 has zero
effective detuning, so its curve is the resonant one with the pump
stretched by |1 + i delta/gamma|; its markers are compared on that axis.
"""
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from dickepair import (
    ParamBatch,
    SystemParams,
    concurrence,
    detect_transition,
    expectation_set,
    find_max_concurrence,
    oracle_pair_density,
    steady_pair_density,
    sweep,
)
from dickepair.cli import FIGURES
from dickepair.oracle import density_expectation_set
from dickepair.sweep import AxisSpec, evaluate_point
from helpers import (
    MOMENT_FIELDS,
    charpoly_concurrence,
    dense_ladder_steady_state,
    random_symmetric_rho,
    steady_rho,
)

PUMPS_400 = np.linspace(0.0075, 3.0, 400)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@lru_cache(maxsize=None)
def preset_curve(n_qubits: int, dipole: float, detuning: float, precision: str):
    """C, C_ref1, C_ref2 and density-matrix invariants along the pump grid.

    The 400 pumps are one batch; numpy reduces every matrix of the stack on
    its own, so each value equals the one-matrix call's.
    """
    # rabi = pump * N / 2, the arithmetic of SystemParams.with_pump
    points = ParamBatch(n_qubits, rabi=PUMPS_400 * n_qubits / 2.0,
                        detuning=np.full(len(PUMPS_400), float(detuning)),
                        dipole_shift=np.full(len(PUMPS_400), float(dipole)))
    pair = steady_pair_density(points, precision=precision)
    res = concurrence(pair)
    rho = pair.matrices()
    # np.trace sums a stack's diagonals in another order than one matrix's;
    # a contiguous row sum keeps the one-matrix order
    trace = np.ascontiguousarray(rho.diagonal(axis1=1, axis2=2)).sum(axis=1)
    worst_trace = float(np.abs(trace.real - 1.0).max())
    worst_herm = float(np.abs(rho - rho.conj().transpose(0, 2, 1)).max())
    min_eig = float(np.linalg.eigvalsh(rho).min())
    return res.concurrence, res.c_ref_1, res.c_ref_2, worst_trace, worst_herm, min_eig


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    worst_moment = 0.0
    worst_rho = 0.0
    for n in (2, 3, 4, 6):
        for rabi in np.linspace(0.2, 5.0, 5):
            for det in np.linspace(-10.0, 2.0, 5):
                for dip in (0.0, 2.0, 5.0):
                    params = SystemParams(n_qubits=n, rabi=float(rabi),
                                          detuning=float(det), dipole_shift=float(dip))
                    analytic = expectation_set(params)
                    rho_ss = steady_rho(params)
                    reference = density_expectation_set(rho_ss)
                    worst_moment = max(worst_moment, max(
                        abs(getattr(analytic, fld) - getattr(reference, fld))
                        for fld in MOMENT_FIELDS
                    ))
                    worst_rho = max(worst_rho, float(np.abs(
                        steady_pair_density(params) - oracle_pair_density(rho_ss, n)
                    ).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_moment <= 1e-8 and worst_rho <= 1e-8 and elapsed < 30.0
    report(1, ok, f"oracle equivalence: moment err {worst_moment:.2e}, "
                  f"pair-matrix err {worst_rho:.2e} (tol 1e-8), {elapsed:.1f}s (< 30s)")
    assert worst_moment <= 1e-8
    assert worst_rho <= 1e-8
    assert elapsed < 30.0


def test_criterion_2_two_qubit_resonant_peak():
    results = {}
    for label, det in (("detuning=-2*shift", -10.0), ("detuning=-shift", -5.0)):
        template = SystemParams(n_qubits=2, rabi=1.0, detuning=det, dipole_shift=5.0)
        _, cmax = find_max_concurrence(template, [AxisSpec("rabi", 0.05, 3.0, 33)])
        results[label] = cmax
    matches = {k: abs(v - 0.34) <= 0.02 for k, v in results.items()}
    detail = ", ".join(f"max C = {v:.4f} at {k} ({'ok' if matches[k] else 'off'})"
                       for k, v in results.items())
    ok = any(matches.values())
    report(2, ok, f"resonant peak 0.34 +- 0.02: {detail}")
    assert ok


def test_criterion_3_off_resonant_enhancement():
    point = SystemParams(n_qubits=2, rabi=1.8, detuning=-12.0, dipole_shift=5.0)
    c_point = evaluate_point(point)[0]

    preset = FIGURES["fig3"]
    template = SystemParams(n_qubits=2, rabi=1.0, dipole_shift=5.0)
    result = sweep(template, preset.axes)
    c = result.data["c"]
    best = int(np.argmax(c))
    rabi_cols, det_cols = result.columns
    best_rabi, best_det = float(rabi_cols[best]), float(det_cols[best])

    ok_point = abs(c_point - 0.40) <= 0.03
    ok_loc = abs(best_rabi - 1.8) <= 0.3 and abs(best_det - (-12.0)) <= 1.0
    ok = ok_point and ok_loc
    report(3, ok, f"C(1.8, -12) = {c_point:.4f} (0.40 +- 0.03); grid max "
                  f"C = {c[best]:.4f} at ({best_rabi:.3f}, {best_det:.2f}), "
                  f"target (1.8 +- 0.3, -12 +- 1)")
    assert ok_point
    assert ok_loc


def test_criterion_4_second_order_signature():
    template = SystemParams(n_qubits=50, rabi=1.0)
    axis = AxisSpec("pump", float(PUMPS_400[0]), float(PUMPS_400[-1]), len(PUMPS_400))
    t0 = time.perf_counter()
    transition = detect_transition(sweep(template, (axis,)))
    elapsed = time.perf_counter() - t0

    # the steepest response sits below the mean-field pump 1 at finite N and
    # approaches it as N grows
    critical = {50: transition.critical_pump}
    for n in (74, 200):
        curve = sweep(SystemParams(n_qubits=n, rabi=1.0), (axis,))
        critical[n] = detect_transition(curve).critical_pump

    c_above = float(evaluate_point(template.with_pump(1.2))[0])
    c_peak, pump_peak = transition.peak_c, transition.peak_pump
    rho_dense, residual = dense_ladder_steady_state(template.with_pump(pump_peak))
    c_dense = charpoly_concurrence(oracle_pair_density(rho_dense, 50))
    # pairwise C of a permutation-symmetric N-qubit state is at most 2/N
    bound = 2.0 / template.n_qubits

    ok_approach = critical[50] < critical[74] < critical[200]
    ok_critical = abs(critical[200] - 1.00) <= 0.05
    ok_above = c_above < 0.02
    ok_dense = residual <= 1e-10 and abs(c_peak - c_dense) <= 1e-8
    ok_peak = 0.0 < c_peak <= bound and pump_peak <= 1.0
    ok_time = elapsed < 60.0
    ok = ok_approach and ok_critical and ok_above and ok_dense and ok_peak and ok_time
    p_c = ", ".join(f"{critical[n]:.4f} (N={n})" for n in critical)
    report(4, ok, f"critical pump {p_c} (rising: {'ok' if ok_approach else 'off'}; "
                  f"N=200 within 1.00 +- 0.05: {'ok' if ok_critical else 'off'}), "
                  f"C(1.2) = {c_above:.2e} (< 0.02), peak C = {c_peak:.4f} "
                  f"at {pump_peak:.4f} (<= 1), |C - dense| = {abs(c_peak - c_dense):.1e} "
                  f"(<= 1e-8, residual {residual:.1e}), 2/N = {bound:.2f}, "
                  f"{elapsed:.1f}s (< 60s)")
    assert ok_above and ok_time
    assert ok_approach and ok_critical
    assert residual <= 1e-10
    assert abs(c_peak - c_dense) <= 1e-8
    assert ok_peak


def test_criterion_5_first_order_shift():
    axis = AxisSpec("pump", 0.05, 6.0, 800)
    shifted = SystemParams(n_qubits=50, rabi=1.0, detuning=-5.0, dipole_shift=5.0)
    resonant = SystemParams(n_qubits=50, rabi=1.0)
    # detuning = -dipole_shift zeroes the effective detuning (beta = 0), so the
    # shifted curve is the resonant one with pump stretched by |1 + i delta|
    stretch = abs(complex(1.0, shifted.dipole_shift))
    own_axis = AxisSpec("pump", axis.start / stretch, axis.stop / stretch, axis.points)

    result = sweep(shifted, (axis,))
    resonant_own = sweep(resonant, (own_axis,))
    transition = detect_transition(result)
    collapse, critical = transition.collapse_pump, transition.critical_pump
    critical_resonant = detect_transition(sweep(resonant, (axis,))).critical_pump
    critical_template = detect_transition(resonant_own).critical_pump
    rescale_gap = float(np.abs(result.data["c"] - resonant_own.data["c"]).max())

    ok_collapse = not math.isnan(collapse)
    ok_agree = ok_collapse and abs(collapse - critical) / stretch <= 0.05
    ok_shifted = collapse > critical_resonant and critical > critical_resonant
    ok_rescaled = (rescale_gap <= 1e-12
                   and math.isclose(critical, critical_template * stretch, rel_tol=1e-12))
    ok = ok_agree and ok_shifted and ok_rescaled
    report(5, ok, f"C reaches 0 at pump {collapse:.3f}, critical pump {critical:.3f}, "
                  f"gap / |1 + i delta| = {abs(collapse - critical) / stretch:.4f} "
                  f"(<= 0.05: {'ok' if ok_agree else 'off'}); resonant critical "
                  f"{critical_resonant:.3f} (both exceed: {'ok' if ok_shifted else 'off'}); "
                  f"rescaling residual {rescale_gap:.1e} (<= 1e-12), critical ratio "
                  f"{critical / critical_template:.12f} vs {stretch:.12f}")
    assert ok_collapse, "C never reaches 0 past its peak on the pump axis"
    assert ok_shifted
    assert ok_agree
    assert rescale_gap <= 1e-12
    assert math.isclose(critical, critical_template * stretch, rel_tol=1e-12)


def test_criterion_6_analytic_reference_agreement():
    worst_gap = 0.0
    qualifying = 0
    worst_c2 = -np.inf
    for fig in ("fig5", "fig6"):
        preset = FIGURES[fig]
        for dipole, detuning in preset.curves:
            c, c1, c2, *_ = preset_curve(preset.n_qubits, dipole, detuning, "standard")
            mask = c > 0.01
            qualifying += int(mask.sum())
            if mask.any():
                worst_gap = max(worst_gap, float(np.abs(c[mask] - c1[mask]).max()))
            worst_c2 = max(worst_c2, float(c2.max()))
    ok = worst_gap < 1e-3 and worst_c2 <= 0.0
    report(6, ok, f"|C - C_ref1| = {worst_gap:.2e} over {qualifying} points with "
                  f"C > 0.01 (< 1e-3); max C_ref2 = {worst_c2:.2e} (<= 0)")
    assert worst_gap < 1e-3
    assert worst_c2 <= 0.0


def test_criterion_7_concurrence_units():
    bell = np.zeros((4, 4), dtype=complex)
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    bell = np.outer(v, v.conj())
    c_bell = concurrence(bell).concurrence
    c_mixed = concurrence(np.eye(4, dtype=complex) / 4).concurrence

    werner = 0.6 * bell + 0.4 * np.eye(4) / 4
    c_werner = concurrence(werner).concurrence
    c_werner_oracle = charpoly_concurrence(werner)

    rng = np.random.default_rng(2024)
    worst_random = 0.0
    for _ in range(100):
        rho = random_symmetric_rho(rng)
        worst_random = max(worst_random,
                           abs(concurrence(rho).concurrence - charpoly_concurrence(rho)))

    ok = (abs(c_bell - 1.0) < 1e-12 and c_mixed == 0.0
          and abs(c_werner - c_werner_oracle) <= 1e-10
          and abs(c_werner - 0.4) <= 1e-10 and worst_random <= 1e-8)
    report(7, ok, f"Bell C = {c_bell:.15f}, mixed C = {c_mixed}, Werner C = "
                  f"{c_werner:.12f} (oracle {c_werner_oracle:.12f}), 100 random "
                  f"states max |diff| = {worst_random:.2e} (<= 1e-8)")
    assert abs(c_bell - 1.0) < 1e-12
    assert c_mixed == 0.0
    assert abs(c_werner - 0.4) <= 1e-10
    assert abs(c_werner - c_werner_oracle) <= 1e-10
    assert worst_random <= 1e-8


def test_criterion_8_numerical_stability():
    preset = FIGURES["fig6"]
    worst_rel = 0.0
    worst_trace = 0.0
    worst_herm = 0.0
    min_eig = np.inf
    c_all = []
    for dipole, detuning in preset.curves:
        c_std, _, _, t_std, h_std, e_std = preset_curve(74, dipole, detuning, "standard")
        c_ext = preset_curve(74, dipole, detuning, "extended")[0]
        scale = np.maximum(np.maximum(np.abs(c_std), np.abs(c_ext)), 1e-12)
        worst_rel = max(worst_rel, float((np.abs(c_std - c_ext) / scale).max()))
        worst_trace = max(worst_trace, t_std)
        worst_herm = max(worst_herm, h_std)
        min_eig = min(min_eig, e_std)
        c_all.append(c_std)
    c_all = np.concatenate(c_all)
    ok_inv = (worst_trace < 1e-10 and worst_herm < 1e-10 and min_eig >= -1e-9
              and c_all.min() >= 0.0 and c_all.max() <= 1.0)
    ok = worst_rel <= 1e-6 and ok_inv
    report(8, ok, f"standard vs extended relative C difference {worst_rel:.2e} "
                  f"(<= 1e-6); invariants: |trace-1| {worst_trace:.1e}, "
                  f"hermiticity {worst_herm:.1e}, min eigenvalue {min_eig:.1e}, "
                  f"C in [0, 1]: {bool(c_all.min() >= 0 and c_all.max() <= 1)}")
    assert worst_rel <= 1e-6
    assert ok_inv
