"""Grid sweeps, maximization and transition detection."""
import numpy as np
import pytest

from dickepair import (
    AxisSpec,
    GridTooCoarse,
    SystemParams,
    detect_transition,
    expectation,
    find_max_concurrence,
    sweep,
)
from dickepair.sweep import SHARPNESS_THRESHOLD, evaluate_point


def test_axis_validation():
    with pytest.raises(ValueError):
        AxisSpec("frequency", 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        AxisSpec("rabi", 1.0, 1.0, 10)
    with pytest.raises(ValueError):
        AxisSpec("rabi", 2.0, 1.0, 10)
    with pytest.raises(ValueError):
        AxisSpec("rabi", 0.0, 1.0, 1)
    ax = AxisSpec("pump", 0.1, 2.0, 20)
    vals = ax.values()
    assert vals[0] == 0.1 and vals[-1] == 2.0 and len(vals) == 20


def test_sweep_axis_count_and_distinctness():
    t = SystemParams(n_qubits=2, rabi=1.0)
    with pytest.raises(ValueError):
        sweep(t, ())
    with pytest.raises(ValueError):
        sweep(t, (AxisSpec("rabi", 0.1, 1, 5), AxisSpec("rabi", 0.1, 1, 5)))
    with pytest.raises(ValueError):
        sweep(t, (AxisSpec("rabi", 0.1, 1, 2000), AxisSpec("detuning", -1, 1, 2000)))


def test_sweep_records_equal_direct_calls():
    t = SystemParams(n_qubits=3, rabi=1.0, detuning=-2.0, dipole_shift=1.0)
    ax = AxisSpec("rabi", 0.5, 1.5, 3)
    result = sweep(t, (ax,))
    for value, rec in zip(ax.values(), result.data):
        from dataclasses import replace

        direct = evaluate_point(replace(t, rabi=float(value)))
        assert tuple(rec) == pytest.approx(direct, abs=0)
    # the normalized moments read off the pair matrix equal the moment sums
    for n in (2, 6, 50, 200):
        for pump in (0.05, 0.9, 2.0):
            params = SystemParams(n_qubits=n, rabi=1.0, detuning=-2.0,
                                  dipole_shift=1.5).with_pump(pump)
            rec = evaluate_point(params)
            assert abs(rec[3] - expectation(params, 0, 1, 0).real / n) <= 1e-12
            assert abs(rec[4] - expectation(params, 1, 0, 1).real / n**2) <= 1e-12


def test_pump_axis_converts_to_rabi():
    t = SystemParams(n_qubits=6, rabi=1.0)
    ax = AxisSpec("pump", 0.4, 0.8, 2)
    result = sweep(t, (ax,))
    direct = evaluate_point(t.with_pump(0.4))
    assert tuple(result.data[0]) == pytest.approx(direct, abs=0)


def test_two_axis_row_major_order():
    t = SystemParams(n_qubits=2, rabi=1.0, dipole_shift=5.0)
    ax_a = AxisSpec("rabi", 0.5, 2.0, 3)
    ax_b = AxisSpec("detuning", -12.0, -8.0, 2)
    result = sweep(t, (ax_a, ax_b))
    assert len(result.data) == 6
    from dataclasses import replace

    direct = evaluate_point(replace(t, rabi=2.0, detuning=-8.0))
    assert tuple(result.data[-1]) == pytest.approx(direct, abs=0)
    cols = result.axis_columns()
    assert cols[0][-1] == 2.0 and cols[1][-1] == -8.0


def test_sweep_is_deterministic():
    t = SystemParams(n_qubits=4, rabi=1.0, detuning=-1.0, dipole_shift=0.5)
    axes = (AxisSpec("pump", 0.2, 1.5, 12),)
    a = sweep(t, axes)
    b = sweep(t, axes)
    assert np.array_equal(a.data, b.data)


def test_concurrence_in_unit_interval_across_grid():
    t = SystemParams(n_qubits=6, rabi=1.0, dipole_shift=3.0, detuning=-4.2)
    result = sweep(t, (AxisSpec("pump", 0.05, 2.5, 40),))
    c = result.column("c")
    assert (c >= 0.0).all() and (c <= 1.0).all()


def test_two_qubit_resonance_curve_shape():
    # single interior maximum falling to zero at both grid ends
    t = SystemParams(n_qubits=2, rabi=1.0)
    result = sweep(t, (AxisSpec("pump", 0.05, 3.0, 120),))
    c = result.column("c")
    peak = int(np.argmax(c))
    assert 0 < peak < len(c) - 1
    assert c[0] < 0.01 and c[-1] < 0.01
    assert c.max() > 0.1
    rising, falling = np.diff(c[: peak + 1]), np.diff(c[peak:])
    assert (rising >= -1e-12).all()
    assert (falling <= 1e-12).all()


def test_find_max_matches_dense_scan():
    t = SystemParams(n_qubits=2, rabi=1.0)
    dense = sweep(t, (AxisSpec("rabi", 0.05, 3.0, 2000),))
    c = dense.column("c")
    best = dense.coords[0][int(np.argmax(c))]
    argmax, cmax = find_max_concurrence(t, (0.05, 3.0))
    assert abs(argmax.rabi - best) <= (3.0 - 0.05) / 1999 + 1e-4
    assert cmax >= c.max() - 1e-9


def test_find_max_fixed_detuning_bounds():
    t = SystemParams(n_qubits=2, rabi=1.0, dipole_shift=5.0)
    argmax, cmax = find_max_concurrence(t, (0.2, 3.0), (-10.0, -10.0))
    assert argmax.detuning == -10.0
    assert 0.2 <= argmax.rabi <= 3.0
    assert cmax > 0.3


def test_find_max_constant_landscape():
    t = SystemParams(n_qubits=2, rabi=1.0)
    argmax, val = find_max_concurrence(
        t, (0.5, 2.0), (-1.0, 1.0), objective=lambda p: 0.7
    )
    assert val == 0.7
    assert 0.5 <= argmax.rabi <= 2.0
    assert -1.0 <= argmax.detuning <= 1.0


def test_find_max_bounds_validation():
    t = SystemParams(n_qubits=2, rabi=1.0)
    with pytest.raises(ValueError):
        find_max_concurrence(t, (2.0, 1.0))


def test_detect_transition_needs_fine_grid():
    t = SystemParams(n_qubits=20, rabi=1.0)
    with pytest.raises(GridTooCoarse):
        detect_transition(t, AxisSpec("pump", 0.1, 2.0, 150))
    with pytest.raises(ValueError):
        detect_transition(t, AxisSpec("rabi", 0.1, 2.0, 300))


def test_small_system_is_not_sharp():
    t = SystemParams(n_qubits=2, rabi=1.0)
    report = detect_transition(t, AxisSpec("pump", 0.05, 3.0, 200))
    assert report.sharpness < SHARPNESS_THRESHOLD
    assert not report.sharp
    assert report.kind == "second_order_candidate"
    assert 0.05 <= report.critical_pump <= 3.0


def test_transition_kind_classification():
    resonant = SystemParams(n_qubits=20, rabi=1.0)
    shifted = SystemParams(n_qubits=20, rabi=1.0, detuning=-4.0, dipole_shift=2.0)
    # detuning = -dipole_shift zeroes the effective detuning: a stretched resonant curve
    cancelled = SystemParams(n_qubits=20, rabi=1.0, detuning=-2.0, dipole_shift=2.0)
    axis = AxisSpec("pump", 0.05, 2.0, 200)
    assert detect_transition(resonant, axis).kind == "second_order_candidate"
    assert detect_transition(shifted, axis).kind == "first_order_candidate"
    assert detect_transition(cancelled, axis).kind == "second_order_candidate"


def test_cancelled_detuning_reads_as_resonant_curve():
    # at Delta = -delta the curve is the resonant one with the pump stretched by
    # |1 + i delta/gamma|; on the stretched axis kind, sharpness and flag agree
    stretch = abs(complex(1.0, 5.0))
    axis = AxisSpec("pump", 0.05, 6.0 / stretch, 800)
    stretched = AxisSpec("pump", axis.start * stretch, axis.stop * stretch, axis.points)
    resonant = detect_transition(SystemParams(n_qubits=50, rabi=1.0), axis)
    shifted = detect_transition(
        SystemParams(n_qubits=50, rabi=1.0, detuning=-5.0, dipole_shift=5.0), stretched)
    assert resonant.kind == shifted.kind == "second_order_candidate"
    assert resonant.sharp and shifted.sharp
    assert shifted.sharpness == pytest.approx(resonant.sharpness, rel=0.01)
    assert shifted.critical_pump == pytest.approx(resonant.critical_pump * stretch, rel=1e-12)


def test_collective_kink_sharpens_with_size():
    axis = AxisSpec("pump", 0.5, 1.5, 250)
    small = detect_transition(SystemParams(n_qubits=6, rabi=1.0), axis)
    large = detect_transition(SystemParams(n_qubits=40, rabi=1.0), axis)
    assert large.sharpness > small.sharpness
    assert large.sharp


@pytest.mark.parametrize("n", [50, 74])
def test_large_ensemble_peak_location_and_collapse(n):
    # resonant peak just below the collective threshold, concurrence gone by 1.2
    t = SystemParams(n_qubits=n, rabi=1.0)
    result = sweep(t, (AxisSpec("pump", 0.05, 1.5, 150),))
    c = result.column("c")
    peak_pump = result.coords[0][int(np.argmax(c))]
    assert 0.85 <= peak_pump <= 1.0
    assert evaluate_point(t.with_pump(1.2))[0] < 0.02
