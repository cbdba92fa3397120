"""Grid sweeps, maximization and transition detection."""
import importlib
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dickepair import (
    AxisSpec,
    GridTooCoarse,
    ParamBatch,
    SystemParams,
    concurrence,
    detect_transition,
    expectation,
    find_max_concurrence,
    pairwise,
    steady_pair_density,
    sweep,
)
from dickepair.sweep import RECORD_FIELDS, evaluate_point, evaluate_points
from helpers import per_point_transition

# the package re-exports the function ``sweep`` under the module's name
sweep_module = importlib.import_module("dickepair.sweep")


def test_axis_validation():
    with pytest.raises(ValueError):
        AxisSpec("frequency", 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        AxisSpec("rabi", 1.0, 1.0, 10)
    with pytest.raises(ValueError):
        AxisSpec("rabi", 2.0, 1.0, 10)
    with pytest.raises(ValueError):
        AxisSpec("rabi", 0.0, 1.0, 1)
    # non-finite bounds, or a span past the double range, would make
    # values() overflow
    for start, stop in ((-1e308, 1e308), (0.1, float("inf")), (float("-inf"), 1.0),
                        (float("nan"), 1.0), (0.0, float("nan"))):
        with pytest.raises(ValueError, match="detuning axis needs finite"):
            AxisSpec("detuning", start, stop, 3)
    # a point count that is not an integer would make values() raise TypeError
    for points in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="^axis points must be an integer, got "):
            AxisSpec("pump", 0.1, 1.0, points)
    assert len(AxisSpec("pump", 0.1, 1.0, np.int64(3)).values()) == 3
    # a complex or string bound would make the span check raise a TypeError
    # that names no field
    for start, stop, got in ((1j, 2.0, "1j"), (0.1, "2", "'2'"), (False, 1.0, "False")):
        with pytest.raises(ValueError, match=f"^rabi axis bound must be a real number, got {got}"):
            AxisSpec("rabi", start, stop, 3)
    ax = AxisSpec("pump", 0.1, 2.0, 20)
    vals = ax.values()
    assert vals[0] == 0.1 and vals[-1] == 2.0 and len(vals) == 20


def test_sweep_axis_count_and_distinctness():
    t = SystemParams(n_qubits=2, rabi=1.0)
    with pytest.raises(ValueError):
        sweep(t, ())
    with pytest.raises(ValueError):
        sweep(t, (AxisSpec("rabi", 0.1, 1, 5), AxisSpec("rabi", 0.1, 1, 5)))
    # rabi and pump both set the drive
    with pytest.raises(ValueError):
        sweep(t, (AxisSpec("rabi", 0.5, 1, 3), AxisSpec("pump", 0.2, 0.4, 2)))
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


@pytest.mark.parametrize("precision", ["standard", "extended"])
@pytest.mark.parametrize("n", [2, 6, 74, 200])
def test_records_do_not_depend_on_chunk_size(monkeypatch, n, precision):
    # one batch, chunks of 7 rows and one row at a time give the same bits,
    # also when the element budget is below one row; extended precision
    # sends every row through the exact accumulator
    rng = np.random.default_rng(n)
    size = 61
    points = ParamBatch(n, rng.uniform(0.05, 3.0, size) * n / 2, rng.uniform(-20.0, 5.0, size),
                        rng.uniform(-8.0, 8.0, size))
    row = max(n + 1, sweep_module.MIN_ROW_ENTRIES)
    runs = []
    for budget in (size * row, 7 * row, row, row // 2):
        monkeypatch.setattr(sweep_module, "CHUNK_ELEMENTS", budget)
        runs.append(evaluate_points(points, precision).tobytes())
    assert runs[0] == runs[1] == runs[2] == runs[3]
    one = SystemParams(n, float(points.rabi[3]), float(points.detuning[3]),
                       float(points.dipole_shift[3]))
    assert evaluate_point(one, precision) == evaluate_points(points, precision)[3].item()


@pytest.mark.parametrize("n, precision", [
    *((n, precision) for n in (2, 6, 74, 200) for precision in ("standard", "extended")),
    (5000, "standard"),
])
def test_large_ensemble_rows_do_not_depend_on_their_batch(n, precision):
    # at the default chunk size, over three full chunks and a partial one and
    # across a concurrence stack boundary, every record is the one-point
    # evaluation of its row, bit for bit: the weighted ladder sums reduce each
    # row on its own at every batch shape, and concurrence picks each row's
    # route from that row alone. From N = 4,096 on a chunk is one row, and
    # concurrence takes up to CONCURRENCE_ROWS of them at once.
    step = sweep_module._chunk_rows(n)
    stack = step * max(1, sweep_module.CONCURRENCE_ROWS // step)
    size = max(3 * step, stack) + 5
    rng = np.random.default_rng(1000 + n)
    points = ParamBatch(n, rng.uniform(0.05, 3.0, size) * n / 2, rng.uniform(-10.0, 5.0, size),
                        rng.choice([0.0, 2.0, 5.0], size))
    records = evaluate_points(points, precision)
    for i in range(size):
        assert evaluate_point(points.point(i), precision) == records[i].item(), i


def pump_curve(n, detuning, dipole, size=25):
    """A pump curve at N: every row has the same detuning and dipole, so the same beta."""
    return ParamBatch(n, np.linspace(0.05, 3.0, size) * n / 2, np.full(size, detuning),
                      np.full(size, dipole))


def chunked_records(monkeypatch, points, precision):
    """evaluate_points at the default chunks and at chunks of 7 rows and of one row."""
    row = max(points.n_qubits + 1, sweep_module.MIN_ROW_ENTRIES)
    runs = [evaluate_points(points, precision)]
    for budget in (7 * row, row):
        monkeypatch.setattr(sweep_module, "CHUNK_ELEMENTS", budget)
        runs.append(evaluate_points(points, precision))
    monkeypatch.undo()
    return runs


def one_point_bytes(points, precision):
    """The bytes of every row's evaluate_point record, in row order."""
    return np.array([evaluate_point(points.point(i), precision) for i in range(len(points))],
                    dtype=RECORD_FIELDS).tobytes()


@pytest.mark.parametrize("n, precision", [
    *((n, precision) for n in (2, 6, 74, 200) for precision in ("standard", "extended")),
    (5000, "standard"),
])
def test_pump_curve_records_equal_one_point_records(monkeypatch, n, precision):
    # a chunk of one pump curve builds its beta tables as one row and
    # broadcasts it, and every record is still its row's one-point evaluation,
    # bit for bit; beta = 0 at detuning = -dipole, and a curve at dipole 0
    for detuning, dipole in ((-3.0, 2.0), (-2.5, 2.5), (1.5, 0.0)):
        points = pump_curve(n, detuning, dipole)
        one_point = one_point_bytes(points, precision)
        for records in chunked_records(monkeypatch, points, precision):
            assert records.tobytes() == one_point, (detuning, dipole)


@pytest.mark.parametrize("precision", ["standard", "extended"])
@pytest.mark.parametrize("n", [2, 74])
def test_mixed_beta_chunks_equal_one_point_records(monkeypatch, n, precision):
    # two curves that meet inside a chunk take the per-row tables, and so do
    # (3, -3) beside (-3, 3), whose betas -0.0 and 0.0 compare equal but differ
    # in their bits; rows at detuning = dipole = -0.0 sit beside rows at 0.0
    two_curves = (pump_curve(n, -3.0, 2.0, 11), pump_curve(n, 1.5, 0.0, 12))
    signed_zeros = [pump_curve(n, det, dip, 3) for det, dip in
                    ((-0.0, -0.0), (0.0, 0.0), (-0.0, -0.0), (3.0, -3.0), (-3.0, 3.0))]
    for curves in (two_curves, signed_zeros):
        points = ParamBatch(n, *(np.concatenate([getattr(c, name) for c in curves])
                                 for name in ("rabi", "detuning", "dipole_shift")))
        one_point = one_point_bytes(points, precision)
        for records in chunked_records(monkeypatch, points, precision):
            assert records.tobytes() == one_point


def test_one_large_chunk_matches_default_chunks(monkeypatch):
    # a chunk of 20,000 rows at N = 2 holds complex temporaries above numpy's
    # 256 KiB threshold for reusing a temporary operand as the output
    size = 20_000
    rng = np.random.default_rng(2)
    points = ParamBatch(2, rng.uniform(0.025, 5.0, size), rng.uniform(-20.0, 5.0, size),
                        np.full(size, 5.0))
    default = evaluate_points(points)
    monkeypatch.setattr(sweep_module, "CHUNK_ELEMENTS", size * sweep_module.MIN_ROW_ENTRIES)
    assert evaluate_points(points).tobytes() == default.tobytes()


def matrix_path_record(params, precision):
    """The RECORD_FIELDS bytes of one point read off its 4x4 pair matrix by the 4x4 path."""
    n = params.n_qubits
    rho = steady_pair_density(params, precision)
    res = concurrence(rho)
    r11, r22, r44 = rho[0, 0].real, rho[1, 1].real, rho[3, 3].real
    return np.array([(res.concurrence, res.c_ref_1, res.c_ref_2, (r11 - r44) / 2.0,
                      (r11 + r22) / n + (n - 1) * r22 / n, *res.lambdas)],
                    dtype=RECORD_FIELDS).tobytes()


# one point on each triplet route: the closed-form cubics, the svd of M (a
# nearly flat spectrum), a last Cholesky pivot of round-off size that clamps
# to 0, and the eigh of the triplet block (the ground state, where r11 is 0)
TRIPLET_ROUTE_POINTS = {
    "closed form": (SystemParams(6, 1.0, detuning=-3.0, dipole_shift=2.0).with_pump(0.9), []),
    "svd of M": (SystemParams(74, 1.0).with_pump(1000.0), ["_factor_svd_values"]),
    "clamped pivot": (SystemParams(200, 1.0, detuning=-2.0).with_pump(0.002), []),
    "eigh": (SystemParams(1000, 1e-300), ["_spin_flip_values"]),
}


@pytest.mark.parametrize("precision", ["standard", "extended"])
@pytest.mark.parametrize("route", TRIPLET_ROUTE_POINTS)
def test_entries_path_matches_the_matrix_path_on_every_triplet_route(monkeypatch, route,
                                                                     precision):
    # a sweep hands concurrence the six entries; every record has the bits
    # of the point's 4x4 pair matrix through the 4x4 path, on each route
    params, routes = TRIPLET_ROUTE_POINTS[route]
    calls = []
    for name in ("_factor_svd_values", "_spin_flip_values"):
        def spy(*args, name=name, real=getattr(pairwise, name)):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(pairwise, name, spy)
    record = evaluate_points(ParamBatch.of(params), precision)
    assert calls == routes
    rho = steady_pair_density(params, precision)
    if route == "clamped pivot":
        block = rho[np.ix_([0, 1, 3], [0, 1, 3])] / np.trace(rho).real
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(block)
        assert record["lambda3"][0] == 0.0
    if route == "eigh":
        assert rho[0, 0] == 0.0
    assert record.tobytes() == matrix_path_record(params, precision)
    # the point amid other rows at its N, in one stack
    n = params.n_qubits
    rng = np.random.default_rng(n)
    points = ParamBatch(n, np.insert(rng.uniform(0.05, 3.0, 8) * n / 2, 4, params.rabi),
                        np.insert(rng.uniform(-10.0, 5.0, 8), 4, params.detuning),
                        np.insert(rng.choice([0.0, 2.0, 5.0], 8), 4, params.dipole_shift))
    records = evaluate_points(points, precision)
    for i in range(len(points)):
        assert records[i:i + 1].tobytes() == matrix_path_record(points.point(i), precision), i


def test_sweep_builds_no_pair_matrix(monkeypatch):
    template = SystemParams(n_qubits=6, rabi=1.0, dipole_shift=2.0)
    grid = (AxisSpec("pump", 0.1, 2.0, 9), AxisSpec("detuning", -4.0, 2.0, 7))
    curve = (AxisSpec("pump", 0.1, 2.0, 40),)
    large = SystemParams(n_qubits=74, rabi=1.0, detuning=-3.0, dipole_shift=2.0)
    expected = [sweep(template, grid).data, sweep(large, curve).data]

    def refuse(*args):
        raise AssertionError("a sweep built a 4x4 pair matrix")

    monkeypatch.setattr(pairwise, "_assemble", refuse)
    monkeypatch.setattr(pairwise.PairEntries, "matrices", refuse)
    with pytest.raises(AssertionError, match="4x4"):
        steady_pair_density(template)
    assert sweep(template, grid).data.tobytes() == expected[0].tobytes()
    assert sweep(large, curve).data.tobytes() == expected[1].tobytes()


# tracemalloc peak of evaluate_points over one full default chunk, per row:
# 600 bytes at N = 2 (1,638 rows) and 8,550 at N = 74 (109 rows), numpy 2.4;
# a chunk carried as a (P, 4, 4) stack and checked by the 4x4 path read 922
# at N = 2, and a full-size normalised copy and Hermiticity check there added
# about 500 more. The bounds leave about 150 KB for numpy's
# iterator buffers (8,192 items of a broadcast operand, about 110 KB at
# N = 74), which numpy versions allocate differently
@pytest.mark.parametrize("n, bytes_per_row", [(2, 1_070), (74, 9_900)])
def test_peak_allocation_of_a_full_chunk(n, bytes_per_row):
    rows = sweep_module._chunk_rows(n)
    rng = np.random.default_rng(n)
    points = ParamBatch(n, rng.uniform(0.05, 3.0, rows) * n / 2, rng.uniform(-10.0, 5.0, rows),
                        rng.choice([0.0, 2.0, 5.0], rows))
    evaluate_points(points)  # fills the per-N caches
    tracemalloc.start()
    try:
        evaluate_points(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bytes_per_row * rows, peak / rows


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
    cols = result.columns
    assert cols[0][-1] == 2.0 and cols[1][-1] == -8.0
    # the batch that was evaluated, row for row
    assert result.points.point(5) == replace(t, rabi=2.0, detuning=-8.0)
    assert np.array_equal(result.points.detuning, cols[1])


def test_sweep_is_deterministic():
    t = SystemParams(n_qubits=4, rabi=1.0, detuning=-1.0, dipole_shift=0.5)
    axes = (AxisSpec("pump", 0.2, 1.5, 12),)
    a = sweep(t, axes)
    b = sweep(t, axes)
    assert np.array_equal(a.data, b.data)


def test_concurrent_sweeps_match_serial_runs():
    # distinct parameter points can be evaluated concurrently: no sweep reads
    # or writes tables of another, so four threads give the serial records
    jobs = [
        (SystemParams(n_qubits=2, rabi=1.0, dipole_shift=5.0),
         (AxisSpec("pump", 0.1, 2.0, 40), AxisSpec("detuning", -10.0, 0.0, 30))),
        (SystemParams(n_qubits=6, rabi=1.0, detuning=-1.0), (AxisSpec("pump", 0.2, 1.5, 700),)),
        (SystemParams(n_qubits=50, rabi=1.0, dipole_shift=2.0),
         (AxisSpec("pump", 0.5, 1.2, 150), AxisSpec("detuning", -3.0, 1.0, 3))),
        (SystemParams(n_qubits=74, rabi=1.0), (AxisSpec("pump", 0.8, 1.1, 300),)),
    ]
    serial = [sweep(t, axes).data.tobytes() for t, axes in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        for _ in range(2):
            futures = [pool.submit(sweep, t, axes) for t, axes in jobs]
            assert [f.result().data.tobytes() for f in futures] == serial


def test_concurrence_in_unit_interval_across_grid():
    t = SystemParams(n_qubits=6, rabi=1.0, dipole_shift=3.0, detuning=-4.2)
    result = sweep(t, (AxisSpec("pump", 0.05, 2.5, 40),))
    c = result.data["c"]
    assert (c >= 0.0).all() and (c <= 1.0).all()


def test_two_qubit_resonance_curve_shape():
    # single interior maximum falling to zero at both grid ends
    t = SystemParams(n_qubits=2, rabi=1.0)
    result = sweep(t, (AxisSpec("pump", 0.05, 3.0, 120),))
    c = result.data["c"]
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
    c = dense.data["c"]
    best = dense.columns[0][int(np.argmax(c))]
    argmax, cmax = find_max_concurrence(t, [AxisSpec("rabi", 0.05, 3.0, 33)])
    assert abs(argmax.rabi - best) <= (3.0 - 0.05) / 1999 + 1e-4
    assert cmax >= c.max() - 1e-9


def test_find_max_two_free_axes_matches_dense_grid():
    t = SystemParams(n_qubits=2, rabi=1.0, dipole_shift=5.0)
    dense = sweep(t, (AxisSpec("rabi", 0.2, 3.0, 40), AxisSpec("detuning", -15.0, -5.0, 40)))
    c = dense.data["c"]
    i = int(np.argmax(c))
    best_rabi, best_detuning = (col[i] for col in dense.columns)
    argmax, cmax = find_max_concurrence(
        t, [AxisSpec("rabi", 0.2, 3.0, 33), AxisSpec("detuning", -15.0, -5.0, 33)])
    assert cmax >= c.max() - 1e-9
    assert abs(argmax.rabi - best_rabi) <= (3.0 - 0.2) / 39
    assert abs(argmax.detuning - best_detuning) <= (15.0 - 5.0) / 39


@pytest.mark.parametrize("n", [2, 6])
def test_find_max_two_axes_returns_the_evaluated_point(n):
    # the returned point is the batch row whose concurrence is c_max, so
    # re-evaluating it reproduces c_max to the bit
    t = SystemParams(n_qubits=n, rabi=1.0, dipole_shift=3.0)
    argmax, cmax = find_max_concurrence(
        t, [AxisSpec("pump", 0.3, 1.6, 33), AxisSpec("detuning", -6.0, 0.0, 33)])
    assert argmax.n_qubits == n and argmax.dipole_shift == 3.0
    assert cmax == evaluate_point(argmax)[0]


@pytest.mark.parametrize("template, axis, end", [
    (SystemParams(n_qubits=2, rabi=0.9, dipole_shift=5.0),
     AxisSpec("detuning", -10.0, 0.0, 33), -10.0),
    (SystemParams(n_qubits=2, rabi=1.0, detuning=-10.0, dipole_shift=5.0),
     AxisSpec("rabi", 0.05, 0.5, 33), 0.5),
    (SystemParams(n_qubits=2, rabi=1.0, detuning=-10.0, dipole_shift=5.0),
     AxisSpec("pump", 0.05, 0.5, 33), 0.5),
], ids=["detuning", "rabi", "pump"])
def test_find_max_reaches_axis_end(template, axis, end):
    # the concurrence rises all the way to one end of the axis
    dense = sweep(template, (AxisSpec(axis.name, axis.start, axis.stop, 1001),))
    c = dense.data["c"]
    assert int(np.argmax(c)) in (0, len(c) - 1)
    argmax, cmax = find_max_concurrence(template, [axis])
    assert getattr(argmax, axis.name) == end
    assert abs(cmax - c.max()) <= 1e-12
    assert cmax == evaluate_point(argmax)[0]


def test_find_max_fixed_detuning_bounds():
    # a parameter without an axis keeps its template value
    t = SystemParams(n_qubits=2, rabi=1.0, detuning=-10.0, dipole_shift=5.0)
    argmax, cmax = find_max_concurrence(t, [AxisSpec("rabi", 0.2, 3.0, 33)])
    assert argmax.detuning == -10.0
    assert 0.2 <= argmax.rabi <= 3.0
    assert cmax > 0.3


def test_find_max_constant_landscape(monkeypatch):
    # a flat concurrence landscape: the search still ends inside the bounds
    def flat(points, precision):
        data = np.zeros(len(points), dtype=RECORD_FIELDS)
        data["c"] = 0.7
        return data

    # sweep evaluates its whole grid through the batched entry point
    monkeypatch.setattr(sweep_module, "evaluate_points", flat)
    t = SystemParams(n_qubits=2, rabi=1.0)
    argmax, val = find_max_concurrence(
        t, [AxisSpec("rabi", 0.5, 2.0, 33), AxisSpec("detuning", -1.0, 1.0, 33)])
    assert val == 0.7
    assert 0.5 <= argmax.rabi <= 2.0
    assert -1.0 <= argmax.detuning <= 1.0


@pytest.mark.parametrize("n", [2, 50])
@pytest.mark.parametrize("dipole", [2.0, 5.0])
def test_frequency_tuning_reaches_the_cancelled_detuning_optimum(n, dipole):
    # the paper's first claim: tuning the drive frequency optimises C. At
    # detuning = -dipole the curve is the resonant one stretched by
    # |1 + i delta|, and that detuning lies in the two-axis box, so the
    # tuned optimum is at least the one-axis optimum there (ratios 2.29 and
    # 1.82 at N = 2, about 1.04 at N = 50)
    template = SystemParams(n_qubits=n, rabi=1.0, detuning=-dipole, dipole_shift=dipole)
    stretch = abs(complex(1.0, dipole))
    pump = AxisSpec("pump", 0.3 * stretch, 1.6 * stretch, 33)
    _, c_cancelled = find_max_concurrence(template, [pump])
    _, c_tuned = find_max_concurrence(
        template, [pump, AxisSpec("detuning", -dipole - 3.0, -dipole + 3.0, 33)])
    assert c_tuned >= c_cancelled


def test_find_max_bounds_validation():
    # reversed bounds are rejected by AxisSpec itself (test_axis_validation)
    t = SystemParams(n_qubits=2, rabi=1.0)
    for axes in ([], [AxisSpec("dipole_shift", 0.0, 5.0, 33)],
                 [AxisSpec("rabi", 0.2, 3.0, 33), AxisSpec("pump", 0.1, 2.0, 33)]):
        with pytest.raises(ValueError):
            find_max_concurrence(t, axes)


def test_detect_transition_needs_fine_grid():
    t = SystemParams(n_qubits=20, rabi=1.0)
    with pytest.raises(GridTooCoarse):
        detect_transition(sweep(t, (AxisSpec("pump", 0.1, 2.0, 150),)))
    # the drive must vary alone: a detuning axis or a second axis is no pump curve
    for axes in ((AxisSpec("detuning", -2.0, 2.0, 300),),
                 (AxisSpec("pump", 0.1, 2.0, 200), AxisSpec("detuning", -1.0, 1.0, 2))):
        with pytest.raises(ValueError):
            detect_transition(sweep(t, axes))
    # a rabi axis is the pump axis scaled by N / 2
    by_rabi = detect_transition(sweep(t, (AxisSpec("rabi", 1.0, 20.0, 300),)))
    by_pump = detect_transition(sweep(t, (AxisSpec("pump", 0.1, 2.0, 300),)))
    assert by_rabi.critical_pump == pytest.approx(by_pump.critical_pump, rel=1e-12)


def test_small_system_is_not_sharp():
    t = SystemParams(n_qubits=2, rabi=1.0)
    report = detect_transition(sweep(t, (AxisSpec("pump", 0.05, 3.0, 200),)))
    assert report.sharpness < 1.0
    assert 0.05 <= report.critical_pump <= 3.0


def test_cancelled_detuning_reads_as_resonant_curve():
    # at Delta = -delta the curve is the resonant one with the pump stretched by
    # |1 + i delta/gamma|; on the stretched axis both read the same sharpness
    stretch = abs(complex(1.0, 5.0))
    axis = AxisSpec("pump", 0.05, 6.0 / stretch, 800)
    stretched = AxisSpec("pump", axis.start * stretch, axis.stop * stretch, axis.points)
    resonant = detect_transition(sweep(SystemParams(n_qubits=50, rabi=1.0), (axis,)))
    shifted = detect_transition(
        sweep(SystemParams(n_qubits=50, rabi=1.0, detuning=-5.0, dipole_shift=5.0), (stretched,)))
    assert resonant.sharpness >= 1.0 and shifted.sharpness >= 1.0
    assert shifted.sharpness == pytest.approx(resonant.sharpness, rel=0.01)
    assert shifted.critical_pump == pytest.approx(resonant.critical_pump * stretch, rel=1e-12)


def test_collective_kink_sharpens_with_size():
    axis = (AxisSpec("pump", 0.5, 1.5, 250),)
    small = detect_transition(sweep(SystemParams(n_qubits=6, rabi=1.0), axis))
    large = detect_transition(sweep(SystemParams(n_qubits=40, rabi=1.0), axis))
    assert large.sharpness > small.sharpness
    assert large.sharpness >= 1.0


# the pump axis of acceptance criterion 4
CRITERION_4_AXIS = AxisSpec("pump", 0.0075, 3.0, 400)
STRETCH_5 = abs(complex(1.0, 5.0))
TRANSITION_CURVES = {
    "n50": (SystemParams(n_qubits=50, rabi=1.0), CRITERION_4_AXIS),
    "n74": (SystemParams(n_qubits=74, rabi=1.0), CRITERION_4_AXIS),
    "n200": (SystemParams(n_qubits=200, rabi=1.0), CRITERION_4_AXIS),
    # the three curves of acceptance criterion 5
    "n50-shifted": (SystemParams(n_qubits=50, rabi=1.0, detuning=-5.0, dipole_shift=5.0),
                    AxisSpec("pump", 0.05, 6.0, 800)),
    "n50-wide": (SystemParams(n_qubits=50, rabi=1.0), AxisSpec("pump", 0.05, 6.0, 800)),
    "n50-unstretched": (SystemParams(n_qubits=50, rabi=1.0),
                        AxisSpec("pump", 0.05 / STRETCH_5, 6.0 / STRETCH_5, 800)),
    "n2": (SystemParams(n_qubits=2, rabi=1.0), AxisSpec("pump", 0.05, 3.0, 200)),
    "n20-shifted": (SystemParams(n_qubits=20, rabi=1.0, detuning=-4.0, dipole_shift=2.0),
                    AxisSpec("pump", 0.05, 2.0, 200)),
    "n6-kink": (SystemParams(n_qubits=6, rabi=1.0), AxisSpec("pump", 0.5, 1.5, 250)),
    "n40-kink": (SystemParams(n_qubits=40, rabi=1.0), AxisSpec("pump", 0.5, 1.5, 250)),
    "n200-threshold": (SystemParams(n_qubits=200, rabi=1.0), AxisSpec("pump", 0.5, 1.1, 601)),
}


@pytest.mark.parametrize("curve", sorted(TRANSITION_CURVES))
def test_transition_matches_per_point_reference(curve):
    # the pair-matrix sz_norm of one sweep against one <Sz> moment per pump;
    # the same grid point, though 2 rabi / N may differ from it in the last bit
    template, axis = TRANSITION_CURVES[curve]
    report = detect_transition(sweep(template, (axis,)))
    idx, sharpness = per_point_transition(template, axis.values())
    assert report.critical_pump == pytest.approx(axis.values()[idx], rel=1e-15)
    assert report.sharpness == pytest.approx(sharpness, rel=1e-12)


def test_report_peak_and_collapse():
    reports = {n: detect_transition(sweep(SystemParams(n_qubits=n, rabi=1.0),
                                          (CRITERION_4_AXIS,)))
               for n in (50, 74, 200)}
    peaks = [reports[n].peak_pump for n in (50, 74, 200)]
    scaled = [n * reports[n].peak_c for n in (50, 74, 200)]
    assert peaks[0] < peaks[1] < peaks[2]
    # 2/N bounds the pair concurrence of a permutation-symmetric state
    assert 0.0 < scaled[0] < scaled[1] < scaled[2] <= 2.0
    for report in reports.values():
        assert report.collapse_pump >= report.peak_pump
    # two emitters keep C > 0 up to pump 1.43
    pair = detect_transition(sweep(SystemParams(n_qubits=2, rabi=1.0),
                                   (AxisSpec("pump", 0.05, 1.0, 200),)))
    assert pair.peak_c > 0.0
    assert math.isnan(pair.collapse_pump)


@pytest.mark.parametrize("n", [50, 74])
def test_large_ensemble_peak_location_and_collapse(n):
    # resonant peak just below the collective threshold, concurrence gone by 1.2
    t = SystemParams(n_qubits=n, rabi=1.0)
    report = detect_transition(sweep(t, (AxisSpec("pump", 0.05, 1.5, 200),)))
    assert 0.85 <= report.peak_pump <= 1.0
    assert report.peak_pump <= report.collapse_pump <= 1.2
    assert evaluate_point(t.with_pump(1.2))[0] < 0.02
