"""Moment-level checks of the closed-form steady state."""
import dataclasses
import gc
import warnings
import weakref

import mpmath
import numpy as np
import pytest

from dickepair import (
    IndexRange,
    NumericalFailure,
    ParamBatch,
    SystemParams,
    ZeroDrive,
    expectation,
    expectation_set,
    steady_pair_density,
)
from helpers import (
    MOMENT_FIELDS,
    moments_of_pair_entries,
    pochhammer_pair_entries,
    steady_rho,
)
from dickepair import steady
from dickepair.oracle import density_expectation_set
from dickepair.sweep import evaluate_points

GRID = [
    SystemParams(n_qubits=2, rabi=1.0),
    SystemParams(n_qubits=3, rabi=2.0, detuning=-1.0, dipole_shift=2.0),
    SystemParams(n_qubits=5, rabi=0.4, detuning=4.0, dipole_shift=-1.5),
    SystemParams(n_qubits=8, rabi=3.0, detuning=-6.0, dipole_shift=5.0),
    SystemParams(n_qubits=40, rabi=11.0, detuning=-2.0, dipole_shift=1.0),
]


def test_trace_identity():
    for params in GRID:
        assert expectation(params, 0, 0, 0) == pytest.approx(1.0, rel=1e-12)


def test_ground_state_limit():
    # vanishing drive leaves all qubits in |g>, so <Sz> -> -N/2
    params = SystemParams(n_qubits=4, rabi=1e-4)
    assert expectation(params, 0, 1, 0).real == pytest.approx(-2.0, abs=1e-3)


def test_conjugation_symmetry():
    # 1e-10 tolerance, relative for moments whose magnitude exceeds one
    for params in GRID:
        n = params.n_qubits
        for p in range(min(2, n) + 1):
            for f in range(min(2, n) + 1):
                for r in range(3):
                    a = expectation(params, p, r, f)
                    b = expectation(params, f, r, p)
                    assert abs(a - np.conj(b)) <= 1e-10 * max(1.0, abs(a))


def test_ladder_norm_positivity():
    for params in GRID:
        for n in (1, 2):
            val = expectation(params, n, 0, n)
            assert val.real >= -1e-10


def test_observable_ranges():
    for params in GRID:
        n = params.n_qubits
        sz = expectation(params, 0, 1, 0).real
        sz2 = expectation(params, 0, 2, 0).real
        assert -n / 2 - 1e-9 <= sz <= n / 2 + 1e-9
        assert -1e-9 <= sz2 <= n * n / 4 + 1e-9


def test_hermitian_moments_are_real():
    for params in GRID:
        for p, r, f in ((0, 1, 0), (0, 2, 0), (1, 0, 1)):
            assert abs(expectation(params, p, r, f).imag) < 1e-10


@pytest.mark.parametrize("n", [2, 6, 50, 200])
def test_resonant_vanishing_components_are_exact_zeros(n):
    # at Delta = delta = 0, alpha = i*Omega and beta = 0: every ladder sum is
    # a real sum times an exact power of i, so these components are exactly 0
    for pump in (0.05, 0.9, 2.0):
        for precision in ("standard", "extended"):
            params = SystemParams(n_qubits=n, rabi=1.0).with_pump(pump)
            m = expectation_set(params, precision=precision)
            rho = steady_pair_density(params, precision=precision)
            assert (m.s_plus.real, m.s_plus_sz.real, m.s_plus2.imag) == (0.0, 0.0, 0.0)
            assert (rho[0, 1].real, rho[1, 3].real, rho[0, 3].imag) == (0.0, 0.0, 0.0)


def test_index_validation():
    params = SystemParams(n_qubits=3, rabi=1.0)
    for p, r, f in ((-1, 0, 0), (0, -1, 0), (0, 0, -2)):
        with pytest.raises(IndexRange):
            expectation(params, p, r, f)
    # (S-)^5 vanishes on the 3-qubit ladder; Sz^4 is an ordinary moment
    assert expectation(params, 0, 0, 5) == 0
    assert expectation(params, 5, 1, 0) == 0
    assert expectation(params, 0, 4, 0).real > 0.0


def test_zero_drive_rejected():
    with pytest.raises(ZeroDrive):
        expectation(SystemParams(n_qubits=2, rabi=0.0), 0, 1, 0)
    with pytest.raises(ZeroDrive):
        expectation_set(SystemParams(n_qubits=2, rabi=0.0))


@pytest.mark.parametrize("precision", ["standard", "extended"])
@pytest.mark.parametrize("fields, error", [
    # |alpha| = rabi / |1 + i dipole_shift| with a reciprocal beyond the double range
    (dict(rabi=1e-300, dipole_shift=1e20), ZeroDrive),
    (dict(rabi=1e-310), ZeroDrive),
    # Delta + delta overflows
    (dict(rabi=1.0, detuning=1e308, dipole_shift=1e308), NumericalFailure),
    (dict(rabi=1.5, detuning=-1e308, dipole_shift=-1e308), NumericalFailure),
], ids=["tiny-alpha", "subnormal-rabi", "beta-overflow", "beta-negative-overflow"])
def test_non_finite_derived_parameters_raise_without_warnings(fields, error, precision):
    # finite flags whose alpha or beta is not finite give a typed error, not NaN
    params = SystemParams(n_qubits=3, **fields)
    # a sweep of one good row and the bad one fails as the bad point does
    batch = ParamBatch(3, np.array([1.0, params.rabi]), np.array([0.0, params.detuning]),
                       np.array([0.0, params.dipole_shift]))
    calls = {
        "steady_pair_density": lambda: steady_pair_density(params, precision),
        "expectation_set": lambda: expectation_set(params, precision),
        "expectation": lambda: expectation(params, 1, 0, 0, precision),
        "batch steady_pair_density": lambda: steady_pair_density(batch, precision),
        "evaluate_points": lambda: evaluate_points(batch, precision),
    }
    for name, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                call()


@pytest.mark.parametrize("n, rabi", [(3, 2e-308), (2, 5.6e-309)])
def test_weakest_representable_drive_still_evaluates(n, rabi):
    # just above the ZeroDrive threshold: 1 / |alpha| is still finite
    m = expectation_set(SystemParams(n_qubits=n, rabi=rabi))
    assert m.s_plus.imag == pytest.approx(rabi, rel=1e-12)
    assert m.s_z == -n / 2 and m.s_plus_s_minus == 0.0


def test_expectation_set_ground_limit():
    m = expectation_set(SystemParams(n_qubits=2, rabi=1e-4))
    assert m.s_z == pytest.approx(-1.0, abs=1e-3)
    assert abs(m.s_plus) < 1e-3
    assert abs(m.s_plus2) < 1e-4


def test_expectation_set_matches_dense_solver():
    cases = [
        SystemParams(n_qubits=1, rabi=1.0),
        SystemParams(n_qubits=6, rabi=0.5 * 6 / 2),
        SystemParams(n_qubits=3, rabi=2.0, detuning=-1.0, dipole_shift=2.0),
        SystemParams(n_qubits=4, rabi=1.2, detuning=3.0, dipole_shift=-2.0),
    ]
    for params in cases:
        analytic = expectation_set(params)
        reference = density_expectation_set(steady_rho(params))
        for name in MOMENT_FIELDS:
            assert getattr(analytic, name) == pytest.approx(
                getattr(reference, name), abs=1e-8
            )


def test_moments_of_individual_orders_match_dense_solver():
    params = SystemParams(n_qubits=3, rabi=2.0, detuning=-1.0, dipole_shift=2.0)
    rho = steady_rho(params)
    from dickepair import oracle

    s_plus, s_z = oracle._fixed_parts(3)[:2]
    for p, r, f in ((1, 0, 0), (0, 1, 0), (0, 2, 0), (1, 1, 0), (2, 0, 0), (1, 0, 1)):
        op = (
            np.linalg.matrix_power(s_plus, p)
            @ np.linalg.matrix_power(s_z, r)
            @ np.linalg.matrix_power(s_plus.T, f)
        )
        direct = complex(np.trace(rho @ op))
        assert expectation(params, p, r, f) == pytest.approx(direct, abs=1e-8)


@pytest.mark.parametrize("precision", ["standard", "extended"])
def test_moments_from_pair_entries_and_moment_sums_against_50_digits(precision):
    # two ways to the six moments at N = 200: the moment row sums of
    # expectation_set, and the pair entries of steady_pair_density mapped
    # back to moments. The reference is that map applied at 50 digits to the
    # unrounded 50-digit pair entries. Both paths measured within 1.7e-13
    # (moment sums) and 2.6e-13 (pair entries, on <S+S-> off resonance at
    # weak drive) of max(1, |reference|) over these points.
    n = 200
    for pump, detuning, dipole in ((0.02, 0.0, 0.0), (0.05, -3.0, 2.0), (0.98, 0.0, 0.0),
                                   (1.02, -2.0, 2.0), (0.7, -3.0, 2.0), (1.5, 1.0, -3.5)):
        params = SystemParams(n, rabi=1.0, detuning=detuning, dipole_shift=dipole).with_pump(pump)
        entries = pochhammer_pair_entries(params, rounded=False)
        rho = steady_pair_density(params, precision=precision)
        from_pair = moments_of_pair_entries(
            (rho[0, 0], rho[0, 1], rho[0, 3], rho[1, 1], rho[1, 3], rho[3, 3]), n)
        from_sums = expectation_set(params, precision=precision)
        with mpmath.workdps(50):
            reference = moments_of_pair_entries(entries, n)
            for name in MOMENT_FIELDS:
                ref = reference[name]
                scale = max(1.0, abs(ref))
                sums_err = abs(complex(getattr(from_sums, name)) - ref) / scale
                pair_err = abs(complex(from_pair[name]) - ref) / scale
                assert sums_err <= 2.5e-13, (pump, name, float(sums_err))
                assert pair_err <= 4e-13, (pump, name, float(pair_err))


def test_standard_vs_extended_self_consistency():
    # large-ensemble accumulation: both precisions must agree closely
    params = SystemParams(n_qubits=74, rabi=0.9 * 74 / 2, detuning=-3.7, dipole_shift=3.7)
    for p, r, f in ((1, 0, 0), (0, 1, 0), (0, 2, 0), (1, 1, 0), (2, 0, 0)):
        a = expectation(params, p, r, f, precision="standard")
        b = expectation(params, p, r, f, precision="extended")
        scale = max(abs(a), abs(b), 1e-12)
        assert abs(a - b) / scale < 1e-6


def test_large_ensemble_saturation():
    # far above the collective threshold the inversion saturates near zero
    params = SystemParams(n_qubits=74, rabi=2.0 * 74 / 2)
    sz = expectation(params, 0, 1, 0).real
    assert -1.0 < sz / 74 < 0.0


def test_hundred_qubits_stable():
    import numpy as np
    from dickepair import concurrence, steady_pair_density

    for pump in (0.3, 0.9, 1.5):
        params = SystemParams(n_qubits=100, rabi=pump * 50, detuning=-2.0,
                              dipole_shift=2.0)
        assert expectation(params, 0, 0, 0) == pytest.approx(1.0, rel=1e-12)
        rho = steady_pair_density(params)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() >= -1e-9
        res = concurrence(rho)
        assert 0.0 <= res.concurrence <= 1.0


@pytest.mark.parametrize("precision", ["standard", "extended"])
@pytest.mark.parametrize("n", [6, 5000])
def test_a_single_point_keeps_nothing_and_is_the_batch_of_one(monkeypatch, n, precision):
    built = []
    init = steady._SteadyTables.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(steady._SteadyTables, "__init__", tracked_init)
    points = [SystemParams(n_qubits=n, rabi=pump * n / 2, detuning=detuning,
                           dipole_shift=0.7)
              for pump, detuning in ((0.43, -1.1), (0.97, 0.0), (1.61, 2.3))]
    memo_size = steady._steady_tables.cache_info().currsize
    results = [(steady_pair_density(p, precision), expectation_set(p, precision))
               for p in points]
    assert steady._steady_tables.cache_info().currsize == memo_size
    assert len(built) == 2 * len(points)
    gc.collect()
    assert all(ref() is None for ref in built)
    for p, (rho, moments) in zip(points, results):
        batch = ParamBatch.of(p)
        assert rho.tobytes() == steady_pair_density(batch, precision)[0].tobytes()
        batch_moments = expectation_set(batch, precision)
        for field in dataclasses.fields(moments):
            one = getattr(moments, field.name)
            row = getattr(batch_moments, field.name)[0].item()
            assert type(one) is type(row), field.name
            assert np.array(one).tobytes() == np.array(row).tobytes(), field.name
    # expectation alone keeps a point's tables, for its next index
    before = steady._steady_tables.cache_info()
    expectation(points[0], 0, 1, 0, precision)
    expectation(points[0], 0, 2, 0, precision)
    after = steady._steady_tables.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


@pytest.mark.parametrize("precision", ["standard", "extended"])
@pytest.mark.parametrize("n", [2, 6, 74, 200])
def test_one_beta_batch_moments_equal_one_point_moments(n, precision):
    # the moments go through the same broadcast base as the pair entries
    for detuning, dipole in ((-3.0, 2.0), (-2.5, 2.5), (1.5, 0.0)):
        points = ParamBatch(n, np.linspace(0.05, 3.0, 9) * n / 2, np.full(9, detuning),
                            np.full(9, dipole))
        batch = expectation_set(points, precision)
        for i in range(len(points)):
            one = expectation_set(points.point(i), precision)
            for field in dataclasses.fields(one):
                row = getattr(batch, field.name)[i].item()
                assert np.array(getattr(one, field.name)).tobytes() == np.array(row).tobytes(), \
                    (detuning, dipole, i, field.name)


@pytest.mark.parametrize("n", [2, 74])
def test_beta_tables_are_one_row_for_one_beta(n):
    # a batch whose rows share beta bit for bit builds one row of beta tables
    # (detuning = dipole = -0.0 derives the same beta bytes as 0.0); u_log
    # keeps each row's n log|alpha|
    def tables(detuning, dipole):
        size = len(detuning)
        return steady._SteadyTables(ParamBatch(n, np.linspace(0.5, 2.0, size) * n / 2,
                                               np.array(detuning), np.array(dipole)))

    for detuning, dipole in (([-3.0] * 5, [2.0] * 5), ([-0.0, 0.0, -0.0], [-0.0, 0.0, 0.0])):
        one = tables(detuning, dipole)
        assert one.a_log.shape == (1, n + 1) and one.v_unit.shape == (1, n)
        assert one.u_log.shape == (len(detuning), n + 1)
    # two betas, and betas -0.0 and 0.0, whose bits differ, keep a row each
    for detuning, dipole in (([-3.0, -3.0, 1.0], [2.0] * 3), ([3.0, -3.0], [-3.0, 3.0])):
        mixed = tables(detuning, dipole)
        size = len(detuning)
        assert mixed.a_log.shape == (size, n + 1) and mixed.v_unit.shape == (size, n)
