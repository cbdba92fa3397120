import math

import numpy as np
import pytest

from dickepair import ParamBatch, SystemParams, derive_params
from dickepair.sweep import evaluate_points


def test_validation():
    with pytest.raises(ValueError):
        SystemParams(n_qubits=0, rabi=1.0)
    with pytest.raises(ValueError):
        SystemParams(n_qubits=2, rabi=-0.5)
    with pytest.raises(ValueError):
        SystemParams(n_qubits=2, rabi=1.0, detuning=float("nan"))
    with pytest.raises(ValueError):
        SystemParams(n_qubits=2.5, rabi=1.0)


def test_any_integral_qubit_count_is_stored_as_an_int():
    # numpy integers come from arrays of N; the exact row sums need a Python int
    p = SystemParams(np.int64(6), rabi=1.0)
    assert p == SystemParams(6, rabi=1.0) and type(p.n_qubits) is int
    rows = {"rabi": np.array([0.5, 37.0]), "detuning": np.array([-2.0, 0.0]),
            "dipole_shift": np.array([2.0, 0.0])}
    batch = ParamBatch(np.int64(74), **rows)
    assert type(batch.n_qubits) is int
    assert evaluate_points(batch).tobytes() == evaluate_points(ParamBatch(74, **rows)).tobytes()


@pytest.mark.parametrize("n_qubits", [True, False, np.int64(0), 2.0])
def test_non_integral_or_bool_qubit_counts_raise(n_qubits):
    with pytest.raises(ValueError, match="n_qubits must be a positive integer"):
        SystemParams(n_qubits, rabi=1.0)
    with pytest.raises(ValueError, match="n_qubits must be a positive integer"):
        ParamBatch(n_qubits, rabi=np.ones(1), detuning=np.zeros(1), dipole_shift=np.zeros(1))


def test_gamma_is_the_unit_not_a_parameter():
    # every rate is in units of the single-emitter decay rate, so there is
    # no decay field to set
    with pytest.raises(TypeError):
        SystemParams(n_qubits=2, rabi=1.0, decay=2.0)
    with pytest.raises(TypeError):
        ParamBatch(2, rabi=[1.0], detuning=[0.0], dipole_shift=[0.0], decay=2.0)


def test_zero_rabi_constructs():
    # zero drive is a valid parameter point; only the closed form rejects it
    p = SystemParams(n_qubits=3, rabi=0.0)
    assert p.pump == 0.0


def test_pump_round_trip():
    p = SystemParams(n_qubits=50, rabi=25.0)
    assert p.pump == pytest.approx(1.0)
    q = p.with_pump(0.5)
    assert q.rabi == pytest.approx(12.5)
    assert q.n_qubits == 50 and q.detuning == p.detuning


@pytest.mark.parametrize("pump", [-1.0, math.nan, math.inf, 1e307])
def test_with_pump_rejects_the_pump(pump):
    # 1e307 is finite, but rabi = pump * 200 / 2 overflows
    with pytest.raises(ValueError, match="pump must be >= 0 with rabi = pump"):
        SystemParams(n_qubits=200, rabi=1.0).with_pump(pump)


def test_batch_reports_negative_rabi_as_a_plain_float():
    with pytest.raises(ValueError, match=r"rabi must be >= 0, got -1\.5$"):
        ParamBatch(2, rabi=np.array([1.0, -1.5]), detuning=np.zeros(2),
                   dipole_shift=np.zeros(2))


def test_batch_row_is_the_point():
    # a batch row comes back as the SystemParams it was built from
    p = SystemParams(n_qubits=6, rabi=1.3, detuning=-2.5, dipole_shift=1.5)
    assert ParamBatch.of(p).point(0) == p
    batch = ParamBatch(3, rabi=np.array([0.5, 2.0]), detuning=np.array([1.0, -4.0]),
                       dipole_shift=np.array([0.0, 3.0]))
    assert batch.point(1) == SystemParams(n_qubits=3, rabi=2.0, detuning=-4.0,
                                          dipole_shift=3.0)


def test_derived_resonance():
    d = derive_params(SystemParams(n_qubits=1, rabi=1.0))
    assert d.alpha == pytest.approx(1j)
    assert d.beta == pytest.approx(0.0)


def test_derived_tilde_cancellation():
    d = derive_params(SystemParams(n_qubits=2, rabi=2.0, detuning=-5.0, dipole_shift=5.0))
    assert d.beta == pytest.approx(0.0)
    assert d.alpha == pytest.approx(2j / (1 + 5j))


def test_derived_off_resonant_operating_point():
    d = derive_params(SystemParams(n_qubits=2, rabi=1.8, detuning=-12.0, dipole_shift=5.0))
    assert d.beta == pytest.approx(-7j / (1 + 5j))


def test_derived_finite_for_any_valid_params():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = SystemParams(
            n_qubits=int(rng.integers(1, 80)),
            rabi=float(rng.uniform(0, 50)),
            detuning=float(rng.uniform(-30, 30)),
            dipole_shift=float(rng.uniform(-20, 20)),
        )
        d = derive_params(p)
        assert np.isfinite([d.alpha.real, d.alpha.imag, d.beta.real, d.beta.imag]).all()
