"""Coefficient-level checks: Pochhammer products, a_nm, C_nm, Z and the ladder row sums."""
import math

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from dickepair import (
    DerivedParams,
    IndexRange,
    SystemParams,
    ZeroDrive,
    coefficient_a,
    coefficient_c,
    derive_params,
    partition_z,
    pochhammer_ratio,
)
from dickepair.oracle import DickeBasisOperators
from helpers import ladder_row_sum, pair_polynomials


def direct_pochhammer(n, beta):
    out = 1.0 + 0j
    for k in range(1, n + 1):
        out *= k + beta
    return out


def test_pochhammer_empty_product():
    for beta in (0.0, 1j, -2.3 + 0.7j):
        assert pochhammer_ratio(0, beta).to_complex() == 1.0


def test_pochhammer_real_factorial():
    assert pochhammer_ratio(3, 0.0).to_complex() == pytest.approx(6.0, rel=1e-14)


def test_pochhammer_complex_example():
    # (1+i)(2+i) = 1+3i
    assert pochhammer_ratio(2, 1j).to_complex() == pytest.approx(1 + 3j, rel=1e-14)


def test_pochhammer_against_direct_product():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(0, 25))
        beta = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        got = pochhammer_ratio(n, beta).to_complex()
        assert got == pytest.approx(direct_pochhammer(n, beta), rel=1e-12)


def test_pochhammer_rejects_negative_order():
    with pytest.raises(IndexRange):
        pochhammer_ratio(-1, 0.0)


def test_coefficient_a_trivial():
    assert coefficient_a(0, 0, 0.7 - 0.2j).to_complex() == 1.0
    assert coefficient_a(1, 1, 0.0).to_complex() == pytest.approx(1.0, rel=1e-14)


def test_coefficient_a_complex_example():
    beta = 1 + 1j
    expected = direct_pochhammer(2, beta) * np.conj(direct_pochhammer(1, beta)) / 2.0
    got = coefficient_a(2, 1, beta).to_complex()
    assert expected == pytest.approx(7.5 + 2.5j)
    assert got == pytest.approx(expected, rel=1e-12)


def test_coefficient_a_conjugate_symmetry():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n, m = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a_nm = coefficient_a(n, m, beta).to_complex()
        a_mn = coefficient_a(m, n, beta).to_complex()
        assert a_nm == pytest.approx(np.conj(a_mn), rel=1e-12)


def test_coefficient_c_trivial():
    d = DerivedParams(alpha=1j, beta=0.0, tilde_detuning=0.0)
    assert coefficient_c(0, 0, d).to_complex() == pytest.approx(1.0)
    # (-1) * i^-1 * a_10 = i
    assert coefficient_c(1, 0, d).to_complex() == pytest.approx(1j, rel=1e-14)


def test_coefficient_c_diagonal_real_positive():
    d = derive_params(SystemParams(n_qubits=5, rabi=1.3, detuning=-2.0, dipole_shift=1.5))
    for n in range(5):
        c_nn = coefficient_c(n, n, d).to_complex()
        assert abs(c_nn.imag) < 1e-12 * abs(c_nn)
        assert c_nn.real > 0.0


def test_coefficient_c_conjugate_symmetry():
    d = derive_params(SystemParams(n_qubits=4, rabi=0.7, detuning=3.0, dipole_shift=-2.0))
    for n in range(4):
        for m in range(4):
            c_nm = coefficient_c(n, m, d).to_complex()
            c_mn = coefficient_c(m, n, d).to_complex()
            assert c_nm == pytest.approx(np.conj(c_mn), rel=1e-12)


def test_coefficient_c_zero_drive():
    d = derive_params(SystemParams(n_qubits=2, rabi=0.0))
    with pytest.raises(ZeroDrive):
        coefficient_c(1, 1, d)


def test_partition_strong_drive_limit():
    # only the n=0 term survives as |alpha| grows; for N=1 that term is 2
    z = partition_z(SystemParams(n_qubits=1, rabi=1000.0))
    assert z.to_complex() == pytest.approx(2.0, rel=1e-5)


def test_partition_exactly_real():
    z = partition_z(SystemParams(n_qubits=7, rabi=1.1, detuning=-3.0, dipole_shift=2.0))
    assert z.phase == 0.0


def test_partition_zero_drive():
    with pytest.raises(ZeroDrive):
        partition_z(SystemParams(n_qubits=2, rabi=1e-300 * 0.0))


def test_partition_against_ladder_trace():
    # Z must equal sum_n C_nn * Tr[(S-)^n (S+)^n], evaluated directly in the
    # ladder basis without the closed-form combinatorial reduction
    for params in (
        SystemParams(n_qubits=2, rabi=1.0),
        SystemParams(n_qubits=4, rabi=0.6, detuning=-2.5, dipole_shift=1.0),
        SystemParams(n_qubits=6, rabi=2.0, detuning=4.0, dipole_shift=-3.0),
    ):
        d = derive_params(params)
        ops = DickeBasisOperators.build(params.n_qubits)
        direct = 0.0
        for n in range(params.n_qubits + 1):
            ladder = np.linalg.matrix_power(ops.s_minus, n) @ np.linalg.matrix_power(
                ops.s_plus, n
            )
            direct += (coefficient_c(n, n, d).to_complex() * np.trace(ladder)).real
        z = partition_z(params).to_complex().real
        assert z == pytest.approx(direct, rel=1e-12)


def test_partition_log_scale_large_ensemble():
    # the N=74 normalization overflows doubles; its log must stay finite
    z = partition_z(SystemParams(n_qubits=74, rabi=0.05 * 74 / 2))
    assert math.isfinite(z.log_mag)
    assert z.log_mag > 400.0


def test_partition_precision_modes_agree():
    params = SystemParams(n_qubits=40, rabi=7.0, detuning=-2.0, dipole_shift=3.0)
    a = partition_z(params, precision="standard").log_mag
    b = partition_z(params, precision="extended").log_mag
    assert a == pytest.approx(b, rel=1e-14)
    with pytest.raises(ValueError):
        partition_z(params, precision="double")


def test_row_sums_match_literal_double_loop():
    # the closed-form O(N) row sums against the literal m loop in exact integers
    from dickepair.steady import _row_sums

    for n_qubits in range(1, 13):
        polys = [tuple(int(c) for c in P.polypow([n_qubits, -2], r)) for r in range(4)]
        polys += [poly for _, poly in pair_polynomials(n_qubits)]
        for poly in polys:
            log_s, sign = _row_sums(n_qubits, poly)
            for n in range(n_qubits + 1):
                exact = ladder_row_sum(n_qubits, n, poly)
                if exact == 0:
                    assert log_s[n] == -math.inf
                else:
                    assert sign[n] * math.exp(log_s[n]) == pytest.approx(exact, rel=1e-14)
