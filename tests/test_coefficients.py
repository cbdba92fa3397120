"""Coefficient-level checks: the Pochhammer prefix, C_nm in the ladder sums, Z and the row sums."""
import math
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from dickepair import (
    NumericalFailure,
    SystemParams,
    ZeroDrive,
    derive_params,
)
from dickepair.oracle import DickeBasisOperators
from dickepair import steady
from dickepair.cli import main
from dickepair.steady import _row_sums, _SteadyTables
from helpers import (
    closed_form_row_sums,
    coefficient_c,
    ladder_row_sum,
    log_z_of,
    pair_polynomials,
    pochhammer_sz_power,
)


def direct_pochhammer(n, beta):
    out = 1.0 + 0j
    for k in range(1, n + 1):
        out *= k + beta
    return out


def params_for_beta(beta, n_qubits):
    """An operating point whose derived beta = i(Delta + delta)/(1 + i delta) is ``beta``.

    Reachable are beta = 0 and every beta with a nonzero imaginary part:
    delta = Re(beta)/Im(beta) and Delta + delta = |beta|^2 / Im(beta).
    """
    if beta == 0:
        return SystemParams(n_qubits=n_qubits, rabi=1.0)
    dipole = beta.real / beta.imag
    return SystemParams(n_qubits=n_qubits, rabi=1.0, dipole_shift=dipole,
                        detuning=abs(beta) ** 2 / beta.imag - dipole)


def prefix(tables, n):
    """a_n = prod_{k<=n} (1 + beta/k) from the a_log prefix and the phase steps v_k.

    Tables built from one SystemParams are a batch of one: row 0.
    """
    return math.exp(tables.a_log[0, n]) * complex(np.prod(tables.v_unit[0, :n]))


def one_point(pair):
    """(scale, mantissa) of a one-point batch's ladder sum as (float, complex)."""
    scale, mantissa = pair
    return float(scale[0]), complex(mantissa[0])


def ladder_sum(tables, p, f, poly):
    """tables._ladder_sums(p, f, .) over the row sums of one polynomial."""
    scale, mantissa = tables._ladder_sums(p, f, _row_sums(tables.n_qubits, (poly,)))
    return scale, mantissa[:, 0]


def value(pair):
    """exp(scale) * mantissa of a one-point ladder sum as an ordinary complex."""
    scale, mantissa = one_point(pair)
    return math.exp(scale) * mantissa


def test_pochhammer_empty_product():
    for beta in (0.0, 1j, -2.3 + 0.7j):
        tables = _SteadyTables(params_for_beta(beta, 3))
        assert tables.a_log[0, 0] == 0.0 and prefix(tables, 0) == 1.0


def test_pochhammer_real_factorial():
    # beta = 0: Gamma(1+n)/(Gamma(1) n!) = 1 for every n, exactly
    tables = _SteadyTables(params_for_beta(0, 6))
    assert derive_params(tables.params).beta == 0
    assert (tables.a_log == 0.0).all() and (tables.v_unit == 1.0).all()


def test_pochhammer_complex_example():
    # beta = i: (1+i)(2+i)/2! = (1+3i)/2
    tables = _SteadyTables(SystemParams(n_qubits=2, rabi=1.0, detuning=1.0))
    assert derive_params(tables.params).beta == 1j
    assert prefix(tables, 2) == pytest.approx((1 + 3j) / 2, rel=1e-14)


def test_pochhammer_against_direct_product():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(0, 26))
        tables = _SteadyTables(params_for_beta(
            complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), max(n, 1)))
        beta = derive_params(tables.params).beta
        expected = direct_pochhammer(n, beta) / math.factorial(n)
        assert prefix(tables, n) == pytest.approx(expected, rel=1e-12)


def test_coefficient_a_complex_example():
    # a_21 = a_2 conj(a_1), the product the ladder sums form from the prefix
    tables = _SteadyTables(SystemParams(n_qubits=2, rabi=1.0, detuning=1.0,
                                        dipole_shift=1.0))
    beta = derive_params(tables.params).beta
    assert beta == pytest.approx(1 + 1j, rel=1e-15)
    got = prefix(tables, 2) * np.conj(prefix(tables, 1))
    assert got == pytest.approx(7.5 + 2.5j, rel=1e-12)


def test_coefficient_c_trivial():
    # alpha = i, beta = 0, N = 1: C_00 = C_11 = 1 and C_10 = i; the row sums
    # are S_0 = 2, S_1 = 1, so Z = 3 and the (S+) ladder sum is C_10 = i
    tables = _SteadyTables(SystemParams(n_qubits=1, rabi=1.0))
    assert derive_params(tables.params).alpha == 1j
    assert math.exp(log_z_of(tables)[0]) == pytest.approx(3.0, rel=1e-14)
    assert value(ladder_sum(tables, 1, 0, (1,))) == pytest.approx(1j, rel=1e-14)


def test_coefficient_c_diagonal_real_positive():
    # C_nn is real and positive, so every diagonal ladder sum is exactly real
    tables = _SteadyTables(SystemParams(n_qubits=5, rabi=1.3, detuning=-2.0,
                                        dipole_shift=1.5))
    for p in range(4):
        for poly in ((1,), (0, 1), (5, -1)):
            scale, mantissa = one_point(ladder_sum(tables, p, p, poly))
            assert mantissa.imag == 0.0 and mantissa.real > 0.0 and math.isfinite(scale)


def test_coefficient_c_conjugate_symmetry():
    # C_{n-f, n-p} = conj(C_{n-p, n-f}), so swapping p and f conjugates the sum
    tables = _SteadyTables(SystemParams(n_qubits=4, rabi=0.7, detuning=3.0,
                                        dipole_shift=-2.0))
    for p in range(4):
        for f in range(4):
            for poly in ((1,), (0, 1), (2, -3, 1)):
                a = value(ladder_sum(tables, p, f, poly))
                b = value(ladder_sum(tables, f, p, poly))
                assert a == pytest.approx(np.conj(b), rel=1e-12)


def test_coefficient_c_zero_drive():
    with pytest.raises(ZeroDrive):
        _SteadyTables(SystemParams(n_qubits=2, rabi=0.0))


def test_ladder_sums_match_direct_coefficients():
    # the log-space coefficient assembly against plain complex C_nm products
    rng = np.random.default_rng(5)
    for _ in range(20):
        params = SystemParams(n_qubits=int(rng.integers(1, 9)), rabi=rng.uniform(0.2, 4.0),
                              detuning=rng.uniform(-5, 5), dipole_shift=rng.uniform(-5, 5))
        tables = _SteadyTables(params)
        n_qubits = params.n_qubits
        for p, f, poly in ((0, 0, (1,)), (1, 0, (0, 1)), (0, 2, (3, -1)), (2, 1, (1, 1, 1))):
            direct = sum(coefficient_c(n - f, n - p, params)
                         * ladder_row_sum(n_qubits, n, poly)
                         for n in range(max(p, f), n_qubits + 1))
            got = value(ladder_sum(tables, p, f, poly))
            assert abs(got - direct) <= 1e-12 * max(abs(direct), math.exp(log_z_of(tables)[0]))


def test_partition_strong_drive_limit():
    # only the n=0 term survives as |alpha| grows; for N=1 that term is 2
    log_z = log_z_of(_SteadyTables(SystemParams(n_qubits=1, rabi=1000.0)))[0]
    assert math.exp(log_z) == pytest.approx(2.0, rel=1e-5)


def test_partition_exactly_real():
    # Z is a real (0, 0) sum; the imaginary part it would carry is exactly zero
    params = SystemParams(n_qubits=7, rabi=1.1, detuning=-3.0, dipole_shift=2.0)
    log_z = log_z_of(_SteadyTables(params))[0]
    assert isinstance(log_z, float)
    scale, mantissa = ladder_sum(_SteadyTables(params), 0, 0, (1,))
    assert mantissa.imag[0] == 0.0 and mantissa.real[0] > 0.0
    # the moments' Z is the q = 1 ladder sum to the bit
    assert scale[0] + np.log(mantissa.real)[0] == log_z


def test_partition_zero_drive():
    with pytest.raises(ZeroDrive):
        log_z_of(_SteadyTables(SystemParams(n_qubits=2, rabi=1e-300 * 0.0)))[0]


def test_partition_against_ladder_trace():
    # Z must equal sum_n C_nn * Tr[(S-)^n (S+)^n], evaluated directly in the
    # ladder basis without the closed-form combinatorial reduction
    for params in (
        SystemParams(n_qubits=2, rabi=1.0),
        SystemParams(n_qubits=4, rabi=0.6, detuning=-2.5, dipole_shift=1.0),
        SystemParams(n_qubits=6, rabi=2.0, detuning=4.0, dipole_shift=-3.0),
    ):
        ops = DickeBasisOperators.build(params.n_qubits)
        direct = 0.0
        for n in range(params.n_qubits + 1):
            ladder = np.linalg.matrix_power(ops.s_minus, n) @ np.linalg.matrix_power(
                ops.s_plus, n
            )
            direct += (coefficient_c(n, n, params) * np.trace(ladder)).real
        assert math.exp(log_z_of(_SteadyTables(params))[0]) == pytest.approx(direct, rel=1e-12)


def test_partition_log_scale_large_ensemble():
    # the N=74 normalization overflows doubles; its log must stay finite
    log_z = log_z_of(_SteadyTables(SystemParams(n_qubits=74, rabi=0.05 * 74 / 2)))[0]
    assert math.isfinite(log_z)
    assert log_z > 400.0


def test_partition_precision_modes_agree():
    params = SystemParams(n_qubits=40, rabi=7.0, detuning=-2.0, dipole_shift=3.0)
    a = log_z_of(_SteadyTables(params, precision="standard"))[0]
    b = log_z_of(_SteadyTables(params, precision="extended"))[0]
    assert a == pytest.approx(b, rel=1e-14)
    with pytest.raises(ValueError):
        log_z_of(_SteadyTables(params, precision="double"))[0]


def exact_weight(s_q, s_0, denominator=1):
    """The float the package stores for S_q / (denominator S_0): Fraction, then float."""
    return float(Fraction(s_q, s_0 * denominator))


def moment_polynomials(n_qubits, powers):
    """((N - 2d)^r, N^r) for each r: the Sz^r ladder polynomial and its weight denominator."""
    return [(tuple(int(c) for c in P.polypow([n_qubits, -2], r)), n_qubits ** r)
            for r in powers]


def test_row_sums_match_literal_double_loop():
    # the closed-form O(N) row sums against the literal m loop in exact integers:
    # log S_0 is math.log of the exact S_0 and every weight the rounded exact ratio
    for n_qubits in range(1, 13):
        polys = [poly for poly, _ in moment_polynomials(n_qubits, range(4))]
        polys += [poly for _, poly in pair_polynomials(n_qubits)]
        s_0 = [ladder_row_sum(n_qubits, n, (1,)) for n in range(n_qubits + 1)]
        for poly in polys:
            log_s0, (weights,) = _row_sums(n_qubits, (poly,))
            for n in range(n_qubits + 1):
                assert log_s0[n] == math.log(s_0[n])
                assert weights[n] == exact_weight(ladder_row_sum(n_qubits, n, poly), s_0[n])


def test_row_sum_recurrence_matches_closed_form_bit_for_bit():
    # the T_0 recurrence and the exact T_j / T_0 ratios against the per-row
    # factorial/binomial closed form: the same exact values, so the same float
    # rows, alone or in one tuple, and no nonzero row sum rounds to a zero or
    # subnormal weight
    for n_qubits in [*range(1, 41), 50, 74, 200, 500, 1000]:
        s_0 = closed_form_row_sums(n_qubits, (1,))
        ref_log_s0 = np.array([math.log(s) for s in s_0])
        pair = [poly for _, poly in pair_polynomials(n_qubits)]
        together = _row_sums(n_qubits, tuple(pair))
        # the rows pair_entries reads: q = 1 (Z and r14), r11, r22, r44, r12, r24
        package_pair = steady._pair_rows(n_qubits)
        package_order = [pair[i] for i in (2, 0, 3, 5, 1, 4)]
        cases = [(poly, 1, [(_row_sums(n_qubits, (poly,)), 0), (together, g),
                            (package_pair, package_order.index(poly))])
                 for g, poly in enumerate(pair)]
        low = steady._moment_rows(n_qubits, (0, 1, 2))
        for r, (poly, den) in enumerate(moment_polynomials(n_qubits, range(4))):
            rows = low if r < 3 else steady._moment_rows(n_qubits, (r,))
            cases.append((poly, den, [(rows, r if r < 3 else 0)]))
        for poly, den, candidates in cases:
            sums = closed_form_row_sums(n_qubits, poly)
            ref = np.array([exact_weight(s, s0, den) for s, s0 in zip(sums, s_0)])
            nonzero = np.array([s != 0 for s in sums])
            assert (np.abs(ref[nonzero]) >= sys.float_info.min).all(), (n_qubits, poly)
            for (log_s0, weights), g in candidates:
                assert np.array_equal(log_s0, ref_log_s0), (n_qubits, poly)
                assert np.array_equal(weights[g], ref), (n_qubits, poly)


def test_rho_then_expect_at_a_new_n_steps_t0_once(monkeypatch, capsys):
    # the pair rows (rho) and the moment rows (expect) of one N share one
    # log S_0 array, so a process running both steps the big-integer T_0
    # recurrence once; fresh caches make N = 733 new to this test
    log_s0 = lru_cache(maxsize=None)(steady._log_s0.__wrapped__)
    monkeypatch.setattr(steady, "_log_s0", log_s0)
    for name in ("_pair_rows", "_moment_rows"):
        monkeypatch.setattr(steady, name, lru_cache(maxsize=None)(getattr(steady, name).__wrapped__))
    for command in ("rho", "expect"):
        assert main([command, "--n", "733", "--pump", "0.9"]) == 0
    assert log_s0.cache_info().misses == 1 and log_s0.cache_info().hits >= 1
    assert steady._pair_rows(733)[0] is steady._moment_rows(733, (0, 1, 2))[0]
    assert steady._moment_rows(733, (3,))[0] is log_s0(733)
    assert log_s0.cache_info().misses == 1
    capsys.readouterr()


def test_weight_out_of_double_range_raises():
    # a nonzero row sum never silently becomes a zero or subnormal weight
    with pytest.raises(NumericalFailure, match="leaves double range"):
        _row_sums(3, ((1,),), (10 ** 400,))


def test_high_sz_power_stays_in_range():
    # <Sz^40> at N = 200: (N/2)^40 rides in the scale and the weights are
    # averages of ((N - 2d)/N)^40, so the moment is finite and matches mpmath
    params = SystemParams(n_qubits=200, rabi=0.9 * 100, detuning=-1.0, dipole_shift=2.0)
    got = steady.expectation(params, 0, 40, 0)
    assert math.isfinite(got.real) and got.imag == 0.0
    assert got.real == pytest.approx(pochhammer_sz_power(params, 40), rel=1e-12)
