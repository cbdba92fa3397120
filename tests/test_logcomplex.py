import math

import numpy as np
import pytest

from dickepair import SystemParams
from dickepair.logcomplex import (
    CANCELLATION_TRIGGER,
    LOG_ZERO,
    logsum_complex,
)
from dickepair.steady import _SteadyTables, _to_complex


def test_round_trip():
    # complex -> one-term (log, phase) sum -> complex
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = complex(rng.normal(), rng.normal())
        pair = logsum_complex([math.log(abs(z))], [np.angle(z)])
        assert all(isinstance(v, float) for v in pair)
        assert _to_complex(*pair) == pytest.approx(z, rel=1e-14)


def test_zero_handling():
    # an exact zero is (LOG_ZERO, 0.0), also when the terms cancel exactly
    assert _to_complex(LOG_ZERO, 0.0) == 0j
    assert logsum_complex([0.0, 0.0], [0.0, 0.0], signs=[1.0, -1.0]) == (LOG_ZERO, 0.0)
    assert logsum_complex([1.0, 1.0], [0.5, 0.5], "extended",
                          signs=[1.0, -1.0]) == (LOG_ZERO, 0.0)


def test_logsum_matches_direct_sum():
    rng = np.random.default_rng(19)
    for _ in range(50):
        zs = rng.normal(size=12) + 1j * rng.normal(size=12)
        log_mags = np.log(np.abs(zs))
        phases = np.angle(zs)
        expected = zs.sum()
        for precision in ("standard", "extended"):
            log_mag, phase = logsum_complex(log_mags, phases, precision)
            assert -math.pi < phase <= math.pi
            assert _to_complex(log_mag, phase) == pytest.approx(expected, rel=1e-12)
    # the branch cut: a sum on the negative real axis reads phase +pi
    assert logsum_complex([0.0], [-math.pi]) == (0.0, math.pi)


def test_logsum_empty_and_all_zero():
    assert logsum_complex([], [], "standard") == (LOG_ZERO, 0.0)
    assert logsum_complex([LOG_ZERO, LOG_ZERO], [0.0, 0.0], "standard") == (LOG_ZERO, 0.0)


def test_cancellation_triggers_exact_accumulation():
    # rescaled terms are [1, 1e-16, -1]; a plain vector sum loses the middle
    # term entirely, the triggered exact path keeps it
    log_mags = np.array([math.log(1e16), 0.0, math.log(1e16)])
    phases = np.zeros(3)
    signs = np.array([1.0, 1.0, -1.0])
    for precision in ("standard", "extended"):
        got = logsum_complex(log_mags, phases, precision, signs=signs)
        assert _to_complex(*got) == pytest.approx(1.0, rel=1e-12)
    assert CANCELLATION_TRIGGER == 1e-8


def test_signed_sum_matches_direct():
    rng = np.random.default_rng(29)
    zs = rng.normal(size=10) + 1j * rng.normal(size=10)
    signs = rng.choice([-1.0, 1.0], size=10)
    got = logsum_complex(np.log(np.abs(zs)), np.angle(zs), "standard", signs=signs)
    assert _to_complex(*got) == pytest.approx((signs * zs).sum(), rel=1e-12)


def test_rescaling_survives_huge_magnitudes():
    # both terms ~exp(700); naive exponentiation would overflow
    log_mags = np.array([700.0, 700.0])
    phases = np.array([0.0, 0.0])
    log_mag, phase = logsum_complex(log_mags, phases, "standard")
    assert log_mag == pytest.approx(700.0 + math.log(2.0), rel=1e-14)
    assert phase == pytest.approx(0.0)


def test_far_out_of_double_range_products():
    # at N = 200 the ladder-sum products C_nn S_n, and Z with them, overflow
    # doubles (Z ~ 10^470 here); in log space they still normalize to a unit trace
    params = SystemParams(n_qubits=200, rabi=1.0).with_pump(0.05)
    tables = _SteadyTables(params)
    assert tables.log_z > math.log(np.finfo(float).max)
    assert tables.moment(0, 0, 0) == pytest.approx(1.0, rel=1e-13)
