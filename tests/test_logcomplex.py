import math

import numpy as np
import pytest

from dickepair import SystemParams
from dickepair import logcomplex
from dickepair.logcomplex import (
    CANCELLATION_TRIGGER,
    LOG_ZERO,
    logsum_complex,
)
from dickepair.steady import _SteadyTables
from helpers import log_z_of


def unweighted(log_mags, units, precision):
    """logsum_complex of (P, K) rows with the single weight row of ones: (P,) arrays."""
    scale, mantissa = logsum_complex(log_mags, units, np.ones((1, log_mags.shape[1])),
                                     precision)
    return scale, mantissa[:, 0]


def one_row(log_mags, units, precision="standard"):
    """logsum_complex of a single sum, as a (float, complex) pair."""
    scale, mantissa = unweighted(np.array([log_mags], dtype=float),
                                 np.array([units], dtype=complex), precision)
    return float(scale[0]), complex(mantissa[0])


def value(pair):
    """exp(scale) * mantissa as an ordinary complex."""
    scale, mantissa = pair
    return math.exp(scale) * mantissa


def test_round_trip():
    # complex -> one-term (scale, mantissa) sum -> complex
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = complex(rng.normal(), rng.normal())
        pair = one_row([math.log(abs(z))], [z / abs(z)])
        assert value(pair) == pytest.approx(z, rel=1e-14)


def test_zero_handling():
    # terms that cancel exactly leave an exact zero mantissa in both modes
    assert value((LOG_ZERO, 0j)) == 0j
    assert one_row([0.0, 0.0], [1.0, -1.0])[1] == 0j
    assert one_row([1.0, 1.0], [0.6 + 0.8j, -0.6 - 0.8j], "extended")[1] == 0j


def test_logsum_matches_direct_sum():
    rng = np.random.default_rng(19)
    for _ in range(50):
        zs = rng.normal(size=12) + 1j * rng.normal(size=12)
        log_mags = np.log(np.abs(zs))
        expected = zs.sum()
        for precision in ("standard", "extended"):
            pair = one_row(log_mags, zs / np.abs(zs), precision)
            assert pair[0] == log_mags.max()
            assert value(pair) == pytest.approx(expected, rel=1e-12)


def test_logsum_empty_and_all_zero():
    # an empty ladder sum never reaches logsum_complex: _ladder_sum returns
    # (LOG_ZERO, 0) itself, which test_expectation.py::test_index_validation covers
    assert one_row([LOG_ZERO, LOG_ZERO], [1.0, 1.0], "standard") == (LOG_ZERO, 0j)


def test_cancellation_triggers_exact_accumulation():
    # rescaled terms are [1, 1e-16, -1]; a plain vector sum loses the middle
    # term entirely, the triggered exact path keeps it, and |mantissa| is the
    # cancellation ratio |sum| / max|term|
    log_mags = np.array([math.log(1e16), 0.0, math.log(1e16)])
    units = np.array([1.0, 1.0, -1.0])
    for precision in ("standard", "extended"):
        got = one_row(log_mags, units, precision)
        assert value(got) == pytest.approx(1.0, rel=1e-12)
        assert abs(got[1]) == pytest.approx(1e-16, rel=1e-12)
    assert CANCELLATION_TRIGGER == 1e-8


def test_signed_sum_matches_direct():
    # signs ride in the unit factors: +-1 times a unit multiplies exactly
    rng = np.random.default_rng(29)
    zs = rng.normal(size=10) + 1j * rng.normal(size=10)
    signs = rng.choice([-1.0, 1.0], size=10)
    got = one_row(np.log(np.abs(zs)), signs * (zs / np.abs(zs)), "standard")
    assert value(got) == pytest.approx((signs * zs).sum(), rel=1e-12)


def test_rescaling_survives_huge_magnitudes():
    # both terms ~exp(700); naive exponentiation would overflow
    log_mags = np.array([700.0, 700.0])
    scale, mantissa = one_row(log_mags, [1.0, 1.0], "standard")
    assert scale == 700.0 and mantissa == 2.0
    assert scale + math.log(mantissa.real) == pytest.approx(700.0 + math.log(2.0), rel=1e-14)


def test_far_out_of_double_range_products():
    # at N = 200 the ladder-sum products C_nn S_n, and Z with them, overflow
    # doubles (Z ~ 10^470 here); in log space they still normalize to a unit trace
    params = SystemParams(n_qubits=200, rabi=1.0).with_pump(0.05)
    tables = _SteadyTables(params)
    assert log_z_of(tables)[0] > math.log(np.finfo(float).max)
    assert tables.moment(0, 0, 0)[0] == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("precision", ["standard", "extended"])
def test_rows_reduce_independently(precision):
    # a (P, K) input is P independent sums: the exactly accumulated row 5 and
    # the all-zero row 9 sit between plain rows, and whole, chunked and
    # one-row calls give the same bits
    rng = np.random.default_rng(11)
    log_mags = rng.normal(size=(20, 6))
    units = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(20, 6)))
    log_mags[5] = [math.log(1e16), 0.0, math.log(1e16), LOG_ZERO, LOG_ZERO, LOG_ZERO]
    units[5] = [1.0, 1.0, -1.0, 1.0, 1.0, 1.0]
    log_mags[9] = LOG_ZERO
    scale, mantissa = unweighted(log_mags, units, precision)
    assert scale.shape == mantissa.shape == (20,)
    assert abs(mantissa[5]) == pytest.approx(1e-16, rel=1e-12)
    assert (scale[9], mantissa[9]) == (LOG_ZERO, 0j)
    for size in (7, 1):
        parts = [unweighted(log_mags[i:i + size], units[i:i + size], precision)
                 for i in range(0, 20, size)]
        assert np.concatenate([p[0] for p in parts]).tobytes() == scale.tobytes()
        assert np.concatenate([p[1] for p in parts]).tobytes() == mantissa.tobytes()
    for i in range(20):
        assert one_row(log_mags[i], units[i], precision) == (scale[i], mantissa[i])


@pytest.mark.parametrize("precision", ["standard", "extended"])
def test_weight_rows_share_one_base(precision):
    # G weight rows over one base give G sums, each the same bits as the
    # sum of that weight row alone, and the plain weighted sums
    rng = np.random.default_rng(31)
    log_mags = rng.normal(size=(9, 12))
    units = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(9, 12)))
    weights = rng.uniform(-3.0, 3.0, size=(3, 12))
    scale, mantissa = logsum_complex(log_mags, units, weights, precision)
    assert scale.shape == (9,) and mantissa.shape == (9, 3)
    direct = (np.exp(log_mags) * units) @ weights.T
    for g in range(3):
        alone = logsum_complex(log_mags, units, weights[g:g + 1], precision)[1][:, 0]
        assert alone.tobytes() == mantissa[:, g].tobytes()
        got = np.exp(scale) * mantissa[:, g]
        assert np.abs(got - direct[:, g]).max() <= 1e-12 * np.abs(direct[:, g]).max()
    # a real base gives real sums
    scale, real = logsum_complex(log_mags, None, weights, precision)
    assert real.dtype == float
    assert np.allclose(np.exp(scale)[:, None] * real, np.exp(log_mags) @ weights.T,
                       rtol=1e-12, atol=0.0)


def test_cancellation_ratio_reads_the_weights(monkeypatch):
    # the largest term is exp part times |weight|: terms [1e16, 1, -1e16]
    # cancel to 1, which the plain sum loses and the exact accumulator keeps
    log_mags = np.zeros((1, 3))
    scale, mantissa = logsum_complex(log_mags, None, np.array([[1e16, 1.0, -1e16]]))
    assert scale[0] == 0.0 and mantissa[0, 0] == 1.0

    # the screen max|term| <= max|w| flags this sum (|sum| ~ 1e-9 < 1e-8 * 1e9),
    # but its largest term is 1e-9 itself, so nothing is redone
    def no_fsum(values):
        raise AssertionError("exact accumulator on a sum that does not cancel")

    monkeypatch.setattr(logcomplex.math, "fsum", no_fsum)
    log_mags = np.array([[0.0, -50.0]])
    weights = np.array([[1e-9, 1e9]])
    scale, mantissa = logsum_complex(log_mags, np.ones((1, 2), dtype=complex), weights)
    assert mantissa[0, 0] == 1e-9 + math.exp(-50.0) * 1e9
    # a real base with nonnegative weights is never tested
    logsum_complex(np.array([[0.0, 0.0]]), None, np.array([[0.0, 1e-30]]))
