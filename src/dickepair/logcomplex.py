"""Stable log-space summation of complex terms.

The closed-form steady state multiplies factorial-scale quantities whose
magnitudes reach ~10^300 before normalization, far beyond double range.
Every sum term is therefore carried as a log magnitude and a unit-modulus
complex factor holding its phase and sign; a sum factors out the largest log
magnitude and comes back as (scale, mantissa), meaning exp(scale) * mantissa.
The sums of a batch of operating points are the rows of a (P, K) array,
reduced along the last axis in one pass.
"""
from __future__ import annotations

import math

import numpy as np

LOG_ZERO = float("-inf")

# A sum whose standard-precision accumulation is smaller than this fraction of
# its largest term has lost at least half the mantissa to cancellation and is
# recomputed with an exact (Shewchuk) accumulator.
CANCELLATION_TRIGGER = 1e-8

PRECISION_MODES = ("standard", "extended")

_MOST_NEGATIVE = float(np.finfo(float).min)


def logsum_complex(log_mags, units, precision: str = "standard"):
    """Sums of the terms exp(log_mags) * units along the last axis as (scale, mantissa).

    Each row's sum is exp(scale) * mantissa. ``units`` are modulus-1 complex
    factors that broadcast against ``log_mags``; exact ones such as +-1 and
    +-i multiply without rounding. ``scale`` is a row's largest log
    magnitude, so |mantissa| is its cancellation ratio |sum| / max|term|; an
    empty or all-zero row is (LOG_ZERO, 0j). ``standard`` mode takes a plain
    vector sum of every row and redoes exactly (math.fsum of the real and
    imaginary parts) only the rows with |mantissa| < CANCELLATION_TRIGGER;
    ``extended`` sums every row exactly. numpy reduces each row on its own,
    so a row's result does not depend on the rows beside it. A 1-D input is
    one row and returns a (float, complex) pair; a (P, K) input returns
    (P,) arrays.
    """
    if precision not in PRECISION_MODES:
        raise ValueError(f"precision must be one of {PRECISION_MODES}, got {precision!r}")
    log_mags = np.asarray(log_mags, dtype=float)
    single = log_mags.ndim == 1
    if single:
        log_mags = log_mags[None]
    if log_mags.size == 0:
        scale = np.full(len(log_mags), LOG_ZERO)
        mantissa = np.zeros(len(log_mags), dtype=complex)
    else:
        scale = log_mags.max(axis=1)
        # an all-zero row (scale LOG_ZERO) is shifted by a finite amount, so
        # its terms stay exp(-inf) = 0 instead of exp(-inf + inf) = nan
        shift = np.maximum(scale, _MOST_NEGATIVE)
        terms = np.exp(log_mags - shift[:, None]) * np.asarray(units, dtype=complex)
        mantissa = terms.sum(axis=1)
        if precision == "extended" or np.abs(mantissa).min() < CANCELLATION_TRIGGER:
            redo = scale != LOG_ZERO
            if precision == "standard":
                redo &= np.abs(mantissa) < CANCELLATION_TRIGGER
            for i in np.flatnonzero(redo):
                mantissa[i] = complex(math.fsum(terms[i].real), math.fsum(terms[i].imag))
    if single:
        return float(scale[0]), complex(mantissa[0])
    return scale, mantissa
