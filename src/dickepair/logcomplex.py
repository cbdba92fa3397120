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


def logsum_complex(log_mags: np.ndarray, units, precision: str = "standard"):
    """Row sums of the terms exp(log_mags) * units as (scale, mantissa) arrays.

    ``log_mags`` is a (P, K) float array with K >= 1: P sums of K terms,
    reduced along the last axis to (P,) arrays with row p's sum
    exp(scale[p]) * mantissa[p]. ``units`` are modulus-1 factors that
    broadcast against ``log_mags``; exact ones such as +-1 and +-i multiply
    without rounding. ``scale`` is a row's largest log magnitude, so
    |mantissa| is its cancellation ratio |sum| / max|term|; an all-zero row
    is (LOG_ZERO, 0j). ``standard`` mode takes a plain vector sum of every
    row and redoes exactly (math.fsum of the real and imaginary parts) only
    the rows with |mantissa| < CANCELLATION_TRIGGER; ``extended`` sums every
    row exactly. numpy reduces each row on its own, so a row's result does
    not depend on the rows beside it.
    """
    if precision not in PRECISION_MODES:
        raise ValueError(f"precision must be one of {PRECISION_MODES}, got {precision!r}")
    scale = log_mags.max(axis=1)
    # an all-zero row (scale LOG_ZERO) is shifted by a finite amount, so its
    # terms stay exp(-inf) = 0 instead of exp(-inf + inf) = nan
    shift = np.maximum(scale, _MOST_NEGATIVE)
    terms = np.exp(log_mags - shift[:, None]) * np.asarray(units, dtype=complex)
    mantissa = terms.sum(axis=1)
    if precision == "extended" or np.abs(mantissa).min() < CANCELLATION_TRIGGER:
        redo = scale != LOG_ZERO
        if precision == "standard":
            redo &= np.abs(mantissa) < CANCELLATION_TRIGGER
        for i in np.flatnonzero(redo):
            mantissa[i] = complex(math.fsum(terms[i].real), math.fsum(terms[i].imag))
    return scale, mantissa
