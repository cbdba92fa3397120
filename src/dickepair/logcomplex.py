"""Stable log-space summation of complex terms.

The closed-form steady state multiplies factorial-scale quantities whose
magnitudes reach ~10^300 before normalization, far beyond double range.
Every sum term is therefore carried as a log magnitude and a unit-modulus
complex factor holding its phase and sign; a sum factors out the largest log
magnitude and comes back as (scale, mantissa), meaning exp(scale) * mantissa.
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


def logsum_complex(log_mags, units, precision: str = "standard") -> tuple[float, complex]:
    """Sum of the terms exp(log_mags) * units as (scale, mantissa), sum = exp(scale) * mantissa.

    ``units`` are modulus-1 complex factors; exact ones such as +-1 and +-i
    multiply without rounding. ``scale`` is the largest log magnitude, so
    |mantissa| is the cancellation ratio |sum| / max|term|; an empty or
    all-zero sum is (LOG_ZERO, 0j). ``standard`` mode takes a plain vector
    sum and redoes it exactly (math.fsum of the real and imaginary parts)
    when |mantissa| < CANCELLATION_TRIGGER; ``extended`` always sums exactly.
    """
    if precision not in PRECISION_MODES:
        raise ValueError(f"precision must be one of {PRECISION_MODES}, got {precision!r}")
    log_mags = np.asarray(log_mags, dtype=float)
    if log_mags.size == 0:
        return LOG_ZERO, 0j
    top = float(np.max(log_mags))
    if top == LOG_ZERO:
        return LOG_ZERO, 0j
    terms = np.exp(log_mags - top) * np.asarray(units, dtype=complex)
    if precision == "standard":
        mantissa = complex(terms.sum())
        if abs(mantissa) >= CANCELLATION_TRIGGER:
            return top, mantissa
    return top, complex(math.fsum(terms.real), math.fsum(terms.imag))
