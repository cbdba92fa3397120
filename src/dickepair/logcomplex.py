"""Stable log-space summation of weighted complex terms.

The closed-form steady state multiplies factorial-scale quantities whose
magnitudes reach ~10^300 before normalization, far beyond double range.
Every sum term is therefore carried as a log magnitude and a unit-modulus
complex factor holding its phase and sign, times a real weight of modest
size. Sums that share their log magnitudes and units (a base) and differ
only in their weights are taken together: the base is exponentiated once,
relative to its largest log magnitude, and each weight row gives one sum,
returned as exp(scale) * mantissa. The sums of a batch of operating points
are the rows of a (P, K) base, each reduced along the last axis on its own.
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


def logsum_complex(log_mags: np.ndarray, units, weights: np.ndarray,
                   precision: str = "standard"):
    """Weighted row sums of the terms exp(log_mags) * units as (scale, mantissa) arrays.

    ``log_mags`` is a (P, K) float array with K >= 1, the base: P rows of K
    term log magnitudes. ``units`` are modulus-1 factors that broadcast
    against it, or None for a real base of ones; exact ones such as +-1 and
    +-i multiply without rounding. ``weights`` is a (G, K) real array, one
    weight row per sum. Row p and weight row g give

        sum_k exp(log_mags[p, k]) units[p, k] weights[g, k] = exp(scale[p]) * mantissa[p, g],

    with ``scale`` the (P,) array of each row's largest log magnitude and
    ``mantissa`` a (P, G) array, real when ``units`` is None and complex
    otherwise; an all-zero row has scale LOG_ZERO and mantissa 0. The
    cancellation ratio of a sum is |mantissa| / max_k(exp(log_mags - scale)
    |weights|), that is |sum| / max|term|.

    Each sum is one contiguous row sum of base * weights[g], so a row's
    result does not depend on the rows beside it. ``standard`` mode redoes
    exactly (math.fsum of the real and imaginary parts) every sum whose
    cancellation ratio is below CANCELLATION_TRIGGER. The test first screens
    with max|term| <= max|weights| (the exponentiated base is at most 1),
    which passes every sum the ratio itself would flag, and it skips a real
    base with nonnegative weights, whose terms cannot cancel. ``extended``
    redoes every sum of a nonzero row.
    """
    if precision not in PRECISION_MODES:
        raise ValueError(f"precision must be one of {PRECISION_MODES}, got {precision!r}")
    scale = log_mags.max(axis=1)
    # an all-zero row (scale LOG_ZERO) is shifted by a finite amount, so its
    # terms stay exp(-inf) = 0 instead of exp(-inf + inf) = nan
    shift = np.maximum(scale, _MOST_NEGATIVE)
    magnitudes = np.exp(log_mags - shift[:, None])
    base = magnitudes if units is None else magnitudes * np.asarray(units, dtype=complex)
    # column g is filled by its own contiguous row sums
    mantissa = np.empty((len(weights), len(base)), dtype=base.dtype).T
    for g, w in enumerate(weights):
        np.add.reduce(base * w, axis=1, out=mantissa[:, g])
    rows = cols = ()
    if precision == "extended":
        rows, cols = np.nonzero(np.broadcast_to((scale != LOG_ZERO)[:, None], mantissa.shape))
    elif units is not None or weights.min() < 0.0:
        abs_w = np.abs(weights)
        flagged = np.abs(mantissa) < CANCELLATION_TRIGGER * abs_w.max()
        if flagged.any():
            rows, cols = np.nonzero(flagged)
            max_term = (magnitudes[rows] * abs_w[cols]).max(axis=1)
            keep = np.abs(mantissa[rows, cols]) < CANCELLATION_TRIGGER * max_term
            rows, cols = rows[keep], cols[keep]
    for i, g in zip(rows, cols):
        terms = base[i] * weights[g]
        if units is None:
            mantissa[i, g] = math.fsum(terms)
        else:
            mantissa[i, g] = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return scale, mantissa
