"""Stable log-space summation of complex terms.

The closed-form steady state multiplies factorial-scale quantities whose
magnitudes reach ~10^300 before normalization, far beyond double range.
Every coefficient and sum term is therefore carried as a (log magnitude,
phase) pair of floats; sums rescale by the maximum log magnitude before
accumulating.
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


def logsum_complex(log_mags, phases, precision: str = "standard",
                   signs=None) -> tuple[float, float]:
    """Sum of terms signs * exp(log_mags) * exp(i*phases), rescaled for stability.

    Returns the sum as (log magnitude, phase) with the phase in (-pi, pi]; an
    exact zero is (LOG_ZERO, 0.0). The largest log magnitude is factored out
    before accumulation, so the summed terms have magnitude <= 1. Exact sign
    flips should be passed via ``signs`` (+-1 factors) rather than folded into
    the phases as pi offsets: sin(pi) is only zero to machine precision, and
    under heavy cancellation that residue would contaminate the small
    surviving component. In ``standard`` mode the sum is a plain vector sum,
    upgraded to exact summation when the accumulated magnitude falls below
    CANCELLATION_TRIGGER times the largest term; ``extended`` forces the
    exact accumulator everywhere.
    """
    if precision not in PRECISION_MODES:
        raise ValueError(f"precision must be one of {PRECISION_MODES}, got {precision!r}")
    log_mags = np.asarray(log_mags, dtype=float)
    phases = np.asarray(phases, dtype=float)
    if log_mags.size == 0:
        return LOG_ZERO, 0.0
    top = float(np.max(log_mags))
    if top == LOG_ZERO:
        return LOG_ZERO, 0.0
    w = np.exp(log_mags - top)
    if signs is not None:
        w = w * np.asarray(signs, dtype=float)
    re = w * np.cos(phases)
    im = w * np.sin(phases)
    if precision == "extended":
        sr, si = math.fsum(re), math.fsum(im)
    else:
        sr, si = float(re.sum()), float(im.sum())
        if math.hypot(sr, si) < CANCELLATION_TRIGGER:
            sr, si = math.fsum(re), math.fsum(im)
    mag = math.hypot(sr, si)
    if mag == 0.0:
        return LOG_ZERO, 0.0
    phase = math.atan2(si, sr)
    return top + math.log(mag), math.pi if phase == -math.pi else phase
