"""Exact steady-state collective moments of the driven damped ensemble.

The stationary density operator has the closed form

    rho_ss = Z^-1 * sum_{n,m=0..N} C_nm (S-)^n (S+)^m,
    C_nm   = (-1)^(n+m) alpha^-n (alpha*)^-m a_nm,
    a_nm   = Gamma(1+n+beta) Gamma(1+m+beta*) / (n! m! Gamma(1+beta) Gamma(1+beta*)),

with alpha, beta from :func:`dickepair.params.derive_params`. Tracing against
ladder-operator products reduces every collective moment
<(S+)^p Sz^r (S-)^f> to a double sum sum_n C_{n-f,n-p} sum_m w(n, m) q(n+m)
over combinatorial weights. The inner sum does not depend on the parameters
and closes in exact integers (:func:`_row_sums`), which leaves one O(N) sum
over n, evaluated in log space because its terms reach (2N+1)! scale.

Gamma-function ratios are evaluated as Pochhammer products
Gamma(1+n+beta)/Gamma(1+beta) = prod_{k=1..n} (k+beta), which is exact and
avoids complex-gamma branch cuts and overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexRange, ZeroDrive
from .logcomplex import LOG_ZERO, LogComplex, logsum_complex, wrap_phase
from .params import DerivedParams, SystemParams, derive_params

__all__ = [
    "ExpectationSet",
    "pochhammer_ratio",
    "coefficient_a",
    "coefficient_c",
    "partition_z",
    "expectation",
    "expectation_set",
]


@dataclass(frozen=True)
class ExpectationSet:
    """The collective moments needed for the two-qubit reduction.

    ``s_z``, ``s_z2`` and ``s_plus_s_minus`` are real for any valid state
    (Hermitian observables); they are stored as floats.
    """

    s_plus: complex
    s_z: float
    s_z2: float
    s_plus_sz: complex
    s_plus2: complex
    s_plus_s_minus: float


def pochhammer_ratio(n: int, beta: complex) -> LogComplex:
    """prod_{k=1..n} (k + beta) in log-polar form; exactly 1 for n = 0."""
    if n < 0:
        raise IndexRange(f"pochhammer order must be >= 0, got {n}")
    log_mag = 0.0
    phase = 0.0
    for k in range(1, n + 1):
        z = k + beta
        log_mag += math.log(abs(z))
        phase = wrap_phase(phase + math.atan2(z.imag, z.real))
    return LogComplex(log_mag, phase)


def coefficient_a(n: int, m: int, beta: complex) -> LogComplex:
    """a_nm = poch(n, beta) * conj(poch(m, beta)) / (n! m!).

    Satisfies a_nm = conj(a_mn); a_nn is real and positive.
    """
    if n < 0 or m < 0:
        raise IndexRange(f"coefficient indices must be >= 0, got ({n}, {m})")
    prod = pochhammer_ratio(n, beta) * pochhammer_ratio(m, beta).conjugate()
    return LogComplex(prod.log_mag - math.lgamma(n + 1) - math.lgamma(m + 1), prod.phase)


def coefficient_c(n: int, m: int, derived: DerivedParams) -> LogComplex:
    """C_nm = (-1)^(n+m) alpha^-n (alpha*)^-m a_nm in log-polar form."""
    if n < 0 or m < 0:
        raise IndexRange(f"coefficient indices must be >= 0, got ({n}, {m})")
    alpha = derived.alpha
    if alpha == 0:
        raise ZeroDrive("C_nm requires a nonzero drive (alpha != 0)")
    a = coefficient_a(n, m, derived.beta)
    log_mag = a.log_mag - (n + m) * math.log(abs(alpha))
    phase = a.phase + math.pi * (n + m) - (n - m) * math.atan2(alpha.imag, alpha.real)
    return LogComplex(log_mag, phase)


@lru_cache(maxsize=None)
def _row_sums(n_qubits: int, poly: tuple[int, ...]):
    """log|S_n| and sign(S_n) for n = 0..N, with S_n = sum_m w(n, m) q(n + m).

    w(n, m) = (N-m)! (m+n)! / ((N-m-n)! m!) for m <= N-n is the ladder weight
    of the trace, and q, given by its integer coefficients in ascending powers,
    is a polynomial in the lowering count d = n + m (Sz = N/2 - d). Written in
    rising factorials, q(d) = sum_j c_j (d+1)(d+2)...(d+j), each term closes
    by Vandermonde's identity
        sum_m C(N-m, n) C(m+n+j, n+j) = C(N+n+j+1, 2n+j+1),
    so S_n = n! sum_j c_j (n+j)! C(N+n+j+1, 2n+j+1) in exact integers: rows
    whose weights vanish come out exactly zero and signed terms cancel
    without rounding.
    """
    N = n_qubits
    rising, rest = [], list(reversed(poly))
    for k in range(1, len(poly) + 1):
        # synthetic division by (d + k); the remainder q(-k) is the next c_j
        acc, quotient = 0, []
        for a in rest:
            acc = acc * -k + a
            quotient.append(acc)
        rising.append(quotient.pop())
        rest = quotient
    log_s = np.full(N + 1, LOG_ZERO)
    sign = np.ones(N + 1)
    for n in range(N + 1):
        s = math.factorial(n) * sum(
            c * math.factorial(n + j) * math.comb(N + n + j + 1, 2 * n + j + 1)
            for j, c in enumerate(rising) if c
        )
        if s:
            log_s[n] = math.log(abs(s))
            sign[n] = -1.0 if s < 0 else 1.0
    for arr in (log_s, sign):
        arr.setflags(write=False)
    return log_s, sign


class _SteadyTables:
    """Per-operating-point coefficients shared by all moments.

    Pure after construction: concurrent reads are safe.
    """

    def __init__(self, params: SystemParams, precision: str = "standard"):
        if params.rabi == 0.0:
            raise ZeroDrive("steady-state formulas are singular at rabi = 0")
        self.params = params
        self.precision = precision
        self.derived = derive_params(params)
        N = params.n_qubits

        # a_n = prod_{k=1..n} (1 + beta/k) = Gamma(1+n+beta) / (Gamma(1+beta) n!)
        ratios = 1.0 + self.derived.beta / np.arange(1, N + 1)
        self.a_log = np.concatenate([[0.0], np.cumsum(np.log(np.abs(ratios)))])
        self.a_phase = np.concatenate([[0.0], np.cumsum(np.angle(ratios))])

        alpha = self.derived.alpha
        self.log_alpha = math.log(abs(alpha))
        self.arg_alpha = math.atan2(alpha.imag, alpha.real)
        self.log_z = self._ladder_sum(0, 0, (1,)).log_mag

    def _ladder_sum(self, p: int, f: int, poly: tuple[int, ...]) -> LogComplex:
        """sum_{n >= max(p, f)} C_{n-f, n-p} S_n, unnormalized; S_n from _row_sums.

        This is Z * <(S+)^p q(N/2 - Sz) (S-)^f>. The sign of C_{n-f, n-p},
        (-1)^(p+f), is carried as an exact sign, not a pi phase offset.
        """
        N = self.params.n_qubits
        n = np.arange(max(p, f), N + 1)
        log_s, sign_s = _row_sums(N, poly)
        c_mag = self.a_log[n - f] + self.a_log[n - p] - (2 * n - p - f) * self.log_alpha
        c_phase = self.a_phase[n - f] - self.a_phase[n - p] - (p - f) * self.arg_alpha
        sign = -1.0 if (p + f) % 2 else 1.0
        return logsum_complex(c_mag + log_s[n], c_phase, self.precision,
                              signs=sign * sign_s[n])

    def moment(self, p: int, r: int, f: int) -> complex:
        """<(S+)^p Sz^r (S-)^f>, with Sz^r = (N - 2d)^r / 2^r as the ladder polynomial."""
        N = self.params.n_qubits
        for name, v in (("p", p), ("r", r), ("f", f)):
            if v < 0 or v > N:
                raise IndexRange(f"moment index {name}={v} outside 0..{N}")
        poly = tuple(math.comb(r, k) * N ** (r - k) * (-2) ** k for k in range(r + 1))
        total = self._ladder_sum(p, f, poly)
        return LogComplex(total.log_mag - self.log_z - r * math.log(2.0),
                          total.phase).to_complex()

    def moment_set(self) -> ExpectationSet:
        return ExpectationSet(
            s_plus=self.moment(1, 0, 0),
            s_z=self.moment(0, 1, 0).real,
            s_z2=self.moment(0, 2, 0).real,
            s_plus_sz=self.moment(1, 1, 0),
            s_plus2=self.moment(2, 0, 0),
            s_plus_s_minus=self.moment(1, 0, 1).real,
        )

    def pair_entries(self):
        """The six independent pair-matrix entries as dedicated ladder sums.

        Each entry is the expectation of an operator combination whose ladder
        polynomial in d = N/2 - Sz is nonnegative wherever its weight is not
        zero: rho11 ~ (N-d)(N-d-1), rho22 ~ d(N-d), rho44 ~ d(d-1),
        rho12 ~ N-d, rho24 ~ d-1 (rows n >= 1, so d >= 1) and rho14 ~ 1.
        This avoids the catastrophic cancellation that assembling the entries
        from separately computed <Sz>, <Sz^2> moments suffers in the
        weak-drive regime, where the entries are tiny differences of
        N^2-scale moments.
        Returns (r11, r12, r14, r22, r24, r44).
        """
        N = self.params.n_qubits
        log_norm = self.log_z + math.log(N) + math.log(N - 1)

        def entry(p, poly):
            total = self._ladder_sum(p, 0, poly)
            return LogComplex(total.log_mag - log_norm, total.phase).to_complex()

        r11 = entry(0, (N * (N - 1), 1 - 2 * N, 1)).real
        r22 = entry(0, (0, N, -1)).real
        r44 = entry(0, (0, -1, 1)).real
        r12 = entry(1, (N, -1))
        r24 = entry(1, (-1, 1))
        r14 = entry(2, (1,))
        return r11, r12, r14, r22, r24, r44


@lru_cache(maxsize=128)
def _steady_tables(params: SystemParams, precision: str) -> _SteadyTables:
    return _SteadyTables(params, precision)


def partition_z(params: SystemParams, precision: str = "standard") -> LogComplex:
    """Normalization Z in log form; real and strictly positive."""
    return LogComplex(_steady_tables(params, precision).log_z, 0.0)


def expectation(params: SystemParams, p: int, r: int, f: int,
                precision: str = "standard") -> complex:
    """Steady-state <(S+)^p Sz^r (S-)^f> for 0 <= p, r, f <= N."""
    return _steady_tables(params, precision).moment(p, r, f)


def expectation_set(params: SystemParams, precision: str = "standard") -> ExpectationSet:
    """All moments entering the pair density matrix, from shared tables."""
    return _steady_tables(params, precision).moment_set()
