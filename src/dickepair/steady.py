"""Exact steady-state collective moments of the driven damped ensemble.

The stationary density operator has the closed form

    rho_ss = Z^-1 * sum_{n,m=0..N} C_nm (S-)^n (S+)^m,
    C_nm   = (-1)^(n+m) alpha^-n (alpha*)^-m a_nm,
    a_nm   = Gamma(1+n+beta) Gamma(1+m+beta*) / (n! m! Gamma(1+beta) Gamma(1+beta*)),

with alpha, beta from :func:`dickepair.params.derive_params`. Tracing against
ladder-operator products reduces every collective moment
<(S+)^p Sz^r (S-)^f> to a double sum sum_n C_{n-f,n-p} sum_m w(n, m) q(n+m)
over combinatorial weights. The inner sum does not depend on the parameters
and closes in exact integers, built for all rows of an N by an exact ratio
recurrence in O(N) big-integer steps (:func:`_row_sums`); only the float
rows log|S_n| and sign(S_n) are cached. That leaves one O(N) sum
over n, evaluated in log space because its terms reach (2N+1)! scale: each
term is a log magnitude times a unit complex factor, and the sum comes back
as exp(scale) * mantissa (:func:`dickepair.logcomplex.logsum_complex`).

Gamma-function ratios are evaluated as Pochhammer products
Gamma(1+n+beta)/Gamma(1+beta) = prod_{k=1..n} (k+beta), which is exact and
avoids complex-gamma branch cuts and overflow.

The parameter-dependent tables carry a leading batch axis: P operating points
of one ensemble (a :class:`~dickepair.params.ParamBatch`) give (P, N+1)
coefficient arrays, and each ladder sum is one row reduction over them. The
single-point functions below evaluate the batch of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexRange, ZeroDrive
from .logcomplex import LOG_ZERO, logsum_complex
from .params import ParamBatch, SystemParams, derive_params

__all__ = [
    "ExpectationSet",
    "expectation",
    "expectation_set",
]


@dataclass(frozen=True)
class ExpectationSet:
    """The collective moments needed for the two-qubit reduction.

    ``s_z``, ``s_z2`` and ``s_plus_s_minus`` are real for any valid state
    (Hermitian observables); they are stored as floats. For a batch of P
    points every field is a (P,) array instead, complex or float.
    """

    s_plus: complex
    s_z: float
    s_z2: float
    s_plus_sz: complex
    s_plus2: complex
    s_plus_s_minus: float


def _row_sums(n_qubits: int, polys: tuple[tuple[int, ...], ...]):
    """(log|S_n|, sign(S_n)) over n = 0..N for each polynomial q in ``polys``.

    S_n = sum_m w(n, m) q(n + m), where w(n, m) = (N-m)! (m+n)! / ((N-m-n)! m!)
    for m <= N-n is the ladder weight of the trace, and q, given by its
    integer coefficients in ascending powers, is a polynomial in the lowering
    count d = n + m (Sz = N/2 - d). Written in rising factorials,
    q(d) = sum_j c_j (d+1)(d+2)...(d+j), each term closes by Vandermonde's
    identity
        sum_m C(N-m, n) C(m+n+j, n+j) = C(N+n+j+1, 2n+j+1),
    so S_n = sum_j c_j T_j(n) with T_j(n) = n! (n+j)! C(N+n+j+1, 2n+j+1).
    T_j(0) = j! C(N+j+1, j+1), and the exact ratio recurrence
        T_j(n+1) = T_j(n) (n+1)(n+j+1)(N+n+j+2)(N-n) / ((2n+j+2)(2n+j+3))
    steps every row with one small-integer multiply and one exact division,
    O(N) big-integer steps per j. The polynomials of one call share the T_j.
    Rows whose weights vanish come out exactly zero and signed terms cancel
    without rounding; only the float rows leave this function. The signs
    are complex units, ready to multiply the complex coefficients of a
    ladder sum. Both arrays of each pair are read-only.
    """
    N = n_qubits
    terms = []
    for poly in polys:
        rising, rest = [], list(reversed(poly))
        for k in range(1, len(poly) + 1):
            # synthetic division by (d + k); the remainder q(-k) is the next c_j
            acc, quotient = 0, []
            for a in rest:
                acc = acc * -k + a
                quotient.append(acc)
            rising.append(quotient.pop())
            rest = quotient
        terms.append([(j, c) for j, c in enumerate(rising) if c])
    width = max((j + 1 for pairs in terms for j, _ in pairs), default=0)
    t = [math.factorial(j) * math.comb(N + j + 1, j + 1) for j in range(width)]
    logs = [[] for _ in polys]
    signs = [[] for _ in polys]
    for n in range(N + 1):
        for pairs, log_s, sign in zip(terms, logs, signs):
            s = sum(c * t[j] for j, c in pairs)
            log_s.append(math.log(abs(s)) if s else LOG_ZERO)
            sign.append(-1.0 if s < 0 else 1.0)
        t = [t_j * ((n + 1) * (n + j + 1) * (N + n + j + 2) * (N - n))
             // ((2 * n + j + 2) * (2 * n + j + 3)) for j, t_j in enumerate(t)]
    rows = []
    for log_s, sign in zip(logs, signs):
        pair = (np.array(log_s), np.array(sign, dtype=complex))
        for arr in pair:
            arr.setflags(write=False)
        rows.append(pair)
    return tuple(rows)


@lru_cache(maxsize=None)
def _moment_rows(n_qubits: int, r: int):
    """Cached row sums of (2 Sz)^r, the ladder polynomial (N - 2d)^r."""
    N = n_qubits
    poly = tuple(math.comb(r, k) * N ** (r - k) * (-2) ** k for k in range(r + 1))
    return _row_sums(N, (poly,))[0]


@lru_cache(maxsize=None)
def _pair_rows(n_qubits: int):
    """Cached row sums of the six pair polynomials, in the order of pair_entries."""
    N = n_qubits
    return _row_sums(N, ((N * (N - 1), 1 - 2 * N, 1), (N, -1), (1,),
                         (0, N, -1), (-1, 1), (0, -1, 1)))


class _SteadyTables:
    """Coefficients shared by all moments, for a batch of P operating points.

    ``a_log`` and ``a_unit`` are (P, N+1) arrays, ``log_z`` and the ladder
    sums are (P,) arrays: each ladder sum is one row reduction over the
    batch. A :class:`SystemParams` is taken as the batch of one.
    Pure after construction: concurrent reads are safe.
    """

    def __init__(self, params: SystemParams | ParamBatch, precision: str = "standard"):
        points = params if isinstance(params, ParamBatch) else ParamBatch.of(params)
        if not points.rabi.all():
            raise ZeroDrive("steady-state formulas are singular at rabi = 0")
        self.params = params
        self.precision = precision
        N = points.n_qubits
        self.n_qubits = N
        derived = derive_params(points)

        # a_n = prod_{k=1..n} (1 + beta/k) = Gamma(1+n+beta) / (Gamma(1+beta) n!)
        ratios = 1.0 + derived.beta[:, None] / np.arange(1, N + 1)
        magnitudes = np.abs(ratios)
        self.a_log = np.zeros((len(points), N + 1))
        self.a_unit = np.ones((len(points), N + 1), dtype=complex)
        np.cumsum(np.log(magnitudes), axis=1, out=self.a_log[:, 1:])
        np.cumprod(ratios / magnitudes, axis=1, out=self.a_unit[:, 1:])

        alpha = derived.alpha
        abs_alpha = np.abs(alpha)
        self.log_alpha = np.log(abs_alpha)
        self.alpha_unit = -alpha.conjugate() / abs_alpha
        scale, mantissa = self._ladder_sum(0, 0, _moment_rows(N, 0))
        self.log_z = scale + np.log(mantissa.real)

    def _ladder_sum(self, p: int, f: int, rows):
        """sum_{n >= max(p, f)} C_{n-f, n-p} S_n as (scale, mantissa) arrays of shape (P,).

        Unnormalized, with ``rows`` = (log|S_n|, sign(S_n)) of a polynomial q
        from _row_sums: this is
        Z * <(S+)^p q(N/2 - Sz) (S-)^f>, and exactly zero (an empty sum) when
        p or f exceeds N. The n-independent factor of C, (-1)^(p+f)
        (alpha*/|alpha|)^(p-f) = (-alpha*/|alpha|)^(p-f), multiplies the
        mantissa once: an exact power of i when alpha is imaginary. On the
        diagonal the unit factors a_k conj(a_k) = 1 are left out, since a
        vectorised complex product may round their imaginary part to nonzero.
        """
        N, lo = self.n_qubits, max(p, f)
        if lo > N:
            size = len(self.log_alpha)
            return np.full(size, LOG_ZERO), np.zeros(size, dtype=complex)
        log_s, sign_s = rows
        power = 2.0 * np.arange(lo, N + 1) - p - f
        # rows n = lo..N read the prefix columns n - f and n - p
        a_f, a_p = slice(lo - f, N + 1 - f), slice(lo - p, N + 1 - p)
        c_mag = self.a_log[:, a_f] + self.a_log[:, a_p] - power * self.log_alpha[:, None]
        units = sign_s[lo:]
        if p != f:
            units = self.a_unit[:, a_f] * np.conj(self.a_unit[:, a_p]) * units
        scale, mantissa = logsum_complex(c_mag + log_s[lo:], units, self.precision)
        if p != f:
            mantissa = mantissa * self.alpha_unit ** (p - f)
        return scale, mantissa

    def moment(self, p: int, r: int, f: int) -> np.ndarray:
        """<(S+)^p Sz^r (S-)^f> of each point, a (P,) array.

        Sz^r enters as the ladder polynomial (N - 2d)^r / 2^r.
        """
        N = self.n_qubits
        for name, v in (("p", p), ("r", r), ("f", f)):
            if v < 0:
                raise IndexRange(f"moment index {name}={v} is negative")
        scale, mantissa = self._ladder_sum(p, f, _moment_rows(N, r))
        return np.exp(scale - self.log_z - r * math.log(2.0)) * mantissa

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
        Returns (r11, r12, r14, r22, r24, r44), each of shape (P,).
        """
        N = self.n_qubits
        log_norm = self.log_z + math.log(N) + math.log(N - 1)

        entries = []
        for p, rows in zip((0, 1, 2, 0, 1, 0), _pair_rows(N)):
            scale, mantissa = self._ladder_sum(p, 0, rows)
            entries.append(np.exp(scale - log_norm) * mantissa)
        r11, r12, r14, r22, r24, r44 = entries
        return r11.real, r12, r14, r22.real, r24, r44.real


@lru_cache(maxsize=128)
def _steady_tables(params: SystemParams, precision: str) -> _SteadyTables:
    return _SteadyTables(params, precision)


def expectation(params: SystemParams, p: int, r: int, f: int,
                precision: str = "standard") -> complex:
    """Steady-state <(S+)^p Sz^r (S-)^f> for any p, r, f >= 0.

    Sz^r is defined for every r; for p or f above N the ladder operator power
    vanishes on the N-qubit ladder and the moment is exactly 0. Negative
    indices raise IndexRange.
    """
    return complex(_steady_tables(params, precision).moment(p, r, f)[0])


def expectation_set(params: SystemParams | ParamBatch,
                    precision: str = "standard") -> ExpectationSet:
    """All moments entering the pair density matrix, from shared tables.

    A :class:`ParamBatch` gives an :class:`ExpectationSet` of (P,) arrays
    from one table build; one :class:`SystemParams` gives its scalars, the
    batch of one.
    """
    batch = isinstance(params, ParamBatch)
    tables = _SteadyTables(params, precision) if batch else _steady_tables(params, precision)
    moments = {
        "s_plus": tables.moment(1, 0, 0),
        "s_z": tables.moment(0, 1, 0).real,
        "s_z2": tables.moment(0, 2, 0).real,
        "s_plus_sz": tables.moment(1, 1, 0),
        "s_plus2": tables.moment(2, 0, 0),
        "s_plus_s_minus": tables.moment(1, 0, 1).real,
    }
    if batch:
        return ExpectationSet(**moments)
    return ExpectationSet(**{name: m[0].item() for name, m in moments.items()})
