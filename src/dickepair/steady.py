"""Exact steady-state collective moments of the driven damped ensemble.

The stationary density operator has the closed form

    rho_ss = Z^-1 * sum_{n,m=0..N} C_nm (S-)^n (S+)^m,
    C_nm   = (-1)^(n+m) alpha^-n (alpha*)^-m a_nm,
    a_nm   = Gamma(1+n+beta) Gamma(1+m+beta*) / (n! m! Gamma(1+beta) Gamma(1+beta*)),

with alpha, beta from :func:`dickepair.params.derive_params`. Tracing against
ladder-operator products reduces every collective moment
<(S+)^p Sz^r (S-)^f> to a double sum sum_n C_{n-f,n-p} sum_m w(n, m) q(n+m)
over combinatorial weights. The inner sum S_q[n] does not depend on the
parameters and closes in exact arithmetic (:func:`_row_sums`). Every row is
written as S_q[n] = S_0[n] w_q[n]: S_0 is the row of q = 1, the partition
function's, built once per N for all rows by an exact integer ratio
recurrence in O(N) big-integer steps (:func:`_log_s0`), and the weight
w_q = S_q / S_0 is a float of modest size, the correctly rounded value of
a small exact rational. Only the float rows are cached: one log S_0 per N,
which every weight table of that N shares, and the weights. That leaves
O(N) sums over n, evaluated in log space because their terms reach (2N+1)!
scale. The sums taken together at one drive power (p, f) share one base
C_{n-f,n-p} S_0[n], exponentiated once, and differ only in their weight
rows (:func:`dickepair.logcomplex.logsum_complex`); each sum comes back as
exp(scale) * mantissa. Z is the q = 1 sum at (0, 0), and every moment or
pair entry is exp(scale - z_scale) * mantissa / z_mantissa: the scales
cancel before the one exp, so a sum of Z's own group is a plain ratio of
mantissas.

Gamma-function ratios are evaluated as Pochhammer products
Gamma(1+n+beta)/Gamma(1+beta) = prod_{k=1..n} (k+beta), which is exact and
avoids complex-gamma branch cuts and overflow.

The parameter-dependent tables carry a leading batch axis: P operating points
of one ensemble (a :class:`~dickepair.params.ParamBatch`) give (P, N+1)
coefficient arrays, and each ladder sum is one row reduction over them. The
beta tables (the log Pochhammer prefix and its phase steps) depend on beta
alone, so a batch whose rows all have the same beta bit for bit, such as a
pump curve, builds them as one (1, N+1) and one (1, N) row that broadcast
against the P rows; any other batch builds (P, N+1) and (P, N). The log
magnitudes log|u_n| = log|a_n| - n log|alpha| stay (P, N+1), each row with
its own n log|alpha|, so every row is rounded as its batch of one rounds
it. The single-point functions below evaluate the batch of one on tables
built for the call; only :func:`expectation` keeps the tables of its last
128 points.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexRange, NumericalFailure, ZeroDrive
from .logcomplex import LOG_ZERO, logsum_complex
from .params import ParamBatch, SystemParams, derive_params

__all__ = [
    "ExpectationSet",
    "expectation",
    "expectation_set",
]

# the Sz powers whose weight rows are built together, in one pass per N
_LOW_MOMENTS = (0, 1, 2)


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


@lru_cache(maxsize=None)
def _log_s0(n_qubits: int) -> np.ndarray:
    """log S_0[n] over n = 0..N, one read-only (N+1,) array per N.

    S_0 = T_0 is the row sum of q = 1 (see :func:`_row_sums`), positive for
    every n. T_0(0) = N + 1, and the exact ratio recurrence
        T_0(n+1) = T_0(n) (n+1)^2 (N+n+2)(N-n) / ((2n+2)(2n+3))
    steps it with one small-integer multiply and one exact division per row,
    O(N) big-integer steps; only the log of each row is kept.
    """
    N = n_qubits
    s0 = N + 1
    log_s0 = []
    for n in range(N + 1):
        log_s0.append(math.log(s0))
        s0 = s0 * ((n + 1) ** 2 * (N + n + 2) * (N - n)) // ((2 * n + 2) * (2 * n + 3))
    out = np.array(log_s0)
    out.setflags(write=False)
    return out


def _row_sums(n_qubits: int, polys: tuple[tuple[int, ...], ...],
              denominators: tuple[int, ...] | None = None):
    """(log S_0, weights) over n = 0..N for the polynomials q in ``polys``.

    S_q[n] = sum_m w(n, m) q(n + m), where w(n, m) = (N-m)! (m+n)! / ((N-m-n)! m!)
    for m <= N-n is the ladder weight of the trace, and q, given by its
    integer coefficients in ascending powers, is a polynomial in the lowering
    count d = n + m (Sz = N/2 - d). Written in rising factorials,
    q(d) = sum_j c_j (d+1)(d+2)...(d+j), each term closes by Vandermonde's
    identity
        sum_m C(N-m, n) C(m+n+j, n+j) = C(N+n+j+1, 2n+j+1),
    so S_q[n] = sum_j c_j T_j(n) with T_j(n) = n! (n+j)! C(N+n+j+1, 2n+j+1).

    S_0 = T_0 is the row of q = 1; ``log S_0`` is the one cached array of
    :func:`_log_s0` for this N, shared by every weight table. The other T_j
    are small rational multiples of it,
    r_j(n) = T_j(n) / T_0(n) = prod_{i=1..j} (n+i)(N+n+1+i) / (2n+1+i),
    so row g of the (G, K) ``weights``, S_q[n] / (denominators[g] S_0[n])
    (denominators default to 1), is sum_j c_j r_j(n) over denominators[g]:
    one correctly rounded true division of two small exact integers. Rows
    whose weights vanish come out exactly zero and signed terms cancel
    without rounding. A nonzero S_q whose weight would leave the normal
    double range raises NumericalFailure. Both arrays are read-only.
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
    dens = denominators or (1,) * len(polys)
    width = max((j + 1 for pairs in terms for j, _ in pairs), default=1)
    rows = [[] for _ in polys]
    for n in range(N + 1):
        # r_j(n) = ratios[j] / common, common = prod_{i=1..width-1} (2n+1+i)
        ratios, common = [1], 1
        for i in range(1, width):
            k = 2 * n + 1 + i
            ratios = [a * k for a in ratios] + [ratios[-1] * (n + i) * (N + n + 1 + i)]
            common *= k
        for pairs, den, row in zip(terms, dens, rows):
            s = sum(c * ratios[j] for j, c in pairs)
            weight = s / (common * den)
            if s and not abs(weight) >= sys.float_info.min:
                raise NumericalFailure(
                    f"ladder row weight {s}/{common * den} leaves double range "
                    f"at N={N}, n={n}")
            row.append(weight)
    weights = np.array(rows, dtype=float)
    weights.setflags(write=False)
    return _log_s0(N), weights


@lru_cache(maxsize=None)
def _moment_rows(n_qubits: int, powers: tuple[int, ...]):
    """Cached row sums of ((N - 2d) / N)^r for each r in ``powers``.

    (2 Sz / N)^r is the ladder polynomial (N - 2d)^r / N^r, so every weight
    is an average of numbers in [-1, 1] and stays in double range for any r;
    the factor (N/2)^r goes into the moment's scale instead.
    """
    N = n_qubits
    polys = tuple(tuple(math.comb(r, k) * N ** (r - k) * (-2) ** k for k in range(r + 1))
                  for r in powers)
    return _row_sums(N, polys, tuple(N ** r for r in powers))


@lru_cache(maxsize=None)
def _pair_rows(n_qubits: int):
    """Cached row sums of the pair polynomials 1, r11, r22, r44, r12, r24.

    Grouped by drive power: rows 0-3 share the base (p, f) = (0, 0), rows
    4-5 share (1, 0), and row 0 (q = 1) serves r14 at (2, 0).
    """
    N = n_qubits
    return _row_sums(N, ((1,), (N * (N - 1), 1 - 2 * N, 1), (0, N, -1), (0, -1, 1),
                         (N, -1), (-1, 1)))


def _over_z(scale: np.ndarray, mantissa: np.ndarray, z, shift: float = 0.0) -> np.ndarray:
    """exp(scale + shift) * mantissa as a fraction of z = (z_scale, z_mantissa).

    ``mantissa`` is a (P,) or (P, G) array of ladder sums, ``z`` the (P,)
    scale and mantissa of the normaliser, and ``shift`` a log factor the
    sums carry outside their scale. The scales are subtracted before the
    one exp, so a sum at the normaliser's own scale (a sum of its group)
    is the plain ratio of the mantissas: exp(0) = 1. Returns the (P,) or
    (G, P) values, one row per sum.
    """
    z_scale, z_mantissa = z
    return np.exp(scale - z_scale + shift) * mantissa.T / z_mantissa


class _SteadyTables:
    """Coefficients shared by all moments, for a batch of P operating points.

    ``u_log`` is a (P, N+1) array and the ladder sums are (P,) arrays: each
    ladder sum is one row reduction over the batch. The beta tables
    ``a_log`` and ``v_unit`` are (1, N+1) and (1, N) when every row has the
    same beta bit for bit and (P, N+1) and (P, N) otherwise; numpy
    broadcasts a single row, and the products of ``v_unit`` columns in
    :meth:`_base` stay single rows too.
    ``u_log`` = ``a_log`` - n log|alpha| keeps each row's own log|alpha| (one
    shared log|alpha| would round differently), so a row's bits are those of
    its batch of one. A :class:`SystemParams` is taken as the batch of one.
    Every sum becomes a value by :func:`_over_z`, divided by Z from the
    (0, 0) sums of its own caller: row 0 (q = 1) of the pair entries'
    diagonal group or of the moments' low group. The moment sums are built
    on first use and kept; concurrent reads may build one twice, with the
    same result. The base of a drive power is built for each ladder sum
    that reads it.
    Tables live as long as the call that built them, except in
    :func:`expectation`'s memo. A point whose 1/|alpha| is not finite
    raises ZeroDrive, and one whose beta is not finite (Delta + delta
    overflows) NumericalFailure, before any table is built.
    """

    def __init__(self, params: SystemParams | ParamBatch, precision: str = "standard"):
        points = params if isinstance(params, ParamBatch) else ParamBatch.of(params)
        # finite flags can still give a drive |alpha| whose reciprocal overflows
        # (alpha_unit divides through it) or an overflowing Delta + delta;
        # both are typed errors here, before numpy could warn about them
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            derived = derive_params(points)
            abs_alpha = np.abs(derived.alpha)
            zero_drive = ~np.isfinite(1.0 / abs_alpha)
        if zero_drive.any():
            rabi = points.rabi[zero_drive][0]
            raise ZeroDrive("steady-state formulas are singular at rabi = 0" if rabi == 0 else
                            f"drive |alpha| = {abs_alpha[zero_drive][0]:.3g} at rabi = "
                            f"{rabi:.3g} is numerically zero")
        if not np.isfinite(derived.beta).all():
            raise NumericalFailure("beta = i (detuning + dipole_shift) / (1 + i dipole_shift) "
                                   "is not finite")
        self.params = params
        self.precision = precision
        N = points.n_qubits
        self.n_qubits = N

        # a_n = prod_{k=1..n} (1 + beta/k) = Gamma(1+n+beta) / (Gamma(1+beta) n!);
        # dividing a complex by a real is multiplying by its reciprocal. Rows
        # whose beta has the same bytes (a pump curve) share one table row;
        # bytes, not ==, so that betas -0.0 and 0.0 keep a row each
        beta = derived.beta
        raw = beta.tobytes()
        if raw == raw[:beta.itemsize] * len(beta):
            beta = beta[:1]
        ratios = 1.0 + beta[:, None] * (1.0 / np.arange(1, N + 1))
        magnitudes = np.abs(ratios)
        self.a_log = np.zeros((len(beta), N + 1))
        np.cumsum(np.log(magnitudes), axis=1, out=self.a_log[:, 1:])
        # column k-1 holds the phase step v_k = a_k |a_{k-1}| / (|a_k| a_{k-1})
        self.v_unit = ratios * (1.0 / magnitudes)

        alpha = derived.alpha
        # u_n = (-1)^n alpha^-n a_n gives C_{n-f, n-p} = u_{n-f} conj(u_{n-p})
        self.u_log = self.a_log - np.arange(N + 1) * np.log(abs_alpha)[:, None]
        self.alpha_unit = -alpha.conjugate() / abs_alpha
        self._moment_sums = {}

    def _base(self, p: int, f: int, log_s0: np.ndarray):
        """(log magnitudes, units) of C_{n-f, n-p} S_0[n] over rows n = max(p, f)..N.

        The unit factor of row n, a_{n-f} conj(a_{n-p}) / |a_{n-f} a_{n-p}|,
        is the product of the phase steps v_k for k = n-p+1..n-f when p > f
        (one step, a view, for rho12), and its conjugate when p < f. On the
        diagonal it is 1 and left out (units None).
        """
        N, lo = self.n_qubits, max(p, f)
        # rows n = lo..N read the prefix columns n - f and n - p
        a_f, a_p = slice(lo - f, N + 1 - f), slice(lo - p, N + 1 - p)
        log_mags = self.u_log[:, a_f] + self.u_log[:, a_p] + log_s0[lo:]
        units = None
        if p != f:
            # step k sits in column k - 1; row n takes k = n - j + 1, j = min+1..max
            steps = range(min(p, f) + 1, lo + 1)
            units = self.v_unit[:, lo - steps[0]:N + 1 - steps[0]]
            for j in steps[1:]:
                units = units * self.v_unit[:, lo - j:N + 1 - j]
            if p < f:
                units = np.conj(units)
        return log_mags, units

    def _ladder_sums(self, p: int, f: int, rows):
        """sum_{n >= max(p, f)} C_{n-f, n-p} S_0[n] w[n] for each weight row w.

        ``rows`` = (log S_0, weights) from _row_sums, weights of shape (G, N+1).
        Returns (scale, mantissa) of shapes (P,) and (P, G), unnormalized:
        column g is Z * <(S+)^p q_g(N/2 - Sz) (S-)^f> / denominator_g, and
        exactly zero (an empty sum) when p or f exceeds N. The n-independent
        factor of C, (-1)^(p+f) (alpha*/|alpha|)^(p-f) = (-alpha*/|alpha|)^(p-f),
        multiplies the mantissa once: an exact power of i when alpha is
        imaginary. A diagonal sum (p = f) has a real mantissa.
        """
        log_s0, weights = rows
        N, lo = self.n_qubits, max(p, f)
        if lo > N:
            size = len(self.u_log)
            return (np.full(size, LOG_ZERO),
                    np.zeros((size, len(weights)), dtype=float if p == f else complex))
        log_mags, units = self._base(p, f, log_s0)
        scale, mantissa = logsum_complex(log_mags, units, weights[:, lo:], self.precision)
        if p != f:
            # np.multiply, not the operator: for an operand of 256 KiB or more
            # numpy reuses the temporary power as the output and swaps the
            # operands, and a complex product is not bitwise commutative
            mantissa = np.multiply(mantissa, self.alpha_unit[:, None] ** (p - f))
        return scale, mantissa

    def _moment_group(self, p: int, f: int, powers: tuple[int, ...]):
        """_ladder_sums over the (2 Sz / N)^r rows for r in ``powers``, kept per (p, f)."""
        key = (p, f, powers)
        if key not in self._moment_sums:
            self._moment_sums[key] = self._ladder_sums(
                p, f, _moment_rows(self.n_qubits, powers))
        return self._moment_sums[key]

    def moment(self, p: int, r: int, f: int) -> np.ndarray:
        """<(S+)^p Sz^r (S-)^f> of each point, a (P,) array.

        Sz^r enters as (N/2)^r times the ladder polynomial ((N - 2d)/N)^r;
        the sums for r <= 2 at one (p, f) are taken together. The array is
        real when p = f.
        """
        N = self.n_qubits
        for name, v in (("p", p), ("r", r), ("f", f)):
            if v < 0:
                raise IndexRange(f"moment index {name}={v} is negative")
        powers = _LOW_MOMENTS if r in _LOW_MOMENTS else (r,)
        scale, mantissa = self._moment_group(p, f, powers)
        z_scale, z_rows = self._moment_group(0, 0, _LOW_MOMENTS)
        return _over_z(scale, mantissa[:, powers.index(r)], (z_scale, z_rows[:, 0]),
                       r * math.log(N / 2.0))

    def pair_entries(self):
        """The six independent pair-matrix entries as dedicated ladder sums.

        Each entry is the expectation of an operator combination whose ladder
        polynomial in d = N/2 - Sz is nonnegative wherever its weight is not
        zero: rho11 ~ (N-d)(N-d-1), rho22 ~ d(N-d), rho44 ~ d(d-1),
        rho12 ~ N-d, rho24 ~ d-1 (rows n >= 1, so d >= 1) and rho14 ~ 1.
        This avoids the catastrophic cancellation that assembling the entries
        from separately computed <Sz>, <Sz^2> moments suffers in the
        weak-drive regime, where the entries are tiny differences of
        N^2-scale moments. Z and the diagonal entries share one base, rho12
        and rho24 another, and rho14 is the third.
        Returns (r11, r12, r14, r22, r24, r44), each of shape (P,).
        """
        N = self.n_qubits
        log_s0, weights = _pair_rows(N)
        diag_scale, diag = self._ladder_sums(0, 0, (log_s0, weights[:4]))
        # every entry is a fraction of Z N(N-1); the diagonal shares Z's scale
        z = diag_scale, diag[:, 0] * (N * (N - 1))
        r11, r22, r44 = _over_z(diag_scale, diag[:, 1:], z)
        scale, mantissa = self._ladder_sums(1, 0, (log_s0, weights[4:]))
        r12, r24 = _over_z(scale, mantissa, z)
        scale, mantissa = self._ladder_sums(2, 0, (log_s0, weights[:1]))
        r14 = _over_z(scale, mantissa[:, 0], z)
        return r11, r12, r14, r22, r24, r44


@lru_cache(maxsize=128)
def _steady_tables(params: SystemParams, precision: str) -> _SteadyTables:
    return _SteadyTables(params, precision)


def expectation(params: SystemParams, p: int, r: int, f: int,
                precision: str = "standard") -> complex:
    """Steady-state <(S+)^p Sz^r (S-)^f> for any p, r, f >= 0.

    Sz^r is defined for every r; for p or f above N the ladder operator power
    vanishes on the N-qubit ladder and the moment is exactly 0. Negative
    indices raise IndexRange. The tables of the last 128 points are kept.
    """
    return complex(_steady_tables(params, precision).moment(p, r, f)[0])


def expectation_set(params: SystemParams | ParamBatch,
                    precision: str = "standard") -> ExpectationSet:
    """All moments entering the pair density matrix, from shared tables.

    A :class:`ParamBatch` gives an :class:`ExpectationSet` of (P,) arrays
    from one table build; one :class:`SystemParams` gives its scalars, the
    batch of one.
    """
    tables = _SteadyTables(params, precision)
    moments = {
        "s_plus": tables.moment(1, 0, 0),
        "s_z": tables.moment(0, 1, 0).real,
        "s_z2": tables.moment(0, 2, 0).real,
        "s_plus_sz": tables.moment(1, 1, 0),
        "s_plus2": tables.moment(2, 0, 0),
        "s_plus_s_minus": tables.moment(1, 0, 1).real,
    }
    if isinstance(params, ParamBatch):
        return ExpectationSet(**moments)
    return ExpectationSet(**{name: m[0].item() for name, m in moments.items()})
