"""Two-qubit reduced density matrix and Wootters concurrence.

For a permutation-symmetric N-qubit state the reduced state of any pair is
the same 4x4 matrix in the basis {|ee>, |eg>, |ge>, |gg>}, and every entry is
a linear combination of collective moments. Its eg and ge rows and columns
are equal, so six entries fix it: r11, r12, r14, r22, r24 and r44
(:class:`PairEntries`). The concurrence follows from the spin-flip
construction R = rho (sy x sy) rho* (sy x sy), whose eigenvalues are taken
from Hermitian routes: for a general 4x4 input, an ``eigh`` of rho, which
also validates it (finite, Hermitian, positive semidefinite), then the
``svd`` of sqrt(rho) (sy x sy) sqrt(rho)^T. A pair matrix of a symmetric
ensemble has its singlet weight exactly zero, lambda4 exactly 0, and
lambda1-3 from its 3x3 block over the triplet {|ee>, |T0>, |gg>}. Where its
Cholesky factor L completes (a last pivot of round-off size clamps to 0),
they are the singular values of L^T F L: in closed form, as the largest
roots of two cubics in its invariants, or by ``svd`` where those roots are
ill-conditioned; where it does not, they come from the block's ``eigh`` and
``svd``. One triplet core serves both inputs: the six entries of a
:class:`~dickepair.params.ParamBatch` (no 4x4 matrix is built), and the
exchange-symmetric rows of a (P, 4, 4) stack, read from the lower triangle
of its normalised copy once that is validated. Every route runs one batched
call over its rows; a single matrix is the stack of one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalFailure, PairUndefined
from .params import ParamBatch, SystemParams
from .steady import ExpectationSet, _SteadyTables

__all__ = [
    "ConcurrenceResult",
    "PairEntries",
    "two_qubit_rho",
    "steady_pair_density",
    "concurrence",
]

_SIGMA_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)

# the spin flip sy x sy on the triplet block {ee, T0, gg}; the block reads
# the rows and columns ee, eg, gg and scales each T0 index by sqrt(2)
_TRIPLET_FLIP = np.array([[0, 0, -1], [0, 1, 0], [-1, 0, 0]], dtype=complex)
# the row of a (6, P) lower triangle (a00, a10, a30, a11, a31, a33) at each
# position of the block over {ee, eg, gg}; its strict upper triangle conjugates
_BLOCK_ROWS = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
# (np.triu_indices(3, 1) written out: its first call costs about 0.25 MB of RSS)
_UPPER = (np.array([0, 0, 1]), np.array([1, 2, 2]))
_TRIPLET_SCALE = np.array([
    [1.0, np.sqrt(2.0), 1.0],
    [np.sqrt(2.0), 2.0, np.sqrt(2.0)],
    [1.0, np.sqrt(2.0), 1.0],
])
# the lower triangle of the block over {ee, eg, gg} in a 4x4 matrix:
# a00, a10, a30, a11, a31, a33
_LOWER_ROWS, _LOWER_COLS = np.array([0, 1, 3, 1, 3, 3]), np.array([0, 0, 0, 1, 1, 3])

HERMITIAN_TOL = 1e-9
EIG_NEG_TOL = -1e-9

# the closed-form triplet spectrum is used where both of its cubics have
# kappa <= KAPPA_MAX (``_largest_roots``), which bounds a root's first-order
# error by about 30 eps of the cubic's mean root. Measured: every fig2 and
# fig3 row and 87-92% of the fig4-fig6 rows pass, with lambdas within 2.2e-15
# of the svd of M; the rest (near-degenerate or nearly flat spectra) take the svd
KAPPA_MAX = 30.0
_KAPPA_FLOOR = 1.0 / (6.0 * KAPPA_MAX**2)
ROOT_SCALE_MIN = 1e-90


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence with its spin-flip spectrum and analytic references.

    ``lambdas`` are the four square-rooted eigenvalues of R in descending
    order (lambdas[3] is exactly 0 for a matrix on the triplet block);
    ``concurrence`` equals max(0, lambdas[0] - sum(lambdas[1:])).
    ``c_ref_1`` = 2(|rho14| - sqrt(rho22*rho33)) and
    ``c_ref_2`` = 2(|rho23| - sqrt(rho11*rho44)) are exact for X-shaped
    states and reported alongside the full result otherwise. For a stack of
    P matrices the fields are arrays of shape (P,), and ``lambdas`` (P, 4).
    """

    concurrence: float
    lambdas: tuple[float, float, float, float]
    c_ref_1: float
    c_ref_2: float


class PairEntries(NamedTuple):
    """The six entries that fix P exchange-symmetric pair matrices, each of shape (P,).

    r11, r22 and r44 are real arrays (rho11, rho22 = rho33 = rho23 and
    rho44); r12, r14 and r24 are complex (rho12 = rho13, rho14 and
    rho24 = rho34). The rest of each matrix mirrors them, so it is
    Hermitian with equal eg and ge rows and columns by construction.
    ``matrices()`` builds the (P, 4, 4) stack they fix.
    """

    r11: np.ndarray
    r12: np.ndarray
    r14: np.ndarray
    r22: np.ndarray
    r24: np.ndarray
    r44: np.ndarray

    def matrices(self) -> np.ndarray:
        """The (P, 4, 4) pair matrices, basis {ee, eg, ge, gg}."""
        return _assemble(*self)


def two_qubit_rho(moments: ExpectationSet, n_qubits: int) -> np.ndarray:
    """Pair density matrix from collective moments, basis {ee, eg, ge, gg}.

    The construction enforces Hermiticity and the exchange symmetries
    rho12 = rho13, rho22 = rho33, rho24 = rho34. Note the off-diagonal
    entries follow the convention rho_ij = <j|rho|i>, the entrywise complex
    conjugate of the <i|rho|j> partial trace; all entanglement quantities are
    invariant under this conjugation.
    """
    N = n_qubits
    if N < 2:
        raise PairUndefined(f"pair reduction needs at least 2 qubits, got {N}")
    sz, sz2 = moments.s_z, moments.s_z2
    sp, spsz, sp2 = moments.s_plus, moments.s_plus_sz, moments.s_plus2
    d4 = 4.0 * N * (N - 1)
    d2 = 2.0 * N * (N - 1)
    r11 = (N * N - 2 * N + 4 * sz2 + 4 * (N - 1) * sz) / d4
    r12 = (N * sp + 2 * spsz) / d2
    r14 = sp2 / (N * (N - 1))
    r22 = (N * N - 4 * sz2) / d4
    r24 = (sp * (N - 2) - 2 * spsz) / d2
    r44 = (N * N - 2 * N + 4 * sz2 - 4 * (N - 1) * sz) / d4
    return _assemble(*np.atleast_1d(r11, r12, r14, r22, r24, r44))[0]


def _assemble(r11, r12, r14, r22, r24, r44) -> np.ndarray:
    """(P, 4, 4) pair matrices from the six entry arrays of shape (P,), filled in place."""
    rho = np.empty((len(r11), 4, 4), dtype=complex)
    # row 4 i + j is entry (i, j) of every matrix; the eg and ge rows and
    # columns repeat
    entries = rho.reshape(-1, 16).T
    entries[0], entries[15], entries[3], entries[12] = r11, r44, r14, np.conj(r14)
    entries[5] = entries[6] = entries[9] = entries[10] = r22
    entries[1] = entries[2] = r12
    entries[4] = entries[8] = np.conj(r12)
    entries[7] = entries[11] = r24
    entries[13] = entries[14] = np.conj(r24)
    return rho


def steady_pair_density(params: SystemParams | ParamBatch,
                        precision: str = "standard") -> PairEntries | np.ndarray:
    """Steady-state pair density matrices straight from the closed form.

    Every entry is its own ladder sum with a nonnegative weight polynomial.
    In the weak-drive regime the diagonal entries are tiny differences of
    N^2-scale moments, and assembling them from moments (``two_qubit_rho``)
    loses all relative accuracy there; this path keeps it. At small N the
    dense oracle's ``oracle_pair_density`` is its independent reference.
    A :class:`ParamBatch` of P points gives the :class:`PairEntries` of its
    P matrices, with no 4x4 matrix built (``.matrices()`` gives the
    (P, 4, 4) stack); one :class:`SystemParams` gives its 4x4 matrix, the
    batch of one.
    """
    if params.n_qubits < 2:
        raise PairUndefined(
            f"pair reduction needs at least 2 qubits, got {params.n_qubits}"
        )
    entries = PairEntries(*_SteadyTables(params, precision).pair_entries())
    return entries if isinstance(params, ParamBatch) else entries.matrices()[0]


def concurrence(rho: np.ndarray | PairEntries) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit density matrix, a (P, 4, 4) stack or PairEntries.

    The input must be finite with positive trace. It is renormalized to
    unit trace, guarding against accumulated round-off in the moments, and
    every normalised matrix must then be Hermitian within 1e-9 (the largest
    |rho - rho^H| entry of the stack) and positive semidefinite within
    -1e-9, else NumericalFailure. c_ref_1 and c_ref_2 read the diagonal and
    the upper entries rho14 and rho23 of the normalised matrix, and the
    triplet routes below read its lower triangle. The spin-flip lambdas
    come from the equivalent Hermitian problem: the eigenvalues of
    R = rho (sy x sy) rho* (sy x sy) are the squared singular values of
    sqrt(rho) (sy x sy) sqrt(rho)^T, and singular values are perfectly
    conditioned, which avoids the error amplification of the non-normal
    eigenproblem when R has near-zero eigenvalues. Round-off negatives in
    the spectrum of rho clamp to zero before the square root.

    A matrix whose eg and ge rows and columns are exactly equal, as every
    pair matrix of a symmetric ensemble is, has the singlet in its kernel
    and lambda4 exactly 0; its lambda1-3 come from the 3x3 triplet block T.
    If the Cholesky factorization T = L L^H completes with positive first
    pivots and a last pivot above -1e-9 (a round-off one clamps to 0), the
    matrix passes the positivity check and lambda1-3 are the singular values
    of L^T F L, with F the triplet spin flip. They are taken in closed form:
    elementwise, from the invariants of L^T F L, as the largest roots of two
    cubics by the trigonometric formula, with no LAPACK call. A row whose
    cubics are ill-conditioned (condition kappa above KAPPA_MAX = 30: a
    nearly flat spectrum or a nearly double top root) or whose invariants
    leave the normal range takes the ``svd`` of L^T F L instead. Otherwise
    ``eigh`` and ``svd`` run on the block as above, and the positivity check
    reads the block's spectrum. Every other matrix
    takes the 4x4 problem. The routes are chosen per matrix, so a matrix's
    result does not depend on the others in its stack. A stack takes one
    batched call per route that has matrices, and every field of the
    result gains the leading axis P (an empty stack gives empty fields).

    :class:`PairEntries` are Hermitian with equal eg and ge rows and columns
    by construction. They must be six 1-D numpy arrays of one length with real
    r11, r22 and r44, else ValueError; past that only their finiteness and
    trace are checked, and every row goes to the triplet routes with no 4x4
    matrix built. The fields have the leading axis P, and each row has the
    bits of its ``.matrices()`` row.
    """
    if isinstance(rho, PairEntries):
        single = False
        lams, ref1, ref2 = _entry_spectra(rho)
    else:
        rho = np.asarray(rho, dtype=complex)
        single = rho.shape == (4, 4)
        lams, ref1, ref2 = _matrix_spectra(rho[None] if single else rho)
    c = np.maximum(0.0, lams[:, 0] - lams[:, 1] - lams[:, 2] - lams[:, 3])
    if single:
        return ConcurrenceResult(
            concurrence=float(c[0]),
            lambdas=tuple(lams[0].tolist()),
            c_ref_1=float(ref1[0]),
            c_ref_2=float(ref2[0]),
        )
    return ConcurrenceResult(concurrence=c, lambdas=lams, c_ref_1=ref1, c_ref_2=ref2)


def _entry_spectra(entries: PairEntries):
    """(lambdas, C_ref_1, C_ref_2) of the matrices that six entry arrays fix.

    Checks that the entries are six 1-D numpy arrays of one length, finite,
    and of positive trace. Each entry is divided by the trace as the complex
    entry of its matrix, so it has the bits that ``_matrix_spectra`` reads
    off ``.matrices()``.
    """
    r11, r12, r14, r22, r24, r44 = entries
    shapes = [np.shape(x) for x in entries]
    if (len(shapes[0]) != 1 or shapes.count(shapes[0]) != 6
            or not all(isinstance(x, np.ndarray) for x in entries)):
        raise ValueError(f"PairEntries needs six 1-D arrays of one length, got shapes {shapes}")
    if not (np.isrealobj(r11) and np.isrealobj(r22) and np.isrealobj(r44)):
        raise ValueError("PairEntries needs real r11, r22 and r44")
    if not all(np.isfinite(x).all() for x in entries):
        raise NumericalFailure("density matrix has non-finite entries")
    trace = ((r11 + r22) + r22) + r44
    if (trace <= 0).any():
        raise NumericalFailure(f"density matrix has non-positive trace {trace.min()}")
    # the lower triangle of the block over {ee, eg, gg}: a00, a10, a30, a11, a31, a33
    lower = np.empty((6, len(trace)), dtype=complex)
    lower[0], lower[3], lower[5] = r11, r22, r44
    for row, entry in ((1, r12), (2, r14), (4, r24)):
        np.conjugate(entry, out=lower[row])
    lower /= trace
    # rho22 = rho33 = rho23, and |rho14| = |conj(rho14)| bit for bit
    a00, a11, a33 = lower[0].real, lower[3].real, lower[5].real
    ref1, ref2 = _reference_values(a00, a11, a11, a33, lower[2], lower[3])
    lams = np.zeros((len(trace), 4))
    lams[:, :3] = _triplet_values(lower)
    return lams, ref1, ref2


def _matrix_spectra(rho: np.ndarray):
    """(lambdas, C_ref_1, C_ref_2) of a (P, 4, 4) stack, which it validates."""
    if rho.ndim != 3 or rho.shape[1:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix or a stack, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise NumericalFailure("density matrix has non-finite entries")
    # summed in a fixed order: numpy may reorder a strided reduction by stack size
    trace = ((rho[:, 0, 0].real + rho[:, 1, 1].real) + rho[:, 2, 2].real) + rho[:, 3, 3].real
    if (trace <= 0).any():
        raise NumericalFailure(f"density matrix has non-positive trace {trace.min()}")

    rho = rho / trace[:, None, None]
    # the worst matrix of the stack decides
    asym = np.abs(rho - np.conjugate(rho.transpose(0, 2, 1))).max(initial=0.0)
    if asym > HERMITIAN_TOL:
        raise NumericalFailure(
            f"density matrix departs from Hermitian by {asym:.3e} > {HERMITIAN_TOL}"
        )
    ref1, ref2 = _reference_values(*np.diagonal(rho, axis1=1, axis2=2).real.T,
                                   rho[:, 0, 3], rho[:, 1, 2])
    # a row whose eg and ge rows and columns are equal has the singlet in its
    # kernel and takes the 3x3 triplet block, read from its lower triangle;
    # each row's route reads only that row, and a route with no rows does not run
    triplet = (rho[:, 1] == rho[:, 2]).all(axis=1) & (rho[:, :, 1] == rho[:, :, 2]).all(axis=1)
    lams = np.zeros((len(rho), 4))
    rows = np.flatnonzero(triplet)
    if rows.size:
        lams[rows, :3] = _triplet_values(rho[rows[:, None], _LOWER_ROWS, _LOWER_COLS].T)
    rows = np.flatnonzero(~triplet)
    if rows.size:
        lams[rows] = _spin_flip_values(rho[rows], _SIGMA_YY)
    return lams, ref1, ref2


def _triplet_values(lower: np.ndarray) -> np.ndarray:
    """Descending spin-flip lambda1-3, (P, 3), of exchange-symmetric pair matrices.

    ``lower`` is the (6, P) lower triangle of each matrix's block over
    {ee, eg, gg}, normalised to unit trace (see _cholesky_spin_flip_values).
    A row the Cholesky route does not factor takes the triplet block's
    ``eigh`` route, which validates it.
    """
    values, factored = _cholesky_spin_flip_values(lower)
    if factored.all():
        return values
    lams = np.empty((len(factored), 3))
    lams[factored] = values
    rest = ~factored
    lams[rest] = _spin_flip_values(_triplet_block(lower[:, rest]), _TRIPLET_FLIP)
    return lams


def _triplet_block(lower: np.ndarray) -> np.ndarray:
    """(P, 3, 3) Hermitian blocks on {ee, T0, gg} from (6, P) lower triangles over {ee, eg, gg}.

    With T0 = (|eg> + |ge>)/sqrt(2) and equal eg and ge rows and columns,
    the T0 entries are those of eg scaled by sqrt(2), and <T0|rho|T0> is
    2 rho22.
    """
    block = lower[_BLOCK_ROWS]
    block[_UPPER] = np.conjugate(block[_UPPER])
    return block.transpose(2, 0, 1) * _TRIPLET_SCALE


def _cholesky_spin_flip_values(lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spin-flip lambda1-3 of exchange-symmetric pair matrices from a Cholesky factor.

    ``lower`` holds the lower triangle of each matrix's block A over
    {ee, eg, gg}, normalised to unit trace: a (6, P) array whose rows are
    a00, a10, a30, a11, a31 and a33. Factors A = L L^H. The triplet block is
    T = S A S with S = diag(1, sqrt(2), 1), so for any such factor the
    eigenvalues of T F T* F are the squared singular values of the complex
    symmetric M = L^T (S F S) L, with S F S = [[0, 0, -1], [0, 2, 0], [-1, 0, 0]].
    M = [[a, b, c], [b, d, 0], [c, 0, 0]] with c = -l00 l22 and d = 2 d1 real,
    where d1 and d2 are the second and third pivots. With singular values
    sigma1 >= sigma2 >= sigma3, its invariants are sums of nonnegative terms:
    S1 = |a|^2 + 2|b|^2 + 2c^2 + d^2, the sum of the squares, and the sum of its
    squared 2x2 minors S2 = |ad - b^2|^2 + 2|b|^2 c^2 + 2c^2 d^2 + c^4, whose
    one difference is written out with its l10^2 terms cancelled,
    ad - b^2 = l00 (-4 d1 l20 + 4 l11 l10 l21 - l00 l21^2), and
    sigma1 sigma2 sigma3 = |det M| = c^2 d = 2 a00 d1 d2, a product of pivots
    with no square root. sigma1^2 is the largest root of
    x^3 - S1 x^2 + S2 x - (c^2 d)^2, sigma1 sigma2 that of the second
    compound's y^3 - S2 y^2 + (c^2 d)^2 S1 y - (c^2 d)^4, and
    sigma2 = sigma1 sigma2 / sigma1, sigma3 = c^2 d / (sigma1 sigma2), so a
    clamped last pivot gives sigma3 exactly 0. Rows whose roots fail the guard of
    ``_largest_roots`` take the ``svd`` of M instead, built for them only.

    Gives the descending singular values of M for the rows whose first two
    pivots are positive and whose last pivot is above EIG_NEG_TOL, and that
    boolean mask over the (P,) rows. A last pivot in (EIG_NEG_TOL, 0] is
    round-off and clamps to 0: T is then L L^H plus d2 on its gg diagonal,
    so its smallest eigenvalue is at least d2 and the row passes the
    positivity check; a completed factorization is backward stable, so a
    row with three positive pivots is positive semidefinite to round-off.
    Every operation is elementwise on real and imaginary parts as separate
    floats, which round the same in every position of a vector loop, so a
    row's bits do not depend on its stack. A one-row stack runs the same
    operations on numpy scalars, which spares the fixed cost of about a
    hundred calls on (1,) arrays.
    """
    if lower.shape[1] == 1:
        lower = lower[:, 0]
    a00, a10r, a30r, a11, a31r, a33 = lower.real
    a10i, a30i, a31i = lower.imag[1], lower.imag[2], lower.imag[4]
    # a pivot that is not positive turns the later entries into inf or nan;
    # its row is masked out. Each computed row is dropped after its last
    # read, so a large stack holds about twenty (P,) rows at a time, not fifty
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l00 = np.sqrt(a00)
        # column 0 of L: (l10, l20) = (a10, a30) / l00
        l10r, l10i, l20r, l20i = a10r / l00, a10i / l00, a30r / l00, a30i / l00
        d1 = a11 - (l10r * l10r + l10i * l10i)
        l11 = np.sqrt(d1)
        # l21 = (a31 - l20 conj(l10)) / l11
        l21r = (a31r - (l20r * l10r + l20i * l10i)) / l11
        l21i = (a31i - (l20i * l10r - l20r * l10i)) / l11
        d2 = (a33 - (l20r * l20r + l20i * l20i)) - (l21r * l21r + l21i * l21i)
        factored = (a00 > 0) & (d1 > 0) & (d2 > EIG_NEG_TOL)
        d2 = np.maximum(d2, 0.0)
        # a = 2 l10^2 - 2 l00 l20, b = 2 l11 l10 - l00 l21, c^2 = a00 d2
        ar = 2.0 * ((l10r * l10r - l10i * l10i) - l00 * l20r)
        ai = 2.0 * (2.0 * (l10r * l10i) - l00 * l20i)
        br = 2.0 * (l11 * l10r) - l00 * l21r
        bi = 2.0 * (l11 * l10i) - l00 * l21i
        d = 2.0 * d1
        c2 = a00 * d2
        minor_r = l00 * ((4.0 * (l11 * (l10r * l21r - l10i * l21i)) - 4.0 * (d1 * l20r))
                         - l00 * (l21r * l21r - l21i * l21i))
        minor_i = l00 * ((4.0 * (l11 * (l10r * l21i + l10i * l21r)) - 4.0 * (d1 * l20i))
                         - l00 * (2.0 * (l21r * l21i)))
        del l10r, l10i, l20r, l20i, l11, l21r, l21i, d1
        bb, dd = br * br + bi * bi, d * d
        inv1 = ((ar * ar + ai * ai) + 2.0 * bb) + (2.0 * c2 + dd)
        inv2 = (minor_r * minor_r + minor_i * minor_i) + c2 * ((2.0 * bb + 2.0 * dd) + c2)
        del minor_r, minor_i, bb, dd
        det = c2 * d
        del c2
        det2 = det * det
        roots, closed = _largest_roots(np.array([inv1, inv2]), np.array([inv2, det2 * inv1]),
                                       np.array([det2, det2 * det2]))
        del inv1, inv2, det2
        sigma1, sigma12 = np.sqrt(roots)
        del roots
        values = np.column_stack((sigma1, sigma12 / sigma1, det / sigma12))
    factored, closed = np.atleast_1d(factored, closed[0] & closed[1])
    rest = np.flatnonzero(factored & ~closed)
    if rest.size:
        ar, ai, br, bi, d, l00, d2 = (np.atleast_1d(x)[rest] for x in (ar, ai, br, bi, d, l00, d2))
        values[rest] = _factor_svd_values(ar, ai, br, bi, -(l00 * np.sqrt(d2)), d)
    return values[factored], factored


def _factor_svd_values(ar, ai, br, bi, c, d) -> np.ndarray:
    """Descending singular values of M = [[a, b, c], [b, d, 0], [c, 0, 0]] for (k,) entries."""
    m = np.zeros((len(d), 3, 3), dtype=complex)
    m_re, m_im = m.real, m.imag
    m_re[:, 0, 0], m_im[:, 0, 0] = ar, ai
    m_re[:, 0, 1] = m_re[:, 1, 0] = br
    m_im[:, 0, 1] = m_im[:, 1, 0] = bi
    m_re[:, 0, 2] = m_re[:, 2, 0] = c
    m_re[:, 1, 1] = d
    return np.linalg.svd(m, compute_uv=False)


def _largest_roots(e1: np.ndarray, e2: np.ndarray, e3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest roots of x^3 - e1 x^2 + e2 x - e3 with three real nonnegative roots.

    With mean root m = e1/3, p = m^2 - e2/3 and q = m^3 - m e2/2 + e3/2,
    the roots are m + 2 sqrt(p) cos((arccos(r) - 2 pi k)/3) with
    r = q / p^(3/2) in [-1, 1], and k = 0 gives the largest. A relative
    rounding error eps in the coefficients moves q by about eps m^3 and the
    largest root by about kappa eps m, with kappa = (m^2/p) / sqrt(6 (1 + r)):
    it grows for a flat spectrum (p/m^2 -> 0) and for a nearly double top
    root (r -> -1). The mask is true where kappa <= KAPPA_MAX and m >=
    ROOT_SCALE_MIN, below which the terms of q and p^(3/2) would leave the
    normal range; nan fails it. Elementwise on arrays of any shape.
    """
    m = e1 / 3.0
    mm = m * m
    p = mm - e2 / 3.0
    q = m * (mm - 0.5 * e2) + 0.5 * e3
    root_p = np.sqrt(p)
    r = q / (p * root_p)
    spread = p / mm
    ok = (m >= ROOT_SCALE_MIN) & ((spread * spread) * (r + 1.0) >= _KAPPA_FLOOR)
    return m + 2.0 * root_p * np.cos(np.arccos(np.minimum(r, 1.0)) / 3.0), ok


def _spin_flip_values(rho: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """Descending singular values of sqrt(rho) flip sqrt(rho)^T for a (P, d, d) stack.

    The ``eigh`` of rho gives sqrt(rho) and checks its spectrum against
    EIG_NEG_TOL; round-off negatives clamp to zero before the square root.
    """
    evals, vecs = np.linalg.eigh(rho)
    lowest = evals[:, 0].min(initial=np.inf)
    if lowest < EIG_NEG_TOL:
        raise NumericalFailure(
            f"density matrix eigenvalue {lowest:.3e} below tolerance {EIG_NEG_TOL}"
        )
    root_evals = np.sqrt(np.maximum(evals, 0.0))[:, None, :]
    sqrt_rho = (vecs * root_evals) @ vecs.conj().transpose(0, 2, 1)
    return np.linalg.svd(sqrt_rho @ flip @ sqrt_rho.conj(), compute_uv=False)


def _reference_values(rho11, rho22, rho33, rho44, rho14, rho23):
    """(C_ref_1, C_ref_2) from the real diagonal entries and the entries rho14 and rho23.

    Tiny negative diagonals from round-off are clamped before the square root.
    """
    ref1 = 2.0 * (np.abs(rho14) - np.sqrt(np.maximum(rho22, 0.0) * np.maximum(rho33, 0.0)))
    ref2 = 2.0 * (np.abs(rho23) - np.sqrt(np.maximum(rho11, 0.0) * np.maximum(rho44, 0.0)))
    return ref1, ref2
