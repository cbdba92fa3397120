"""Two-qubit reduced density matrix and Wootters concurrence.

For a permutation-symmetric N-qubit state the reduced state of any pair is
the same 4x4 matrix in the basis {|ee>, |eg>, |ge>, |gg>}, and every entry is
a linear combination of collective moments. The concurrence follows from the
spin-flip construction R = rho (sy x sy) rho* (sy x sy), whose eigenvalues
are taken from Hermitian routes: for a general 4x4 input, an ``eigh`` of rho,
which also validates it (finite, Hermitian, positive semidefinite), then the
``svd`` of sqrt(rho) (sy x sy) sqrt(rho)^T. A pair matrix of a symmetric
ensemble has equal eg and ge rows and columns, so its singlet weight is
exactly zero, lambda4 is exactly 0, and lambda1-3 come from its 3x3 block
over the triplet {|ee>, |T0>, |gg>}: from the ``svd`` of L^T F L, with L its
Cholesky factor, whenever the factorization completes with positive pivots,
and from the block's ``eigh`` and ``svd`` otherwise. Every route works on
(P, d, d) stacks: the pair matrices of a :class:`~dickepair.params.ParamBatch`
are assembled as one stack and go through one batched call per route; a
single matrix is the stack of one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, PairUndefined
from .params import ParamBatch, SystemParams
from .steady import ExpectationSet, _batch_tables, _steady_tables

__all__ = [
    "ConcurrenceResult",
    "two_qubit_rho",
    "steady_pair_density",
    "concurrence",
    "concurrence_ref",
    "SIGMA_YY",
]

SIGMA_YY = np.array(
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
_TRIPLET_INDEX = np.array([0, 1, 3])
_TRIPLET_SCALE = np.array([
    [1.0, np.sqrt(2.0), 1.0],
    [np.sqrt(2.0), 2.0, np.sqrt(2.0)],
    [1.0, np.sqrt(2.0), 1.0],
])
# the lower triangle of the block over {ee, eg, gg}: a00, a10, a30, a11, a31, a33
_LOWER_ROWS = np.array([0, 1, 3, 1, 3, 3])
_LOWER_COLS = np.array([0, 0, 0, 1, 1, 3])

# the 16 entries of a pair matrix, row-major, as indices into its nine
# distinct values r11, r12, r14, r22, r24, r44, conj(r12), conj(r14), conj(r24)
_ENTRY_INDEX = np.array([0, 1, 1, 2, 6, 3, 3, 4, 6, 3, 3, 4, 7, 8, 8, 5])

HERMITIAN_TOL = 1e-9
EIG_NEG_TOL = -1e-9


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
    """(P, 4, 4) pair matrices from the six entry arrays of shape (P,)."""
    values = np.array((r11, r12, r14, r22, r24, r44, np.conj(r12), np.conj(r14), np.conj(r24)),
                      dtype=complex)
    return values[_ENTRY_INDEX].T.reshape(-1, 4, 4)


def steady_pair_density(params: SystemParams | ParamBatch,
                        precision: str = "standard") -> np.ndarray:
    """Steady-state pair density matrix straight from the closed form.

    Every entry is its own ladder sum with a nonnegative weight polynomial.
    In the weak-drive regime the diagonal entries are tiny differences of
    N^2-scale moments, and assembling them from moments (``two_qubit_rho``)
    loses all relative accuracy there; this path keeps it. At small N the
    dense oracle's ``oracle_pair_density`` is its independent reference.
    A :class:`ParamBatch` of P points gives a (P, 4, 4) stack; one
    :class:`SystemParams` gives its 4x4 matrix, the batch of one.
    """
    if params.n_qubits < 2:
        raise PairUndefined(
            f"pair reduction needs at least 2 qubits, got {params.n_qubits}"
        )
    if isinstance(params, ParamBatch):
        return _assemble(*_batch_tables(params, precision).pair_entries())
    return _assemble(*_steady_tables(params, precision).pair_entries())[0]


def concurrence(rho: np.ndarray) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit density matrix or a (P, 4, 4) stack.

    The input is renormalized to unit trace, guarding against accumulated
    round-off in the moments, and then validated: every matrix must be
    finite with positive trace, Hermitian within 1e-9 and positive
    semidefinite within -1e-9, else NumericalFailure. The spin-flip lambdas
    come from the equivalent Hermitian problem: the eigenvalues of
    R = rho (sy x sy) rho* (sy x sy) are the squared singular values of
    sqrt(rho) (sy x sy) sqrt(rho)^T, and singular values are perfectly
    conditioned, which avoids the error amplification of the non-normal
    eigenproblem when R has near-zero eigenvalues. Round-off negatives in
    the spectrum of rho clamp to zero before the square root.

    A matrix whose eg and ge rows and columns are exactly equal, as every
    pair matrix of a symmetric ensemble is, has the singlet in its kernel
    and lambda4 exactly 0; its lambda1-3 come from the 3x3 triplet block T.
    If the Cholesky factorization T = L L^H completes with positive pivots,
    the matrix is positive semidefinite to round-off and lambda1-3 are the
    singular values of L^T F L, with F the triplet spin flip: one ``svd``,
    no ``eigh``. Otherwise ``eigh`` and ``svd`` run on the block as above,
    and the positivity check reads the block's spectrum. Every other matrix
    takes the 4x4 problem. The routes are chosen per matrix, so a matrix's
    result does not depend on the others in its stack. A stack takes one
    batched call per route that has matrices, and every field of the
    result gains the leading axis P (an empty stack gives empty fields).
    """
    rho = np.asarray(rho, dtype=complex)
    single = rho.shape == (4, 4)
    if single:
        rho = rho[None]
    elif rho.ndim != 3 or rho.shape[1:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix or a stack, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise NumericalFailure("density matrix has non-finite entries")
    # summed in a fixed order: numpy may reorder a strided reduction by stack size
    trace = ((rho[:, 0, 0].real + rho[:, 1, 1].real) + rho[:, 2, 2].real) + rho[:, 3, 3].real
    if (trace <= 0).any():
        raise NumericalFailure(f"density matrix has non-positive trace {trace.min()}")
    rho = rho / trace[:, None, None]

    # the worst matrix of the stack decides
    asym = np.abs(rho - rho.conj().transpose(0, 2, 1)).max(initial=0.0)
    if asym > HERMITIAN_TOL:
        raise NumericalFailure(
            f"density matrix departs from Hermitian by {asym:.3e} > {HERMITIAN_TOL}"
        )
    # a row whose eg and ge rows and columns are equal has the singlet in its
    # kernel and takes the 3x3 triplet block; each row's route reads only that
    # row, and a route with no rows does not run
    triplet = ((rho[:, 1] == rho[:, 2]).all(axis=1)
               & (rho[:, :, 1] == rho[:, :, 2]).all(axis=1))
    lams = np.zeros((len(rho), 4))
    rows = np.flatnonzero(triplet)
    if rows.size:
        values, factored = _cholesky_spin_flip_values(rho[rows])
        lams[rows[factored], :3] = values
        # a pivot that is not positive: the eigh route validates the row
        rest = rows[~factored]
        if rest.size:
            lams[rest, :3] = _spin_flip_values(_triplet_block(rho[rest]), _TRIPLET_FLIP)
    rows = np.flatnonzero(~triplet)
    if rows.size:
        lams[rows] = _spin_flip_values(rho[rows], SIGMA_YY)
    c = np.maximum(0.0, lams[:, 0] - lams[:, 1] - lams[:, 2] - lams[:, 3])
    ref1, ref2 = concurrence_ref(rho)
    if single:
        return ConcurrenceResult(
            concurrence=float(c[0]),
            lambdas=tuple(lams[0].tolist()),
            c_ref_1=float(ref1[0]),
            c_ref_2=float(ref2[0]),
        )
    return ConcurrenceResult(concurrence=c, lambdas=lams, c_ref_1=ref1, c_ref_2=ref2)


def _triplet_block(rho: np.ndarray) -> np.ndarray:
    """(P, 3, 3) blocks of exchange-symmetric pair matrices on {ee, T0, gg}.

    With T0 = (|eg> + |ge>)/sqrt(2) and equal eg and ge rows and columns,
    the T0 entries are those of eg scaled by sqrt(2), and <T0|rho|T0> is
    2 rho22.
    """
    return rho[:, _TRIPLET_INDEX[:, None], _TRIPLET_INDEX] * _TRIPLET_SCALE


def _cholesky_spin_flip_values(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spin-flip lambda1-3 of exchange-symmetric pair matrices from a Cholesky factor.

    Factors the block A over {ee, eg, gg} as A = L L^H. The triplet block is
    T = S A S with S = diag(1, sqrt(2), 1), so for any such factor the
    eigenvalues of T F T* F are the squared singular values of the complex
    symmetric M = L^T (S F S) L, with S F S = [[0, 0, -1], [0, 2, 0], [-1, 0, 0]].
    Gives the descending singular values of M for the rows whose three
    pivots are all positive, and that boolean mask over the (P,) rows; a
    completed factorization is backward stable, so such a row is positive
    semidefinite to round-off. The factor is computed elementwise on real
    and imaginary parts as separate float arrays, whose operations round
    the same in every position of a vector loop, so a row's bits do not
    depend on its stack.
    """
    # the lower triangle of A, one (P,) row per entry: a00, a10, a30, a11, a31, a33
    lower = rho[:, _LOWER_ROWS, _LOWER_COLS].T
    a00, _, _, a11, _, a33 = lower.real
    a31r, a31i = lower[4].real, lower[4].imag
    # a non-positive pivot turns the later entries into inf or nan; its row is
    # masked out before the svd
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l00 = np.sqrt(a00)
        # column 0 of L: (l10, l20) = (a10, a30) / l00
        l10r, l20r = lower[1:3].real / l00
        l10i, l20i = lower[1:3].imag / l00
        d1 = a11 - (l10r * l10r + l10i * l10i)
        l11 = np.sqrt(d1)
        # l21 = (a31 - l20 conj(l10)) / l11
        l21r = (a31r - (l20r * l10r + l20i * l10i)) / l11
        l21i = (a31i - (l20i * l10r - l20r * l10i)) / l11
        d2 = (a33 - (l20r * l20r + l20i * l20i)) - (l21r * l21r + l21i * l21i)
        l22 = np.sqrt(d2)
        # M00 = 2 l10^2 - 2 l00 l20, M01 = 2 l11 l10 - l00 l21, M02 = -l00 l22,
        # M11 = 2 l11^2 = 2 d1; M12 = M22 = 0
        m = np.zeros((len(rho), 3, 3), dtype=complex)
        m_re, m_im = m.real, m.imag
        m_re[:, 0, 0] = 2.0 * ((l10r * l10r - l10i * l10i) - l00 * l20r)
        m_im[:, 0, 0] = 2.0 * (2.0 * (l10r * l10i) - l00 * l20i)
        m_re[:, 0, 1] = m_re[:, 1, 0] = 2.0 * (l11 * l10r) - l00 * l21r
        m_im[:, 0, 1] = m_im[:, 1, 0] = 2.0 * (l11 * l10i) - l00 * l21i
        m_re[:, 0, 2] = m_re[:, 2, 0] = -(l00 * l22)
        m_re[:, 1, 1] = 2.0 * d1
    factored = (a00 > 0) & (d1 > 0) & (d2 > 0)
    return np.linalg.svd(m[factored], compute_uv=False), factored


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


def concurrence_ref(rho: np.ndarray):
    """Analytic X-state reference concurrences (C_ref_1, C_ref_2) as arrays.

    Takes a (..., 4, 4) array, in practice the (P, 4, 4) stack that
    ``concurrence`` passes, and gives two (...) arrays: (P,) for a stack, 0-d
    for one matrix. For exchange-symmetric matrices rho22 = rho33, so
    sqrt(rho22*rho33) reduces to rho22; tiny negative diagonals from
    round-off are clamped before the square root.
    """
    d = np.maximum(rho.diagonal(axis1=-2, axis2=-1).real, 0.0)
    ref1 = 2.0 * (np.abs(rho[..., 0, 3]) - np.sqrt(d[..., 1] * d[..., 2]))
    ref2 = 2.0 * (np.abs(rho[..., 1, 2]) - np.sqrt(d[..., 0] * d[..., 3]))
    return ref1, ref2
