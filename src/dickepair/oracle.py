"""Brute-force steady state from the master equation in the symmetric sector.

Collective drive and collective decay preserve the maximal-spin ladder, so
the dynamics closes on (N+1)-dimensional matrices and the dense Liouvillian
null space is an exact, independent check of the closed form at small N:
``density_expectation_set`` traces the collective moments of that state,
and ``oracle_pair_density`` reduces it to the pair matrix by the Dicke
decomposition, without going through the moments. Like the closed form,
each step takes a batch: the P points of a
:class:`~dickepair.params.ParamBatch` give a stack of P Liouvillians, P
states and P readouts, and a single point is the stack of one. The state
is read off one batched inverse of the trace-constrained Liouvillian, whose
norm also proves the stationary state unique; a singular-value pass runs
only for a matrix that bound leaves uncertified, which no physical
Liouvillian does.

The generator implemented here is

    d rho/dt = -i [H, rho] - ([S+, S- rho] + [rho S+, S-]),
    H = tilde_detuning * Sz + dipole_shift * S+S- + rabi * (S+ + S-),

in units of the single-emitter decay rate gamma (gamma = 1), with
tilde_detuning = detuning + dipole_shift. The sign of the S+S- term is
pinned by the closed-form solution: with +dipole_shift the null space
reproduces the analytic moments to machine precision for all parameters
(see tests), with the opposite sign it does not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateNullSpace, PairUndefined, SizeExceeded
from .params import ParamBatch, SystemParams
from .steady import ExpectationSet

__all__ = [
    "MAX_ORACLE_QUBITS",
    "DickeBasisOperators",
    "build_liouvillian",
    "steady_state_null_space",
    "density_expectation_set",
    "oracle_pair_density",
]

# Dense null-space solves are (N+1)^2 x (N+1)^2; 16 keeps one solve well
# under a tenth of a second.
MAX_ORACLE_QUBITS = 16

DEGENERACY_TOL = 1e-10
# 1 / ||C^-1||_F must exceed DEGENERACY_TOL, plus the rounding of the
# singular values, by this factor to certify a unique stationary state
# without a singular-value pass (see steady_state_null_space); a fixed part
# of the proof, not a tolerance to tune
_CERTIFY_MARGIN = 1e4


@dataclass(frozen=True)
class DickeBasisOperators:
    """Collective ladder operators on the maximal-spin ladder.

    Basis index k = number of excitations (k = 0 is the ground state), so
    Sz is diagonal with entries k - N/2 and S+ has the real positive
    elements sqrt((N-k)(k+1)) one step above the diagonal.
    """

    dimension: int
    s_plus: np.ndarray
    s_minus: np.ndarray
    s_z: np.ndarray

    @classmethod
    def build(cls, n_qubits: int) -> "DickeBasisOperators":
        dim = n_qubits + 1
        s_plus = np.zeros((dim, dim))
        for k in range(n_qubits):
            s_plus[k + 1, k] = math.sqrt((n_qubits - k) * (k + 1))
        s_minus = s_plus.T.copy()
        s_z = np.diag([k - n_qubits / 2.0 for k in range(dim)])
        for arr in (s_plus, s_minus, s_z):
            arr.setflags(write=False)
        return cls(dimension=dim, s_plus=s_plus, s_minus=s_minus, s_z=s_z)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a, b) of square matrices, broadcast over a leading stack axis."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    size = a.shape[-1] * b.shape[-1]
    return prod.reshape(prod.shape[:-4] + (size, size))


def _check_size(n_qubits: int) -> None:
    if n_qubits > MAX_ORACLE_QUBITS:
        raise SizeExceeded(
            f"dense oracle supports N <= {MAX_ORACLE_QUBITS}, got {n_qubits}"
        )


def _stack(arr: np.ndarray, what: str) -> tuple[np.ndarray, bool]:
    """A (P, m, m) view of one square matrix or a stack, and whether it was one."""
    arr = np.asarray(arr)
    single = arr.ndim == 2
    if single:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"{what} must be a square matrix or a stack of them, got {arr.shape}")
    return arr, single


@lru_cache(maxsize=None)
def _fixed_parts(n_qubits: int):
    """(ladder operators, I, S+S-, dissipator) of one N, built once, read-only.

    The dissipator is 2 S- x S- - (S+S- x I + I x (S+S-)^T). S+S- is
    diagonal and S- x S- lowers both indices, so its two terms have
    disjoint supports: adding their sum to a commutator rounds as adding
    them one after the other does.
    """
    ops = DickeBasisOperators.build(n_qubits)
    eye = np.eye(ops.dimension)
    spsm = ops.s_plus @ ops.s_minus
    # S- rho S+ lifts to kron(S-, (S+)^T) = kron(S-, S-) for real elements
    dissipator = 2.0 * _kron(ops.s_minus, ops.s_minus) - (_kron(spsm, eye) + _kron(eye, spsm.T))
    for arr in (eye, spsm, dissipator):
        arr.setflags(write=False)
    return ops, eye, spsm, dissipator


def build_liouvillian(params: SystemParams | ParamBatch) -> np.ndarray:
    """Matrix L with vec(d rho/dt) = L vec(rho), row-major vectorization.

    A :class:`ParamBatch` of P points gives a (P, d^2, d^2) stack with
    d = N + 1; one :class:`SystemParams` gives its matrix, the batch of one.
    Every matrix is built by the same elementwise arithmetic whatever P, so
    a row of a stack is bit-identical to its single-point build. The ladder
    operators and the dissipator are built once per N; a call builds only
    the Hamiltonian commutator of its points and adds them. Unlike the
    closed-form solver, rabi = 0 is allowed here.
    """
    _check_size(params.n_qubits)
    single = isinstance(params, SystemParams)
    points = ParamBatch.of(params) if single else params
    ops, eye, spsm, dissipator = _fixed_parts(points.n_qubits)
    tilde = points.detuning + points.dipole_shift
    ham = (
        tilde[:, None, None] * ops.s_z
        + points.dipole_shift[:, None, None] * spsm
        + points.rabi[:, None, None] * (ops.s_plus + ops.s_minus)
    )
    # A rho lifts to kron(A, I) and rho B to kron(I, B^T)
    liouv = -1j * (_kron(ham, eye) - _kron(eye, np.swapaxes(ham, 1, 2)))
    liouv += dissipator
    return liouv[0] if single else liouv


def _trace_row(dim: int) -> np.ndarray:
    row = np.zeros(dim * dim, dtype=complex)
    row[:: dim + 1] = 1.0
    return row


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a C-contiguous complex stack, inf on overflow."""
    parts = stack.reshape(len(stack), stack.shape[1] * stack.shape[2]).view(float)
    with np.errstate(over="ignore"):
        return np.sqrt(np.einsum("pk,pk->p", parts, parts))


def steady_state_null_space(liouv: np.ndarray) -> np.ndarray:
    """Unique trace-one Hermitian stationary state of a Liouvillian matrix.

    Solved deterministically by replacing the first row of L with the trace
    constraint and inverting that matrix C: the state is column 0 of C^-1.
    A second singular value of L below 1e-10 raises DegenerateNullSpace
    (non-unique stationary state). The smallest singular direction of L is
    the fallback for a C that is singular or leaves a residual above
    1e-8 * max(1, max|vec|).

    The inverse also certifies that the state is unique. C is L with one
    row replaced, a rank-one change, so Weyl's interlacing gives
    sigma_min(C) <= sigma_{n-1}(L) with n = d^2, and sigma_min(C) =
    1 / ||C^-1||_2 >= 1 / ||C^-1||_F. A row is certified when
    1 / ||C^-1||_F >= _CERTIFY_MARGIN * (1e-10 + n eps s), where
    s = sqrt(||L||_F^2 + d) bounds the Frobenius norms of both L and C.
    Rounding cannot flip that verdict: a certified row has
    n eps kappa_F(C) <= 1 / _CERTIFY_MARGIN, so its computed inverse is
    relatively accurate to about that, and the singular values a
    values-only pass would compute lie within about n eps s of the exact
    ones, far above 1e-10. On physical Liouvillians (N <= 16, rabi from 0
    to 1e3) 1 / ||C^-1||_F is at least about 0.2 against a threshold below
    1e-3, and n eps kappa_F(C) is below 1e-7, so every row certifies. Rows
    the bound does not certify, including rows whose inverse is not
    finite, take the values-only singular-value pass and the 1e-10 rule,
    so DegenerateNullSpace is raised exactly where that rule raises.

    A (P, d^2, d^2) stack gives a (P, d, d) stack of states: one batched
    inverse, the singular values of the uncertified rows, and full
    singular vectors only for the rows that fall back. Any degenerate row
    raises. A singular row makes the batched inverse raise, so the rows
    are then inverted one by one and only the singular ones fall back.
    """
    stack, single = _stack(liouv, "Liouvillian")
    rows, dim2 = stack.shape[:2]
    dim = math.isqrt(dim2)
    if dim * dim != dim2:
        raise ValueError(f"Liouvillian must be square with square size, got {stack.shape[1:]}")
    constrained = stack.astype(complex)
    scale = np.hypot(_frobenius(constrained), math.sqrt(dim))
    constrained[:, 0, :] = _trace_row(dim)
    try:
        inverse = np.linalg.inv(constrained)
    except np.linalg.LinAlgError:
        # NaN on the singular rows leaves them uncertified and fails the
        # residual test below
        inverse = np.full(constrained.shape, np.nan, dtype=complex)
        for i in range(rows):
            try:
                inverse[i] = np.linalg.inv(constrained[i])
            except np.linalg.LinAlgError:
                pass
    vec = inverse[:, :, 0]

    # a NaN or overflowing inverse reads as unbounded and is not certified
    floor = _CERTIFY_MARGIN * (DEGENERACY_TOL + dim2 * np.finfo(float).eps * scale)
    certified = 1.0 / _frobenius(inverse) >= floor
    if not certified.all():
        svals = np.linalg.svd(stack[~certified], compute_uv=False)
        degenerate = np.flatnonzero(svals[:, -2] < DEGENERACY_TOL)
        if degenerate.size:
            s = svals[degenerate[0]]
            raise DegenerateNullSpace(
                f"two singular values below {DEGENERACY_TOL}: {s[-2]:.3e}, {s[-1]:.3e}"
            )

    residual = np.abs(stack @ vec[..., None]).max(axis=(1, 2))
    accepted = residual <= 1e-8 * np.maximum(1.0, np.abs(vec).max(axis=1))
    for i in np.flatnonzero(~accepted):
        vec[i] = np.linalg.svd(stack[i])[2][-1].conj()

    rho = vec.reshape(rows, dim, dim)
    rho = rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    return rho[0] if single else rho


def density_expectation_set(rho: np.ndarray) -> ExpectationSet:
    """Collective moments of a ladder-basis density matrix by direct trace.

    A (P, d, d) stack gives an :class:`ExpectationSet` of (P,) arrays; the
    ladder operators are the cached ones of N = d - 1 (N <= 16, as for the
    Liouvillian), and the six operator products are built once for it.
    """
    stack, single = _stack(rho, "state")
    n_qubits = stack.shape[1] - 1
    _check_size(n_qubits)
    ops = _fixed_parts(n_qubits)[0]
    sp, sz, sm = ops.s_plus, ops.s_z, ops.s_minus
    products = {
        "s_plus": sp,
        "s_z": sz,
        "s_z2": sz @ sz,
        "s_plus_sz": sp @ sz,
        "s_plus2": sp @ sp,
        "s_plus_s_minus": sp @ sm,
    }
    moments = {name: np.trace(stack @ op, axis1=1, axis2=2) for name, op in products.items()}
    for name in ("s_z", "s_z2", "s_plus_s_minus"):
        moments[name] = moments[name].real
    if single:
        return ExpectationSet(**{name: m[0].item() for name, m in moments.items()})
    return ExpectationSet(**moments)


def oracle_pair_density(rho: np.ndarray, n_qubits: int) -> np.ndarray:
    """Pair density matrix of a ladder-basis state by the Dicke decomposition.

    With j of the pair's qubits excited and m of the other n - 2,
    |D(n, m + j)> carries the amplitude sqrt(C(n-2, m) / C(n, m+j)) on each
    pair state times |D(n-2, m)>, so tracing out the other qubits pairs up
    ladder indices that leave the same remainder m. The 3x3 block over
    j = 2, 1, 0 expands to the basis {ee, eg, ge, gg}. The result is the
    transpose of the literal partial trace: the package convention
    rho_ij = <j|rho|i>, as ``steady_pair_density`` returns. A (P, N+1, N+1)
    stack of states gives a (P, 4, 4) stack.
    """
    stack, single = _stack(rho, "state")
    if stack.shape[1] != n_qubits + 1:
        raise ValueError(
            f"state has shape {stack.shape[1:]}, expected {(n_qubits + 1, n_qubits + 1)}"
        )
    if n_qubits < 2:
        raise PairUndefined(f"pair reduction needs at least 2 qubits, got {n_qubits}")
    rest = range(n_qubits - 1)
    pair_j = (2, 1, 0)
    amp = np.sqrt([[math.comb(n_qubits - 2, m) / math.comb(n_qubits, m + j) for m in rest]
                   for j in pair_j])
    ladder = np.add.outer(pair_j, rest)
    # entry (a, b) sums rho[ladder[b], ladder[a]]: the transposed block
    block = np.einsum("pabm,am,bm->pab", stack[:, ladder[None, :], ladder[:, None]], amp, amp)
    pair = block[:, [[0], [1], [1], [2]], [0, 1, 1, 2]]
    return pair[0] if single else pair
