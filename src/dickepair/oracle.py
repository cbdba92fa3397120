"""Brute-force steady state from the master equation in the symmetric sector.

Collective drive and collective decay preserve the maximal-spin ladder, so
the dynamics closes on (N+1)-dimensional matrices and the dense Liouvillian
null space is an exact, independent check of the closed form at small N:
``density_expectation_set`` traces the collective moments of that state,
and ``oracle_pair_density`` reduces it to the pair matrix by the Dicke
decomposition, without going through the moments.

The generator implemented here is

    d rho/dt = -i [H, rho] - gamma ([S+, S- rho] + [rho S+, S-]),
    H = tilde_detuning * Sz + dipole_shift * S+S- + rabi * (S+ + S-),

with tilde_detuning = detuning + dipole_shift. The sign of the S+S- term is
pinned by the closed-form solution: with +dipole_shift the null space
reproduces the analytic moments to machine precision for all parameters
(see tests), with the opposite sign it does not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNullSpace, PairUndefined, SizeExceeded
from .params import SystemParams
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


def _left_mul(a: np.ndarray) -> np.ndarray:
    return np.kron(a, np.eye(a.shape[0]))


def _right_mul(b: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(b.shape[0]), b.T)


def build_liouvillian(params: SystemParams) -> np.ndarray:
    """Matrix L with vec(d rho/dt) = L vec(rho), row-major vectorization.

    Unlike the closed-form solver, rabi = 0 is allowed here.
    """
    n = params.n_qubits
    if n > MAX_ORACLE_QUBITS:
        raise SizeExceeded(f"dense oracle supports N <= {MAX_ORACLE_QUBITS}, got {n}")
    ops = DickeBasisOperators.build(n)
    tilde = params.detuning + params.dipole_shift
    ham = (
        tilde * ops.s_z
        + params.dipole_shift * (ops.s_plus @ ops.s_minus)
        + params.rabi * (ops.s_plus + ops.s_minus)
    )
    spsm = ops.s_plus @ ops.s_minus
    liouv = -1j * (_left_mul(ham) - _right_mul(ham))
    liouv -= params.decay * (_left_mul(spsm) + _right_mul(spsm))
    # S- rho S+ lifts to kron(S-, (S+)^T) = kron(S-, S-) for real elements
    liouv += 2.0 * params.decay * np.kron(ops.s_minus, ops.s_minus)
    return liouv


def _trace_row(dim: int) -> np.ndarray:
    row = np.zeros(dim * dim, dtype=complex)
    row[:: dim + 1] = 1.0
    return row


def steady_state_null_space(liouv: np.ndarray) -> np.ndarray:
    """Unique trace-one Hermitian stationary state of a Liouvillian matrix.

    Solved deterministically by replacing the first row with the trace
    constraint; the singular spectrum is inspected first and a second
    singular value below 1e-10 raises DegenerateNullSpace (non-unique
    stationary state). The smallest singular direction is the fallback if
    the replaced system is ill-conditioned.
    """
    dim2 = liouv.shape[0]
    dim = math.isqrt(dim2)
    if dim * dim != dim2 or liouv.shape != (dim2, dim2):
        raise ValueError(f"Liouvillian must be square with square size, got {liouv.shape}")
    _, svals, vh = np.linalg.svd(liouv)
    if svals[-2] < DEGENERACY_TOL:
        raise DegenerateNullSpace(
            f"two singular values below {DEGENERACY_TOL}: {svals[-2]:.3e}, {svals[-1]:.3e}"
        )

    constrained = liouv.copy()
    constrained[0, :] = _trace_row(dim)
    rhs = np.zeros(dim2, dtype=complex)
    rhs[0] = 1.0
    try:
        vec = np.linalg.solve(constrained, rhs)
        residual = float(np.max(np.abs(liouv @ vec)))
        if not residual <= 1e-8 * max(1.0, float(np.max(np.abs(vec)))):
            vec = vh[-1].conj()
    except np.linalg.LinAlgError:
        vec = vh[-1].conj()

    rho = vec.reshape(dim, dim)
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


def density_expectation_set(rho: np.ndarray) -> ExpectationSet:
    """Collective moments of a ladder-basis density matrix by direct trace."""
    dim = rho.shape[0]
    ops = DickeBasisOperators.build(dim - 1)

    def mom(p: int, r: int, f: int) -> complex:
        op = (
            np.linalg.matrix_power(ops.s_plus, p)
            @ np.linalg.matrix_power(ops.s_z, r)
            @ np.linalg.matrix_power(ops.s_minus, f)
        )
        return complex(np.trace(rho @ op))

    return ExpectationSet(
        s_plus=mom(1, 0, 0),
        s_z=mom(0, 1, 0).real,
        s_z2=mom(0, 2, 0).real,
        s_plus_sz=mom(1, 1, 0),
        s_plus2=mom(2, 0, 0),
        s_plus_s_minus=mom(1, 0, 1).real,
    )


def oracle_pair_density(rho: np.ndarray, n_qubits: int) -> np.ndarray:
    """Pair density matrix of a ladder-basis state by the Dicke decomposition.

    With j of the pair's qubits excited and m of the other n - 2,
    |D(n, m + j)> carries the amplitude sqrt(C(n-2, m) / C(n, m+j)) on each
    pair state times |D(n-2, m)>, so tracing out the other qubits pairs up
    ladder indices that leave the same remainder m. The 3x3 block over
    j = 2, 1, 0 expands to the basis {ee, eg, ge, gg}. The result is the
    transpose of the literal partial trace: the package convention
    rho_ij = <j|rho|i>, as ``steady_pair_density`` returns.
    """
    if rho.shape != (n_qubits + 1, n_qubits + 1):
        raise ValueError(
            f"state has shape {rho.shape}, expected {(n_qubits + 1, n_qubits + 1)}"
        )
    if n_qubits < 2:
        raise PairUndefined(f"pair reduction needs at least 2 qubits, got {n_qubits}")
    rest = range(n_qubits - 1)
    pair_j = (2, 1, 0)
    amp = np.sqrt([[math.comb(n_qubits - 2, m) / math.comb(n_qubits, m + j) for m in rest]
                   for j in pair_j])
    ladder = np.add.outer(pair_j, rest)
    # entry (a, b) sums rho[ladder[b], ladder[a]]: the transposed block
    block = np.einsum("abm,am,bm->ab", rho[ladder[None, :], ladder[:, None]], amp, amp)
    return block[[[0], [1], [1], [2]], [0, 1, 1, 2]]
