"""Shared numeric utilities for the test suite.

The concurrence and partial-trace helpers here are deliberately written
from first principles (characteristic polynomial, explicit embedding into
the full 2^N space) so they stay independent of the package code paths they
check.
"""
import math
from itertools import combinations

import mpmath
import numpy as np

from dickepair import SystemParams, build_liouvillian, steady_state_null_space

SIGMA_YY = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
)

MOMENT_FIELDS = ("s_plus", "s_z", "s_z2", "s_plus_sz", "s_plus2", "s_plus_s_minus")


def charpoly_concurrence(rho, dps=40):
    """Concurrence with spin-flip eigenvalues from quartic root finding.

    Evaluated in high-precision arithmetic so that clustered eigenvalues of
    the spin-flip product (an ill-conditioned quartic in doubles) do not
    limit the oracle; the double-precision input is converted exactly.
    """
    rho = np.asarray(rho, dtype=complex)
    with mpmath.workdps(dps):
        m = mpmath.matrix(4, 4)
        flip = mpmath.matrix(4, 4)
        for i in range(4):
            for j in range(4):
                m[i, j] = mpmath.mpc(rho[i, j])
                flip[i, j] = mpmath.mpc(SIGMA_YY[i, j])
        m = m / mpmath.fsum(m[i, i] for i in range(4))
        conj = m.copy()
        for i in range(4):
            for j in range(4):
                conj[i, j] = mpmath.conj(m[i, j])
        r = m * flip * conj * flip
        # Newton's identities from power sums of R
        power = r.copy()
        p = [None]
        for _ in range(4):
            p.append(mpmath.fsum(power[i, i] for i in range(4)))
            power = power * r
        e1 = p[1]
        e2 = (e1 * p[1] - p[2]) / 2
        e3 = (e2 * p[1] - e1 * p[2] + p[3]) / 3
        e4 = (e3 * p[1] - e2 * p[2] + e1 * p[3] - p[4]) / 4
        roots = mpmath.polyroots([1, -e1, e2, -e3, e4], maxsteps=200, extraprec=120)
        lams = sorted((mpmath.sqrt(max(mpmath.re(x), 0)) for x in roots), reverse=True)
        return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def random_symmetric_rho(rng):
    """Random physical two-qubit state symmetric under exchange of the qubits."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    swap = np.eye(4)[[0, 2, 1, 3]]
    rho = 0.5 * (rho + swap @ rho @ swap)
    return rho / np.trace(rho)


def random_x_state(rng):
    """Exchange-symmetric X-shaped state: rho12 = rho24 = 0 and rho23 = rho22."""
    d = rng.uniform(0.05, 1.0, size=3)  # populations (r11, r22, r44) before norm
    r11, r22, r44 = d / (d[0] + 2 * d[1] + d[2])
    mag = rng.uniform(0.0, 1.0) * math.sqrt(r11 * r44)
    phase = rng.uniform(-math.pi, math.pi)
    r14 = mag * np.exp(1j * phase)
    rho = np.diag([r11, r22, r22, r44]).astype(complex)
    rho[0, 3] = r14
    rho[3, 0] = np.conj(r14)
    rho[1, 2] = rho[2, 1] = r22
    return rho


def embed_isometry(n):
    """(2^n, n+1) isometry from the symmetric ladder into the full space.

    Ladder index k = number of excitations; bit 1 = excited, qubit 0 is the
    most significant bit.
    """
    iso = np.zeros((2**n, n + 1))
    for k in range(n + 1):
        for excited in combinations(range(n), k):
            iso[sum(1 << (n - 1 - q) for q in excited), k] = 1.0
        iso[:, k] /= math.sqrt(math.comb(n, k))
    return iso


def pair_partial_trace(rho_ladder, n):
    """Literal partial trace onto qubits (0, 1), basis {ee, eg, ge, gg}."""
    iso = embed_isometry(n)
    rho_full = iso @ rho_ladder @ iso.conj().T
    rest = 2 ** (n - 2)
    blocks = rho_full.reshape(4, rest, 4, rest)
    reduced = np.einsum("arbr->ab", blocks)
    # full-space index 0 is all-ground, so reverse into {ee, eg, ge, gg}
    return reduced[::-1, ::-1]


def ladder_pair_density(rho_ladder, n):
    """Pair reduction of a ladder state by the Dicke decomposition, any n.

    With j pair excitations, |D(n, k)> carries the amplitude
    sqrt(C(n-2, k-j) / C(n, k)) on each pair state times |D(n-2, k-j)>, so
    tracing out the other n - 2 qubits pairs up ladder indices that leave
    the same remainder m. Basis {ee, eg, ge, gg}, as pair_partial_trace,
    which needs the 2^n embedding and so stops at small n.
    """
    excitations = (2, 1, 1, 0)

    def amp(k, j):
        return math.sqrt(math.comb(n - 2, k - j) / math.comb(n, k))

    pair = np.zeros((4, 4), dtype=complex)
    for a, ja in enumerate(excitations):
        for b, jb in enumerate(excitations):
            pair[a, b] = sum(rho_ladder[m + ja, m + jb] * amp(m + ja, ja) * amp(m + jb, jb)
                             for m in range(n - 1))
    return pair


def dense_ladder_steady_state(params: SystemParams):
    """Stationary state of the README master equation by one dense solve.

    Built here from the ladder operators, without the N <= 16 guard of
    ``dickepair.oracle``: the generator is the 4-index array
    L[i, j, k, l] = d rho_ij / d rho_kl, the rho_00 equation is replaced by
    the trace condition and the system is solved by LU, without an SVD.
    N = 50 is a (51^2)^2 complex system, about 110 MB. Returns the state
    and the residual max |L vec(rho)|.
    """
    n = params.n_qubits
    dim = n + 1
    k = np.arange(n)
    lowering = np.sqrt((n - k) * (k + 1.0))  # <k| S- |k+1>
    s_minus = np.zeros((dim, dim))
    s_minus[k, k + 1] = lowering
    s_plus = s_minus.T
    spsm = s_plus @ s_minus
    ham = ((params.detuning + params.dipole_shift) * np.diag(np.arange(dim) - n / 2.0)
           + params.dipole_shift * spsm + params.rabi * (s_plus + s_minus))
    left = -1j * ham - params.decay * spsm   # left @ rho
    right = 1j * ham - params.decay * spsm   # rho @ right

    gen = np.zeros((dim, dim, dim, dim), dtype=complex)
    for i in range(dim):
        gen[:, i, :, i] += left
        gen[i, :, i, :] += right.T
    # 2 gamma S- rho S+ couples rho_ij to rho_{i+1, j+1}
    gen[k[:, None], k[None, :], k[:, None] + 1, k[None, :] + 1] += (
        2.0 * params.decay * np.outer(lowering, lowering))

    gen = gen.reshape(dim * dim, dim * dim)
    first_equation = gen[0].copy()
    gen[0] = 0.0
    gen[0, :: dim + 1] = 1.0
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    vec = np.linalg.solve(gen, rhs)
    drift = gen @ vec
    drift[0] = first_equation @ vec
    return vec.reshape(dim, dim), float(np.abs(drift).max())


def pair_polynomials(n):
    """(p, q) of the six pair entries r11, r12, r14, r22, r24, r44.

    Entry = <(S+)^p q(d)> / (N (N-1)) with d = N/2 - Sz the lowering count
    and q given by integer coefficients in ascending powers of d: the pair
    populations count ordered pairs of excited (N - d) and ground (d)
    emitters, and the coherences shift one or two excitations.
    """
    return ((0, (n * (n - 1), 1 - 2 * n, 1)), (1, (n, -1)), (2, (1,)),
            (0, (0, n, -1)), (1, (-1, 1)), (0, (0, -1, 1)))


def ladder_row_sum(n_qubits, n, poly):
    """sum_m w(n, m) q(n + m) by the literal m loop, in exact integers.

    w(n, m) = (N-m)! (m+n)! / ((N-m-n)! m!) is the trace weight of
    (S-)^n ... (S+)^n on the ladder state m steps below the top.
    """
    f = math.factorial
    return sum(
        f(n_qubits - m) * f(m + n) // (f(n_qubits - m - n) * f(m))
        * sum(c * (n + m) ** k for k, c in enumerate(poly))
        for m in range(n_qubits - n + 1)
    )


def closed_form_pair_entries(params: SystemParams, dps=30):
    """The six pair entries (r11, r12, r14, r22, r24, r44) in mpmath.

    The closed form (Puri & Lawande, Phys. Lett. A 72, 200 (1979)) as the
    literal double sum over (n, m): C_{n, n-p} from direct Pochhammer
    products at ``dps`` digits, the inner m sums from ``ladder_row_sum``.
    No log space, no Vandermonde closure and no package code.
    """
    n_qubits = params.n_qubits
    with mpmath.workdps(dps):
        denom = mpmath.mpc(params.decay, params.dipole_shift)
        alpha = 1j * mpmath.mpf(params.rabi) / denom
        beta = 1j * (mpmath.mpf(params.detuning) + params.dipole_shift) / denom
        poch = [mpmath.mpc(1)]
        for k in range(1, n_qubits + 1):
            poch.append(poch[-1] * (k + beta))

        def coeff(a, b):
            return ((-1) ** (a + b) * alpha ** -a * mpmath.conj(alpha) ** -b
                    * poch[a] * mpmath.conj(poch[b])
                    / (mpmath.factorial(a) * mpmath.factorial(b)))

        def ladder(p, poly):
            return mpmath.fsum(coeff(n, n - p) * ladder_row_sum(n_qubits, n, poly)
                               for n in range(p, n_qubits + 1))

        norm = ladder(0, (1,)) * n_qubits * (n_qubits - 1)
        return tuple(complex(ladder(p, poly) / norm)
                     for p, poly in pair_polynomials(n_qubits))


def steady_rho(params: SystemParams):
    return steady_state_null_space(build_liouvillian(params))
