"""Shared numeric utilities for the test suite.

The concurrence and partial-trace helpers here are deliberately written
from first principles (characteristic polynomial, explicit embedding into
the full 2^N space) so they stay independent of the package code paths they
check.
"""
import math
from functools import lru_cache
from itertools import combinations

import mpmath
import numpy as np

from dickepair import (
    SystemParams,
    build_liouvillian,
    derive_params,
    expectation,
    steady_state_null_space,
)
from dickepair import steady

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


def spin_flip_eig_spectrum(rho, dps=40):
    """Concurrence and lambdas from a high-precision eigensolve of R.

    Builds R = rho (sy x sy) rho* (sy x sy) in ``dps``-digit arithmetic and
    takes its eigenvalues with ``mpmath.eig``. Where R has clustered or
    vanishing eigenvalues, as for weakly driven pair matrices, this is both
    faster and more accurate than ``charpoly_concurrence`` at the same
    precision, whose quartic root finder stalls on the cluster. Returns
    (C, lambdas), the four lambdas in descending order, both rounded to
    doubles from the ``dps``-digit values.
    """
    rho = np.asarray(rho, dtype=complex)
    with mpmath.workdps(dps):
        m = mpmath.matrix([[mpmath.mpc(x) for x in row] for row in rho])
        flip = mpmath.matrix(SIGMA_YY.real.tolist())
        m = m / mpmath.fsum(m[i, i] for i in range(4))
        r = m * flip * m.apply(mpmath.conj) * flip
        roots = mpmath.eig(r, left=False, right=False)
        lams = sorted((mpmath.sqrt(max(mpmath.re(x), 0)) for x in roots), reverse=True)
        c = max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))
        return c, np.array([float(x) for x in lams])


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


def triplet_state_with_spectrum(lams, rng):
    """Pair matrix with equal eg and ge rows whose spin-flip lambdas are lams / sum(lams).

    The X-shaped triplet block [[h, 0, z], [0, t, 0], [z, 0, h]] over
    {ee, T0, gg} has R = T^2, so its lambdas are t, h + z and h - z. A random
    u x u, which keeps the lambdas, turns it into a dense block, and the
    4x4 matrix repeats each T0 entry, scaled by 1/sqrt(2), on eg and ge.
    """
    t, top, bottom = lams
    block = np.array([[top + bottom, 0, top - bottom], [0, 2 * t, 0],
                      [top - bottom, 0, top + bottom]], dtype=complex)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    triplet = np.zeros((4, 3))
    triplet[0, 0] = triplet[3, 2] = 1.0
    triplet[1, 1] = triplet[2, 1] = 1.0 / math.sqrt(2.0)
    d = triplet.T @ np.kron(u, u) @ triplet
    block = d @ block @ d.conj().T
    block = 0.5 * (block + block.conj().T)
    rho = triplet @ block @ triplet.T
    rho[2] = rho[1]
    rho[:, 2] = rho[:, 1]
    return rho / np.trace(rho).real


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
    """Literal partial trace onto qubits (0, 1), basis {ee, eg, ge, gg}.

    Needs the 2^n embedding, so it stops at small n.
    """
    iso = embed_isometry(n)
    rho_full = iso @ rho_ladder @ iso.conj().T
    rest = 2 ** (n - 2)
    blocks = rho_full.reshape(4, rest, 4, rest)
    reduced = np.einsum("arbr->ab", blocks)
    # full-space index 0 is all-ground, so reverse into {ee, eg, ge, gg}
    return reduced[::-1, ::-1]


class NotConverged(Exception):
    """Time evolution did not reach a stationary state."""


def evolve_to_steady(params: SystemParams, t_max, dt, rho0=None):
    """Fixed-step fourth-order integration of the master equation.

    Starts from the collective ground state unless ``rho0`` is given. A
    convergence cross-check of the null-space state that shares only the
    Liouvillian with it; raises NotConverged when ||d rho/dt|| still
    exceeds 1e-6 at t_max.
    """
    liouv = build_liouvillian(params)
    dim = params.n_qubits + 1
    if rho0 is None:
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[0, 0] = 1.0
    vec = np.asarray(rho0, dtype=complex).reshape(dim * dim)
    steps = max(1, math.ceil(t_max / dt))
    h = t_max / steps
    for _ in range(steps):
        k1 = liouv @ vec
        k2 = liouv @ (vec + 0.5 * h * k1)
        k3 = liouv @ (vec + 0.5 * h * k2)
        k4 = liouv @ (vec + h * k3)
        vec = vec + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    rate = float(np.linalg.norm((liouv @ vec).reshape(dim, dim)))
    if rate > 1e-6:
        raise NotConverged(f"||d rho/dt|| = {rate:.3e} > 1e-6 at t_max = {t_max}")
    rho = vec.reshape(dim, dim)
    return 0.5 * (rho + rho.conj().T)


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
    left = -1j * ham - spsm   # left @ rho
    right = 1j * ham - spsm   # rho @ right

    gen = np.zeros((dim, dim, dim, dim), dtype=complex)
    for i in range(dim):
        gen[:, i, :, i] += left
        gen[i, :, i, :] += right.T
    # 2 gamma S- rho S+ (gamma = 1) couples rho_ij to rho_{i+1, j+1}
    gen[k[:, None], k[None, :], k[:, None] + 1, k[None, :] + 1] += (
        2.0 * np.outer(lowering, lowering))

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
        denom = mpmath.mpc(1, params.dipole_shift)
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


@lru_cache(maxsize=None)
def closed_form_row_sums(n_qubits, poly):
    """S_n = sum_m w(n, m) q(n + m) for n = 0..N by the per-row closed form.

    q, given by integer coefficients in ascending powers of d, is rewritten
    in rising factorials q(d) = sum_j c_j (d+1)...(d+j) by synthetic
    division, and Vandermonde's identity closes each row:
    S_n = n! sum_j c_j (n+j)! C(N+n+j+1, 2n+j+1). A factorial and a
    binomial per row and j, in exact integers; returns a tuple of ints.
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
    return tuple(
        math.factorial(n) * sum(
            c * math.factorial(n + j) * math.comb(N + n + j + 1, 2 * n + j + 1)
            for j, c in enumerate(rising) if c)
        for n in range(N + 1))


def pochhammer_pair_entries(params: SystemParams, dps=50, rounded=True):
    """The six pair entries (r11, r12, r14, r22, r24, r44) in mpmath, for large N.

    The closed form sum_n C_{n, n-p} S_n with the coefficients
    C_nm = (-1)^(n+m) alpha^-n (alpha*)^-m a_n conj(a_m) at ``dps`` digits,
    a_n = prod_{k<=n} (1 + beta/k) and alpha^-n kept as running products,
    times the exact integers of ``closed_form_row_sums``. No log space, no
    floats inside the sums and no package code. Rounded to complex unless
    ``rounded`` is false, which returns the ``dps``-digit mpc values.
    """
    n_qubits = params.n_qubits
    with mpmath.workdps(dps):
        denom = mpmath.mpc(1, params.dipole_shift)
        alpha = 1j * mpmath.mpf(params.rabi) / denom
        beta = 1j * (mpmath.mpf(params.detuning) + params.dipole_shift) / denom
        # u_n = (-1)^n alpha^-n a_n, so C_{n, n-p} = u_n conj(u_{n-p})
        u = [mpmath.mpc(1)]
        for k in range(1, n_qubits + 1):
            u.append(-u[-1] * (1 + beta / k) / alpha)

        def ladder(p, poly):
            sums = closed_form_row_sums(n_qubits, poly)
            return mpmath.fsum(u[n] * mpmath.conj(u[n - p]) * sums[n]
                               for n in range(p, n_qubits + 1))

        norm = ladder(0, (1,)) * n_qubits * (n_qubits - 1)
        entries = tuple(ladder(p, poly) / norm for p, poly in pair_polynomials(n_qubits))
    return tuple(map(complex, entries)) if rounded else entries


def moments_of_pair_entries(entries, n):
    """The six collective moments from the pair entries (r11, r12, r14, r22, r24, r44).

    The inverse of the pair reduction, as ``ExpectationSet`` field names;
    plain arithmetic, so it runs on doubles or, inside ``mpmath.workdps``,
    on mpc values. The Hermitian moments are the real parts.
    """
    r11, r12, r14, r22, r24, r44 = entries
    s_plus = n * (r12 + r24)
    return {
        "s_plus": s_plus,
        "s_z": (n * (r11 - r44) / 2).real,
        "s_z2": (n * n / 4 - n * (n - 1) * r22).real,
        "s_plus_sz": n * (n - 1) * r12 - n * s_plus / 2,
        "s_plus2": n * (n - 1) * r14,
        "s_plus_s_minus": (n * (r11 + r22) + n * (n - 1) * r22).real,
    }


def pochhammer_sz_power(params: SystemParams, r, dps=50):
    """<Sz^r> in mpmath from the same closed form as ``pochhammer_pair_entries``.

    Sz^r is the ladder polynomial ((N - 2d) / 2)^r: the exact integer row
    sums of (N - 2d)^r over 2^r, weighted by C_nn = |u_n|^2. Returns a float.
    """
    n_qubits = params.n_qubits
    poly = tuple(math.comb(r, k) * n_qubits ** (r - k) * (-2) ** k for k in range(r + 1))
    with mpmath.workdps(dps):
        denom = mpmath.mpc(1, params.dipole_shift)
        alpha = 1j * mpmath.mpf(params.rabi) / denom
        beta = 1j * (mpmath.mpf(params.detuning) + params.dipole_shift) / denom
        weights = [mpmath.mpf(1)]
        u = mpmath.mpc(1)
        for k in range(1, n_qubits + 1):
            u = -u * (1 + beta / k) / alpha
            weights.append(abs(u) ** 2)
        sums = closed_form_row_sums(n_qubits, poly)
        z_sums = closed_form_row_sums(n_qubits, (1,))
        num = mpmath.fsum(w * s for w, s in zip(weights, sums))
        z = mpmath.fsum(w * s for w, s in zip(weights, z_sums))
        return float(num / (z * 2 ** r))


def coefficient_c(n, m, params: SystemParams):
    """C_nm = (-1)^(n+m) alpha^-n (alpha*)^-m a_n conj(a_m) as a plain complex.

    a_n = prod_{k=1..n} (1 + beta/k) by direct multiplication, with alpha and
    beta from ``derive_params``; no log space. Fine while |alpha|^-(n+m)
    stays in double range (small N).
    """
    d = derive_params(params)

    def a(k):
        return math.prod((1 + d.beta / j for j in range(1, k + 1)), start=1 + 0j)

    return ((-1) ** (n + m) * d.alpha ** -n * np.conj(d.alpha) ** -m
            * a(n) * np.conj(a(m)))


def log_z_of(tables):
    """log Z of each point of a ``_SteadyTables``, from Z's (scale, mantissa).

    Z is row 0 (q = 1) of the (0, 0) moment group, the sum the moments
    divide by: log Z = scale + log(mantissa).
    """
    scale, mantissa = tables._moment_group(0, 0, steady._LOW_MOMENTS)
    return scale + np.log(mantissa[:, 0])


def steady_rho(params: SystemParams):
    return steady_state_null_space(build_liouvillian(params))


def per_point_transition(template: SystemParams, pumps):
    """Steepest response of <Sz>/N along a pump grid, one point at a time.

    The reference for ``detect_transition``: <Sz>/N is the ladder moment
    ``expectation(..., 0, 1, 0)`` at each pump (not the pair-matrix
    ``sz_norm`` of a sweep), differentiated over the pump and stretched by
    |1 + i delta|. Returns the grid index of the steepest point and the
    sharpness.
    """
    sz = np.array([expectation(template.with_pump(float(x)), 0, 1, 0).real
                   for x in pumps]) / template.n_qubits
    deriv = np.gradient(sz, pumps)
    idx = int(np.argmax(np.abs(deriv)))
    return idx, float(np.abs(deriv[idx])) * abs(complex(1.0, template.dipole_shift))


def reference_csv(meta, header, blocks) -> str:
    """The CSV text of a command, written a row at a time with ``%``.

    The reference for the CLI's block writer: ``# `` metadata lines, the
    header, then each row with one ``%.17g`` format operation, -0.0 as 0.
    """
    lines = [f"# {line}\n" for line in meta] + [",".join(header) + "\n"]
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    for block in blocks:
        # + 0.0 turns an exact -0.0 into 0.0 and leaves every other value alone
        lines += [row_format % tuple(row) for row in (block + 0.0).tolist()]
    return "".join(lines)


def g17_edge_values() -> np.ndarray:
    """Floats at the edges of ``%.17g``, each with its negative.

    Zero, NaN and infinities; subnormals; every power of two; every power of
    ten with its neighbours one ulp either side (some of them sit below
    10^k and still print as 1e+k, so their 17 digits round up a decade); the
    switches from fixed to scientific notation at exponents -5/-4 and 16/17;
    3-digit exponents; exact rounding ties at the 17th digit; integers and
    short decimals.
    """
    powers10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = [
        [0.0, math.nan, math.inf, 5e-324, 2.2250738585072009e-308, 1.5e-310, 1e-320],
        [math.ldexp(1.0, k) for k in range(-1074, 1024)],
        powers10, np.nextafter(powers10, 0.0), np.nextafter(powers10, math.inf),
        [9.9999999999999995e-5, 0.0001, 0.00012345678901234567, 1.2345678901234567e-5,
         9.9999999999999998e15, 1e16, 12345678901234567.0, 99999999999999999.0,
         123456789012345678.0, 1e17],
        [1e100, 1e-100, 1.2345678901234567e-250, 9.8765432109876543e299, 1.7976931348623157e308],
        # 1 + odd * 2^-17 has 18 significant digits, the last a 5
        [1.0 + i * 2.0**-17 for i in range(1, 200, 2)],
        np.arange(-1000.0, 1001.0), [2.0**53, 2.0**53 + 2.0, 2.0**63],
        np.arange(-1000, 1001) / 1000.0, [0.025, 0.1, 0.2, 0.3, 2.675, 1.005, 1.15],
    ]
    flat = np.concatenate([np.asarray(v, dtype=float) for v in values])
    return np.concatenate([flat, -flat])


def check_g17(sample: int, seed: int) -> None:
    """Assert that the CSV float kernel writes each cell as ``'%.17g' % (x + 0.0)``.

    The cells are ``sample`` random float64 bit patterns from ``seed`` (NaNs
    with payloads, subnormals and the whole exponent range included) and the
    ``g17_edge_values``. They go through the kernel itself, whatever the
    block size, in blocks of BLOCK_CELLS cells laid out 7 to a row, so the
    separators are checked too. Raises AssertionError naming the first
    mismatching cells.
    """
    from dickepair import csvfloat

    rng = np.random.default_rng(seed)
    cols, chunk = 7, 1 << 16
    parts = [g17_edge_values()] + [
        rng.integers(0, 2**64, min(chunk, sample - start), dtype=np.uint64).view(np.float64)
        for start in range(0, sample, chunk)]
    for values in parts:
        values = np.concatenate([values, np.zeros(-len(values) % cols)])
        rows = values.reshape(-1, cols)
        step = csvfloat.BLOCK_CELLS // cols
        text = "".join(csvfloat._kernel_rows(rows[i:i + step]) for i in range(0, len(rows), step))
        expected = ["%.17g" % (v + 0.0) for v in values.tolist()]
        cells = text.replace("\n", ",").split(",")[:-1]
        assert text.count("\n") == len(rows), "row count"
        bad = [(v.hex(), got, want) for v, got, want in zip(values.tolist(), cells, expected)
               if got != want]
        assert len(cells) == len(expected) and not bad, bad[:10]
