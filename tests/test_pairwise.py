"""Pair density construction and Wootters concurrence."""
import re

import numpy as np
import pytest

from dickepair import pairwise
from dickepair import (
    NumericalFailure,
    PairEntries,
    PairUndefined,
    ParamBatch,
    SystemParams,
    concurrence,
    density_expectation_set,
    expectation_set,
    oracle_pair_density,
    steady_pair_density,
    two_qubit_rho,
)
from dickepair.cli import FIGURES
from dickepair.steady import ExpectationSet
from helpers import (
    charpoly_concurrence,
    closed_form_pair_entries,
    pair_partial_trace,
    pochhammer_pair_entries,
    random_symmetric_rho,
    random_x_state,
    spin_flip_eig_spectrum,
    steady_rho,
    triplet_state_with_spectrum,
)


def ground_moments(n):
    return ExpectationSet(
        s_plus=0.0, s_z=-n / 2.0, s_z2=n * n / 4.0,
        s_plus_sz=0.0, s_plus2=0.0, s_plus_s_minus=0.0,
    )


def inverted_moments(n):
    return ExpectationSet(
        s_plus=0.0, s_z=n / 2.0, s_z2=n * n / 4.0,
        s_plus_sz=0.0, s_plus2=0.0, s_plus_s_minus=float(n),
    )


def bell_phi_plus():
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return np.outer(v, v.conj())


def test_ground_state_pair():
    rho = two_qubit_rho(ground_moments(2), 2)
    assert rho == pytest.approx(np.diag([0, 0, 0, 1.0]), abs=1e-14)


def test_inverted_state_pair():
    rho = two_qubit_rho(inverted_moments(2), 2)
    assert rho == pytest.approx(np.diag([1.0, 0, 0, 0]), abs=1e-14)


def test_pair_needs_two_qubits():
    with pytest.raises(PairUndefined):
        two_qubit_rho(ground_moments(1), 1)


def test_pair_density_invariants():
    for params in (
        SystemParams(n_qubits=2, rabi=1.5, detuning=-10.0, dipole_shift=5.0),
        SystemParams(n_qubits=6, rabi=2.4),
        SystemParams(n_qubits=30, rabi=14.0, detuning=-3.0, dipole_shift=3.0),
    ):
        rho = two_qubit_rho(expectation_set(params), params.n_qubits)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-9
        # exchange symmetry is built in
        assert rho[0, 1] == rho[0, 2] and rho[1, 1] == rho[2, 2] and rho[1, 3] == rho[2, 3]


def test_matches_literal_partial_trace():
    # the Dicke-decomposition reduction and the moment construction must both
    # agree entrywise with tracing out all other qubits of the embedded
    # symmetric state; entries follow the rho_ij = <j|rho|i> convention,
    # hence the transpose
    for n, rabi, det, dip in ((2, 1.3, -2.0, 3.0), (3, 0.9, 1.5, -2.0),
                              (4, 2.2, -4.0, 5.0), (6, 1.7, -3.0, 2.0)):
        rho_ladder = steady_rho(SystemParams(n_qubits=n, rabi=rabi, detuning=det,
                                             dipole_shift=dip))
        literal = pair_partial_trace(rho_ladder, n).T
        assert np.abs(oracle_pair_density(rho_ladder, n) - literal).max() < 1e-12
        via_moments = two_qubit_rho(density_expectation_set(rho_ladder), n)
        assert np.abs(via_moments - literal).max() < 1e-10


@pytest.mark.parametrize("precision", ["standard", "extended"])
def test_weak_drive_pair_matrix_is_the_ground_state_exactly(precision):
    # at rabi 1e-50 and 1e-300 only the n = N term of the sums survives; the
    # diagonal entries are ratios of mantissas at Z's own scale, so rho44 is
    # N(N-1) / N(N-1) = 1 and the trace is exactly 1
    for n in (50, 200, 1000):
        for rabi in (1e-50, 1e-300):
            rho = steady_pair_density(SystemParams(n_qubits=n, rabi=rabi), precision)
            assert rho[3, 3] == 1.0 and np.trace(rho) == 1.0, (n, rabi)


@pytest.mark.parametrize("precision", ["standard", "extended"])
@pytest.mark.parametrize("n", [74, 200])
def test_pair_trace_is_one_to_a_few_ulp(n, precision):
    # pump 1e-3 to 3, any detuning and dipole shift: the trace misses 1 by at
    # most 2 eps here
    rng = np.random.default_rng(1000 + n)
    pumps = 10 ** rng.uniform(-3.0, 0.5, 400)
    rho = steady_pair_density(ParamBatch(n, pumps * n / 2, rng.uniform(-10.0, 5.0, 400),
                                         rng.choice([0.0, 2.0, 5.0], 400)), precision).matrices()
    trace = np.trace(rho, axis1=1, axis2=2)
    assert np.abs(trace - 1.0).max() <= 4 * np.finfo(float).eps


def test_closed_form_pair_matches_dense_solver():
    params = SystemParams(n_qubits=6, rabi=0.8 * 6 / 2)
    analytic = two_qubit_rho(expectation_set(params), 6)
    reference = oracle_pair_density(steady_rho(params), 6)
    assert np.abs(analytic - reference).max() < 1e-8


def test_conditioned_path_equals_moment_assembly():
    for params in (
        SystemParams(n_qubits=2, rabi=1.8, detuning=-12.0, dipole_shift=5.0),
        SystemParams(n_qubits=6, rabi=2.4),
        SystemParams(n_qubits=30, rabi=14.0, detuning=-3.0, dipole_shift=3.0),
    ):
        direct = steady_pair_density(params)
        assembled = two_qubit_rho(expectation_set(params), params.n_qubits)
        assert np.abs(direct - assembled).max() < 1e-12


def test_conditioned_path_weak_drive_accuracy():
    # deep weak-drive entries are tiny differences of N^2-scale moments;
    # expected values frozen from a 50-digit evaluation of the closed form
    params = SystemParams(n_qubits=74, rabi=0.0075 * 37, detuning=-7.4,
                          dipole_shift=7.4)
    res = concurrence(steady_pair_density(params))
    assert res.concurrence == pytest.approx(6.9095063e-9, rel=1e-5)
    assert res.c_ref_2 == pytest.approx(-6.9095099e-9, rel=1e-5)
    rho = steady_pair_density(params)
    assert np.linalg.eigvalsh(rho).min() >= -1e-15


@pytest.mark.parametrize("n", [74, 200])
@pytest.mark.parametrize("pump", [0.3, 1.0, 2.0])
def test_pair_entries_match_high_precision_closed_form(n, pump):
    # beyond the dense oracle: a 30-digit literal double sum of the closed form
    params = SystemParams(n_qubits=n, rabi=1.0, detuning=-3.0,
                          dipole_shift=2.0).with_pump(pump)
    rho = steady_pair_density(params)
    got = (rho[0, 0], rho[0, 1], rho[0, 3], rho[1, 1], rho[1, 3], rho[3, 3])
    for value, ref in zip(got, closed_form_pair_entries(params)):
        assert abs(value - ref) <= 1e-10 * abs(ref)


def test_pair_entries_match_pochhammer_reference_at_n1000():
    # 50-digit coefficients times exact-integer row sums, with no log space
    for params in (SystemParams(n_qubits=1000, rabi=1.0).with_pump(0.98),
                   SystemParams(n_qubits=1000, rabi=1.0, detuning=-3.0,
                                dipole_shift=2.0).with_pump(1.5)):
        rho = steady_pair_density(params)
        got = (rho[0, 0], rho[0, 1], rho[0, 3], rho[1, 1], rho[1, 3], rho[3, 3])
        for value, ref in zip(got, pochhammer_pair_entries(params)):
            assert abs(value - ref) <= 1e-10 * abs(ref)


def test_conditioned_path_needs_two_qubits():
    with pytest.raises(PairUndefined):
        steady_pair_density(SystemParams(n_qubits=1, rabi=1.0))


@pytest.mark.parametrize("precision", ["standard", "extended"])
def test_batch_pair_entries_have_real_diagonals(precision):
    # why concurrence skips the Hermiticity check on PairEntries: r11, r22 and
    # r44 are real arrays, and the rest of each matrix mirrors the six entries
    pump_curve = ParamBatch(74, np.linspace(0.1, 2.0, 7) * 37, np.full(7, -3.0), np.full(7, 2.0))
    detuning_axis = ParamBatch(74, np.full(7, 0.9 * 37), np.linspace(-4.0, 4.0, 7), np.full(7, 2.0))
    for points in (pump_curve, detuning_axis):
        pair = steady_pair_density(points, precision)
        assert isinstance(pair, PairEntries)
        assert all(np.isrealobj(x) for x in (pair.r11, pair.r22, pair.r44))
        assert all(x.shape == (7,) for x in pair)


def steady_entries():
    return steady_pair_density(ParamBatch(6, np.array([0.3, 1.5, 4.0]), np.array([-2.0, 0.0, 1.0]),
                                          np.array([2.0, 0.0, 5.0])))


@pytest.mark.parametrize("entry, value", [
    ("r11", np.nan), ("r22", np.inf), ("r44", -np.inf),
    ("r12", complex(0.1, np.nan)), ("r14", complex(np.inf, 0.0)), ("r24", complex(0.0, -np.inf)),
])
def test_pair_entries_with_a_non_finite_entry_rejected(entry, value):
    pair = steady_entries()
    column = getattr(pair, entry).copy()
    column[1] = value
    bad = pair._replace(**{entry: column})
    for form in (bad, bad.matrices()):
        with pytest.raises(NumericalFailure, match="non-finite entries"):
            concurrence(form)


@pytest.mark.parametrize("scale", [0.0, -1.0])
def test_pair_entries_with_a_non_positive_trace_rejected(scale):
    pair = steady_entries()
    bad = pair._replace(r11=scale * pair.r11, r22=scale * pair.r22, r44=scale * pair.r44)
    messages = []
    for form in (bad, bad.matrices()):
        with pytest.raises(NumericalFailure, match="non-positive trace") as err:
            concurrence(form)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_pair_entries_need_real_diagonals():
    pair = steady_entries()
    with pytest.raises(ValueError, match="real r11, r22 and r44"):
        concurrence(pair._replace(r22=pair.r22.astype(complex)))


@pytest.mark.parametrize("reshape", [
    lambda pair: pair._replace(r11=pair.r11[:1]),
    lambda pair: PairEntries(*(x[0] for x in pair)),
    lambda pair: PairEntries(*(np.stack([x, x]) for x in pair)),
], ids=["one-short-entry", "0-d", "2-d"])
def test_pair_entries_need_1d_arrays_of_one_length(reshape):
    # broadcast, such entries would give rows that no caller passed in
    with pytest.raises(ValueError, match="six 1-D arrays of one length"):
        concurrence(reshape(steady_entries()))


def test_pair_entries_and_their_matrices_give_the_same_bits():
    # fig3's first 1,024 rows and random drives at larger N, weak to strong
    preset = FIGURES["fig3"]
    (dipole, _), = preset.curves
    rabi, detuning = (g.ravel()[:1024] for g in np.meshgrid(
        *(axis.values() for axis in preset.axes), indexing="ij"))
    batches = [ParamBatch(preset.n_qubits, rabi, detuning, np.full(1024, dipole))]
    rng = np.random.default_rng(31)
    for n in (6, 74, 200):
        pumps = 10 ** rng.uniform(-3.0, 3.0, 200)
        batches.append(ParamBatch(n, pumps * n / 2, rng.uniform(-10.0, 5.0, 200),
                                  rng.choice([0.0, 2.0, 5.0], 200)))
    for points in batches:
        pair = steady_pair_density(points)
        by_entries, by_matrices = concurrence(pair), concurrence(pair.matrices())
        for field in ("concurrence", "lambdas", "c_ref_1", "c_ref_2"):
            assert getattr(by_entries, field).tobytes() == getattr(by_matrices, field).tobytes()


def test_bell_state_concurrence():
    res = concurrence(bell_phi_plus())
    assert res.concurrence == pytest.approx(1.0, abs=1e-12)
    assert res.lambdas[0] == pytest.approx(1.0, abs=1e-12)
    assert max(res.lambdas[1:]) < 1e-8


def test_maximally_mixed_concurrence():
    res = concurrence(np.eye(4, dtype=complex) / 4)
    assert res.concurrence == 0.0


def test_werner_state():
    p = 0.6
    rho = p * bell_phi_plus() + (1 - p) * np.eye(4) / 4
    res = concurrence(rho)
    assert res.concurrence == pytest.approx((3 * p - 1) / 2, abs=1e-10)
    assert res.concurrence == pytest.approx(charpoly_concurrence(rho), abs=1e-10)


def test_random_states_match_charpoly_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        rho = random_symmetric_rho(rng)
        res = concurrence(rho)
        assert 0.0 <= res.concurrence <= 1.0
        assert res.concurrence == pytest.approx(charpoly_concurrence(rho), abs=1e-8)
        assert list(res.lambdas) == sorted(res.lambdas, reverse=True)


def test_x_state_closed_form_is_exact():
    rng = np.random.default_rng(8)
    for _ in range(60):
        rho = random_x_state(rng)
        res = concurrence(rho)
        ref = max(0.0, res.c_ref_1, res.c_ref_2)
        assert res.concurrence == pytest.approx(ref, abs=1e-8)
        assert res.concurrence >= ref - 1e-6


def test_local_phase_rotation_invariance():
    rng = np.random.default_rng(13)
    for _ in range(25):
        rho = random_symmetric_rho(rng)
        base = concurrence(rho).concurrence
        phi = rng.uniform(-np.pi, np.pi)
        u = np.diag([np.exp(1j * phi), 1.0, 1.0, np.exp(-1j * phi)])
        rotated = u @ rho @ u.conj().T
        assert concurrence(rotated).concurrence == pytest.approx(base, abs=1e-10)


def test_trace_renormalization():
    rho = 1.7 * bell_phi_plus()
    assert concurrence(rho).concurrence == pytest.approx(1.0, abs=1e-12)


def test_non_hermitian_input_rejected():
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1], bad[1, 0] = 0.3, -0.3
    with pytest.raises(NumericalFailure):
        concurrence(bad)


def hermitian_defect(stack):
    """The defect the check reports: the largest |rho - rho^H| entry of the normalised stack."""
    trace = np.trace(stack, axis1=1, axis2=2).real
    rho = stack / trace[:, None, None]
    return np.abs(rho - rho.conj().transpose(0, 2, 1)).max()


@pytest.mark.parametrize("defects", [
    # (row, column, added value) per matrix; the largest is in an upper
    # entry, a lower entry or on the diagonal
    ((0, 1, 3e-4 + 1e-4j), (2, 0, 1e-4j), (3, 3, 2e-5j)),
    ((1, 3, 2e-6), (3, 2, -7e-4 + 2e-4j), (1, 1, 1e-4j)),
    ((0, 2, 1e-5j), (2, 1, 3e-6), (2, 2, 6e-4j)),
])
def test_hermitian_check_reports_the_whole_matrix_defect(defects):
    # the defect the check reports is the largest |rho - rho^H| entry of the
    # normalised stack, to every digit the message prints, wherever it sits
    rng = np.random.default_rng(8)
    stack = 1.7 * np.array([random_symmetric_rho(rng) for _ in range(5)])
    for k, (i, j, value) in enumerate(defects):
        stack[k + 1, i, j] += value
    for rho in (stack, *stack[1:4]):
        expected = (f"density matrix departs from Hermitian by "
                    f"{hermitian_defect(rho.reshape(-1, 4, 4)):.3e} > {pairwise.HERMITIAN_TOL}")
        with pytest.raises(NumericalFailure, match=f"^{re.escape(expected)}$"):
            concurrence(rho)


@pytest.mark.parametrize("i, j", [(0, 1), (3, 1), (2, 2)])
def test_defect_just_below_the_hermitian_tolerance_passes(i, j):
    rho = random_symmetric_rho(np.random.default_rng(9))
    # a diagonal entry differs from its own conjugate by twice its imaginary part
    rho[i, j] += (0.45j if i == j else 0.9) * pairwise.HERMITIAN_TOL
    assert 0.5 * pairwise.HERMITIAN_TOL < hermitian_defect(rho[None]) < pairwise.HERMITIAN_TOL
    concurrence(rho)
    concurrence(np.array([rho, random_symmetric_rho(np.random.default_rng(10))]))


def test_each_value_reads_its_own_triangle():
    # defects within tolerance, in the lower triangle of the eg and ge rows
    # alike (so the rows keep the triplet route) and in the upper entry rho14
    rho = steady_entries().matrices()
    rho[:, 1, 0] += 3e-12 + 2e-12j
    rho[:, 2, 0] += 3e-12 + 2e-12j
    rho[:, 0, 3] += 5e-12
    lower_half = np.tril(np.ones((4, 4), dtype=bool))
    mirrored = np.conjugate(rho.transpose(0, 2, 1))
    from_lower = concurrence(np.where(lower_half, rho, mirrored))
    from_upper = concurrence(np.where(lower_half.T, rho, mirrored))
    result = concurrence(rho)
    # the Cholesky and eigh routes read the lower triangle, c_ref_1 and
    # c_ref_2 the diagonal and the upper entries rho14 and rho23
    assert result.lambdas.tobytes() == from_lower.lambdas.tobytes()
    assert result.lambdas.tobytes() != from_upper.lambdas.tobytes()
    for field in ("c_ref_1", "c_ref_2"):
        assert getattr(result, field).tobytes() == getattr(from_upper, field).tobytes()
    assert result.c_ref_1.tobytes() != from_lower.c_ref_1.tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.1, np.nan)])
def test_non_finite_input_rejected(value):
    bad = np.eye(4, dtype=complex) / 4
    bad[1, 2] = value
    with pytest.raises(NumericalFailure):
        concurrence(bad)
    with pytest.raises(NumericalFailure):
        concurrence(np.full((4, 4), value))


def test_non_4x4_input_rejected():
    with pytest.raises(ValueError, match=r"expected a 4x4 density matrix or a stack"):
        concurrence(np.eye(3) / 3)


def test_zero_trace_input_rejected():
    with pytest.raises(NumericalFailure, match="non-positive trace"):
        concurrence(np.diag([0.5, -0.5, 0.0, 0.0]))


def test_non_psd_input_rejected():
    # unit trace and Hermitian, but an eigenvalue of -0.5
    with pytest.raises(NumericalFailure):
        concurrence(np.diag([1.5, -0.5, 0.0, 0.0]))


def test_stack_matches_single_matrices():
    rng = np.random.default_rng(21)
    stack = np.array([random_symmetric_rho(rng) for _ in range(9)])
    res = concurrence(stack)
    assert res.concurrence.shape == (9,) and res.lambdas.shape == (9, 4)
    for i, rho in enumerate(stack):
        one = concurrence(rho)
        assert one.concurrence == res.concurrence[i]
        assert one.lambdas == tuple(res.lambdas[i])
        assert (one.c_ref_1, one.c_ref_2) == (res.c_ref_1[i], res.c_ref_2[i])


def test_empty_stack_gives_empty_fields():
    res = concurrence(np.zeros((0, 4, 4), dtype=complex))
    assert res.concurrence.shape == res.c_ref_1.shape == res.c_ref_2.shape == (0,)
    assert res.lambdas.shape == (0, 4)


def test_triplet_route_matches_high_precision_on_weak_drive():
    # fig3's weakest drives, every other detuning of its axis: near-zero
    # eigenvalues of rho, where the 4x4 route read C up to 1.1e-10 off the
    # 40-digit reference and the triplet block's eigh route 2.1e-13 (lambdas
    # 1.7e-10); the Cholesky factor reads below 1e-18 on both
    preset = FIGURES["fig3"]
    rabi_axis, detuning_axis = preset.axes
    (dipole, _), = preset.curves
    detunings = detuning_axis.values()[::2]
    rho = np.concatenate([
        steady_pair_density(ParamBatch(preset.n_qubits, np.full(len(detunings), rabi),
                                       detunings, np.full(len(detunings), dipole))).matrices()
        for rabi in rabi_axis.values()[:2]
    ])
    assert len(rho) == 126
    res = concurrence(rho)
    assert np.all(res.lambdas[:, 3] == 0.0)
    c_error = lambda_error = 0.0
    for c, lams, r in zip(res.concurrence, res.lambdas, rho):
        c_ref, lams_ref = spin_flip_eig_spectrum(r)
        c_error = max(c_error, abs(c - c_ref))
        lambda_error = max(lambda_error, np.abs(lams - lams_ref).max())
    assert c_error <= 1e-15
    assert lambda_error <= 1e-15


def spy_on_eigh_routes(monkeypatch):
    """Record the stack size of every call of the eigh-based spin-flip route."""
    sizes = []
    eigh_route = pairwise._spin_flip_values

    def spy(rho, flip):
        sizes.append((len(rho), len(flip)))
        return eigh_route(rho, flip)

    monkeypatch.setattr(pairwise, "_spin_flip_values", spy)
    return sizes


def pure_triplet_states():
    """|ee><ee|, |gg><gg| and |T0><T0|: triplet rows with a zero Cholesky pivot."""
    t0 = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    return np.array([np.diag([1.0, 0, 0, 0]), np.diag([0, 0, 0, 1.0]), np.outer(t0, t0)],
                    dtype=complex)


def test_pair_matrices_skip_the_eigh_routes(monkeypatch):
    # every row factors, so neither eigh route runs, not even on no rows
    sizes = spy_on_eigh_routes(monkeypatch)
    points = ParamBatch(6, np.linspace(0.1, 6.0, 9), np.linspace(-8.0, 4.0, 9), np.full(9, 2.0))
    res = concurrence(steady_pair_density(points))
    concurrence(steady_pair_density(SystemParams(n_qubits=74, rabi=30.0)))
    assert sizes == []
    assert np.all(res.lambdas[:, 3] == 0.0)


def test_zero_pivot_triplet_rows_take_the_eigh_route(monkeypatch):
    sizes = spy_on_eigh_routes(monkeypatch)
    res = concurrence(pure_triplet_states())
    assert sizes == [(3, 3)]
    assert res.concurrence.tolist() == [0.0, 0.0, 1.0]
    assert np.all(res.lambdas[:, 3] == 0.0)


def test_non_psd_triplet_matrix_rejected():
    # equal eg and ge rows and columns, unit trace, eigenvalues 0.6, 0.5 (on
    # T0), 0 and -0.1: the factorization stops at a negative pivot and the
    # eigh route rejects the matrix
    rho = np.diag([0.6, 0.0, 0.0, -0.1])
    rho[1:3, 1:3] = 0.25
    with pytest.raises(NumericalFailure):
        concurrence(rho)
    with pytest.raises(NumericalFailure):
        concurrence(np.array([steady_pair_density(SystemParams(n_qubits=6, rabi=1.0)), rho]))


def test_mixed_stack_routes_each_matrix_on_its_own(monkeypatch):
    # pair matrices of the steady state (closed form), strong-drive pair
    # matrices (svd of M), a weak-drive row with a clamped last pivot,
    # zero-pivot triplet rows (eigh on the triplet block) and singlet-weighted
    # states (4x4 route), interleaved: every row has the bits it has alone
    rng = np.random.default_rng(34)
    points = ParamBatch(6, rng.uniform(0.05, 3.0, 8) * 3, rng.uniform(-10.0, 5.0, 8),
                        rng.choice([0.0, 2.0, 5.0], 8))
    pairs = steady_pair_density(points).matrices()
    werner = 0.6 * bell_phi_plus() + 0.4 * np.eye(4) / 4
    general = [random_symmetric_rho(rng) for _ in range(7)] + [werner]
    stack = np.array([m for two in zip(pairs, general) for m in two])
    singlet = np.arange(len(stack)) % 2 == 1
    edge_rows = np.array([steady_pair_density(SystemParams(n_qubits=n, rabi=1.0).with_pump(pump))
                          for n, pump in ((74, 1000.0), (2, 30.0), (74, 0.001))])
    stack = np.insert(stack, [1, 6, 11], edge_rows, axis=0)
    stack = np.insert(stack, [3, 8, 13], pure_triplet_states(), axis=0)
    singlet = np.insert(np.insert(singlet, [1, 6, 11], False), [3, 8, 13], False)
    sizes = spy_on_eigh_routes(monkeypatch)
    svd_sizes = spy_on_factor_svd(monkeypatch)
    res = concurrence(stack)
    assert sizes == [(3, 3), (8, 4)]
    assert svd_sizes == [2]
    for i, rho in enumerate(stack):
        one = concurrence(rho)
        assert one.concurrence == res.concurrence[i]
        assert one.lambdas == tuple(res.lambdas[i])
        assert (one.c_ref_1, one.c_ref_2) == (res.c_ref_1[i], res.c_ref_2[i])
    assert np.all(res.lambdas[~singlet, 3] == 0.0)
    assert np.all(res.lambdas[singlet, 3] > 0.0)


def spy_on_factor_svd(monkeypatch):
    """Record the stack size of every call of the svd of M in the Cholesky route."""
    sizes = []
    svd_route = pairwise._factor_svd_values

    def spy(*entries):
        sizes.append(len(entries[-1]))
        return svd_route(*entries)

    monkeypatch.setattr(pairwise, "_factor_svd_values", spy)
    return sizes


def weak_drive_pair_matrices(n, rows):
    """Pair matrices at pump 0.001-0.05, where the last Cholesky pivot is round-off."""
    rng = np.random.default_rng(n)
    pumps = rng.uniform(0.001, 0.05, rows)
    return steady_pair_density(ParamBatch(n, pumps * n / 2, rng.uniform(-10.0, 5.0, rows),
                                          rng.choice([0.0, 2.0, 5.0], rows))).matrices()


@pytest.mark.parametrize("n, bound", [(74, 1e-15), (200, 1e-14)])
def test_round_off_last_pivot_clamps_and_factors(monkeypatch, n, bound):
    # 17% (N = 74) and 24% (N = 200) of these rows end the factorization on a
    # last pivot in (EIG_NEG_TOL, 0], which clamps to 0, so no row takes an
    # eigh route (which read the lambdas up to 1.6e-8 off). The input's own
    # pivot is negative there (down to -8e-13), and the reference reads that
    # matrix as it is: the clamped rows sit up to 4.8e-16 (N = 74) and
    # 7.1e-15 (N = 200) from it, the other rows within 5.2e-17
    rho = weak_drive_pair_matrices(n, 160)
    sizes = spy_on_eigh_routes(monkeypatch)
    res = concurrence(rho)
    assert sizes == []
    for i in range(0, len(rho), 8):
        c_ref, lams_ref = spin_flip_eig_spectrum(rho[i])
        assert abs(res.concurrence[i] - c_ref) <= bound
        assert np.abs(res.lambdas[i] - lams_ref).max() <= bound


def test_fig3_chunk_takes_only_the_closed_form(monkeypatch):
    # the first sweep chunk of fig3 (512 rows) never reaches the svd of M;
    # strong-drive pair matrices, with nearly flat spectra, do
    preset = FIGURES["fig3"]
    rabi_axis, detuning_axis = preset.axes
    (dipole, _), = preset.curves
    rabi, detuning = (g.ravel()[:512] for g in np.meshgrid(rabi_axis.values(),
                                                            detuning_axis.values(), indexing="ij"))
    chunk = steady_pair_density(ParamBatch(preset.n_qubits, rabi, detuning,
                                           np.full(512, dipole)))
    svd_sizes = spy_on_factor_svd(monkeypatch)
    concurrence(chunk)
    assert svd_sizes == []
    concurrence(steady_pair_density(SystemParams(n_qubits=74, rabi=1.0).with_pump(1000.0)))
    assert svd_sizes == [1]


def test_underflowing_invariants_take_the_svd():
    # X-shaped triplet blocks [[p, 0, z], [0, t, 0], [z, 0, 1]] with lambdas
    # t and sqrt(p) +- z, scaled down until the second compound's cubic has
    # terms below the normal range (its mean root is ~1e-107 at p = 1e-53);
    # read there, the closed form lost up to 9e-6 of lambda1-3
    for p in (1e-48, 1e-52, 1e-53, 1e-56):
        t, z = 0.5 * np.sqrt(p), 0.3 * np.sqrt(p)
        rho = np.diag([p, t / 2, t / 2, 1.0]).astype(complex)
        rho[1, 2] = rho[2, 1] = t / 2
        rho[0, 3] = rho[3, 0] = z
        lams = np.array(concurrence(rho).lambdas) / np.sqrt(p)
        assert np.abs(lams - [1.3, 0.7, 0.5, 0.0]).max() <= 1e-14


def near_degenerate_triplet_states(rng):
    """All-equal, top-pair and bottom-pair lambdas split by eps = 1e-12 ... 1."""
    states = []
    for eps in 10.0 ** -np.arange(13):
        for lams in ([1.0, 1.0 + eps, 1.0 + 2.0 * eps], [1.0, 1.0 + eps, 0.3],
                     [1.0, 0.3, 0.3 * (1.0 + eps)], [1.0, 1.0 + eps, 0.0]):
            states.append(triplet_state_with_spectrum(lams, rng))
    return np.array(states)


def test_closed_form_and_svd_match_high_precision_on_hard_spectra(monkeypatch):
    # near-degenerate spectra (the closed form's ill-conditioned cubics, which
    # the guard sends to the svd of M) and strong-drive steady states with
    # nearly flat spectra; the largest error read 6.1e-16 (seeds 3-5)
    strong = [steady_pair_density(ParamBatch(n, np.geomspace(3.0, 1000.0, 6) * n / 2,
                                             np.full(6, detuning), np.full(6, dipole))).matrices()
              for n in (2, 6, 74, 200) for detuning, dipole in ((0.0, 0.0), (-3.0, 2.0))]
    rho = np.concatenate([near_degenerate_triplet_states(np.random.default_rng(3))] + strong)
    svd_sizes = spy_on_factor_svd(monkeypatch)
    res = concurrence(rho)
    assert 0 < sum(svd_sizes) < len(rho)
    assert np.all(np.diff(res.lambdas, axis=1) <= 0.0)
    c_error = lambda_error = 0.0
    for c, lams, r in zip(res.concurrence, res.lambdas, rho):
        c_ref, lams_ref = spin_flip_eig_spectrum(r)
        c_error = max(c_error, abs(c - c_ref))
        lambda_error = max(lambda_error, np.abs(lams - lams_ref).max())
    assert c_error <= 2e-15
    assert lambda_error <= 2e-15


@pytest.mark.parametrize("defect", ["non_finite", "non_hermitian", "non_psd"])
def test_stack_with_one_bad_matrix_rejected(defect):
    # one bad matrix among clean ones fails the whole stack
    rng = np.random.default_rng(5)
    stack = np.array([random_symmetric_rho(rng) for _ in range(6)])
    assert len(concurrence(stack).concurrence) == 6
    if defect == "non_finite":
        stack[3, 1, 2] = np.nan
    elif defect == "non_hermitian":
        stack[3, 0, 1] += 0.3
    else:
        stack[3] = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(NumericalFailure):
        concurrence(stack)


def test_reference_concurrences():
    res = concurrence(bell_phi_plus())
    assert res.c_ref_1 == pytest.approx(1.0)
    assert res.c_ref_2 == pytest.approx(-1.0)
    res = concurrence(np.diag([0, 0, 0, 1.0]).astype(complex))
    assert res.c_ref_1 <= 0.0 and res.c_ref_2 <= 0.0


def test_concurrence_result_fields_consistent():
    rho = random_symmetric_rho(np.random.default_rng(77))
    res = concurrence(rho)
    lam = res.lambdas
    assert res.concurrence == pytest.approx(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
    # 2(|rho14| - sqrt(rho22 rho33)) and 2(|rho23| - sqrt(rho11 rho44)), read off rho
    r1 = 2.0 * (abs(rho[0, 3]) - np.sqrt(rho[1, 1].real * rho[2, 2].real))
    r2 = 2.0 * (abs(rho[1, 2]) - np.sqrt(rho[0, 0].real * rho[3, 3].real))
    assert (res.c_ref_1, res.c_ref_2) == pytest.approx((r1, r2))
