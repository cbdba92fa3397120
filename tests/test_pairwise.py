"""Pair density construction and Wootters concurrence."""
import numpy as np
import pytest

from dickepair import pairwise
from dickepair import (
    NumericalFailure,
    PairUndefined,
    ParamBatch,
    SystemParams,
    concurrence,
    concurrence_ref,
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.1, np.nan)])
def test_non_finite_input_rejected(value):
    bad = np.eye(4, dtype=complex) / 4
    bad[1, 2] = value
    with pytest.raises(NumericalFailure):
        concurrence(bad)
    with pytest.raises(NumericalFailure):
        concurrence(np.full((4, 4), value))


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
                                       detunings, np.full(len(detunings), dipole)))
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
    # pair matrices of the steady state (Cholesky route), zero-pivot triplet
    # rows (eigh on the triplet block) and singlet-weighted states (4x4 route),
    # interleaved: every row has the bits it has alone
    rng = np.random.default_rng(34)
    points = ParamBatch(6, rng.uniform(0.05, 3.0, 8) * 3, rng.uniform(-10.0, 5.0, 8),
                        rng.choice([0.0, 2.0, 5.0], 8))
    pairs = steady_pair_density(points)
    werner = 0.6 * bell_phi_plus() + 0.4 * np.eye(4) / 4
    general = [random_symmetric_rho(rng) for _ in range(7)] + [werner]
    stack = np.array([m for two in zip(pairs, general) for m in two])
    singlet = np.arange(len(stack)) % 2 == 1
    stack = np.insert(stack, [3, 8, 13], pure_triplet_states(), axis=0)
    singlet = np.insert(singlet, [3, 8, 13], False)
    sizes = spy_on_eigh_routes(monkeypatch)
    res = concurrence(stack)
    assert sizes == [(3, 3), (8, 4)]
    for i, rho in enumerate(stack):
        one = concurrence(rho)
        assert one.concurrence == res.concurrence[i]
        assert one.lambdas == tuple(res.lambdas[i])
        assert (one.c_ref_1, one.c_ref_2) == (res.c_ref_1[i], res.c_ref_2[i])
    assert np.all(res.lambdas[~singlet, 3] == 0.0)
    assert np.all(res.lambdas[singlet, 3] > 0.0)


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
    ref1, ref2 = concurrence_ref(bell_phi_plus())
    assert ref1 == pytest.approx(1.0)
    assert ref2 == pytest.approx(-1.0)
    ref1, ref2 = concurrence_ref(np.diag([0, 0, 0, 1.0]).astype(complex))
    assert ref1 <= 0.0 and ref2 <= 0.0


def test_concurrence_result_fields_consistent():
    rho = random_symmetric_rho(np.random.default_rng(77))
    res = concurrence(rho)
    lam = res.lambdas
    assert res.concurrence == pytest.approx(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
    r1, r2 = concurrence_ref(rho)
    assert (res.c_ref_1, res.c_ref_2) == pytest.approx((r1, r2))
