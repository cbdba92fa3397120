"""Pair density construction and Wootters concurrence."""
import numpy as np
import pytest

from dickepair import (
    NumericalFailure,
    PairUndefined,
    SystemParams,
    concurrence,
    concurrence_ref,
    expectation_set,
    oracle_pair_density,
    steady_pair_density,
    two_qubit_rho,
)
from dickepair.steady import ExpectationSet
from helpers import (
    charpoly_concurrence,
    closed_form_pair_entries,
    ladder_pair_density,
    pair_partial_trace,
    random_symmetric_rho,
    random_x_state,
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
    # the moment construction must agree entrywise with tracing out all other
    # qubits of the embedded symmetric state; entries follow the
    # rho_ij = <j|rho|i> convention, hence the transpose
    for n, rabi, det, dip in ((2, 1.3, -2.0, 3.0), (3, 0.9, 1.5, -2.0),
                              (4, 2.2, -4.0, 5.0), (6, 1.7, -3.0, 2.0)):
        rho_ladder = steady_rho(SystemParams(n_qubits=n, rabi=rabi, detuning=det,
                                             dipole_shift=dip))
        via_moments = oracle_pair_density(rho_ladder, n)
        literal = pair_partial_trace(rho_ladder, n)
        assert np.abs(via_moments - literal.T).max() < 1e-10
        # the Dicke-decomposition reduction that reaches N = 50 (criterion 4)
        assert np.abs(ladder_pair_density(rho_ladder, n) - literal).max() < 1e-12


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
