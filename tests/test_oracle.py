"""Dense master-equation solver: operators, Liouvillian, stationary states."""
import math

import numpy as np
import pytest

from dickepair import (
    DegenerateNullSpace,
    PairUndefined,
    ParamBatch,
    SizeExceeded,
    SystemParams,
    build_liouvillian,
    oracle_pair_density,
    steady_state_null_space,
)
from dickepair import cli, oracle
from dickepair.oracle import density_expectation_set
from helpers import NotConverged, dense_ladder_steady_state, evolve_to_steady, steady_rho


@pytest.mark.parametrize("n", range(1, 17))
def test_su2_commutators(n):
    sp, sz, eye, spsm = oracle._fixed_parts(n)[:4]
    sm = sp.T
    assert np.abs(sz @ sp - sp @ sz - sp).max() < 1e-12
    assert np.abs(sz @ sm - sm @ sz + sm).max() < 1e-12
    assert np.abs(sp @ sm - sm @ sp - 2 * sz).max() < 1e-12
    assert np.array_equal(spsm, sp @ sm)
    assert np.array_equal(eye, np.eye(n + 1)) and sp.shape == sz.shape == (n + 1, n + 1)


def test_size_guard():
    with pytest.raises(SizeExceeded):
        build_liouvillian(SystemParams(n_qubits=17, rabi=1.0))
    with pytest.raises(SizeExceeded):
        density_expectation_set(np.eye(18) / 18)


def test_liouvillian_preserves_trace():
    liouv = build_liouvillian(SystemParams(n_qubits=3, rabi=1.2, detuning=-2.0,
                                           dipole_shift=1.0))
    dim = 4
    trace_row = np.zeros(dim * dim, dtype=complex)
    trace_row[:: dim + 1] = 1.0
    assert np.abs(trace_row @ liouv).max() < 1e-12


def test_liouvillian_preserves_hermiticity():
    rng = np.random.default_rng(3)
    params = SystemParams(n_qubits=4, rabi=0.8, detuning=1.0, dipole_shift=-2.0)
    liouv = build_liouvillian(params)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    rho = g + g.conj().T
    drho = (liouv @ rho.reshape(-1)).reshape(5, 5)
    assert abs(np.trace(drho)) < 1e-12
    assert np.abs(drho - drho.conj().T).max() < 1e-12


@pytest.mark.parametrize("n, rabi, det, dip", [
    (1, 0.7, 0.5, 0.0), (3, 1.2, -2.0, 1.0), (8, 2.5, -6.0, 3.0), (16, 4.0, 1.0, -2.0),
])
def test_dense_ladder_solve_matches_null_space(n, rabi, det, dip):
    # the test-side solver that serves as the reference beyond N = 16
    params = SystemParams(n_qubits=n, rabi=rabi, detuning=det, dipole_shift=dip)
    rho, residual = dense_ladder_steady_state(params)
    assert residual <= 1e-10
    assert np.abs(rho - steady_rho(params)).max() < 1e-10


def test_single_decayed_qubit():
    liouv = build_liouvillian(SystemParams(n_qubits=1, rabi=0.0))
    rho = steady_state_null_space(liouv)
    assert rho == pytest.approx(np.diag([1.0, 0.0]), abs=1e-12)


def test_spectrum_unique_zero_mode():
    liouv = build_liouvillian(SystemParams(n_qubits=2, rabi=1.1, detuning=-0.7,
                                           dipole_shift=2.3))
    ev = np.linalg.eigvals(liouv)
    assert (np.abs(ev) < 1e-10).sum() == 1
    assert np.sort(ev.real)[-2] < -1e-10


def test_null_space_density_axioms():
    for params in (
        SystemParams(n_qubits=2, rabi=1.0),
        SystemParams(n_qubits=6, rabi=2.5, detuning=-8.0, dipole_shift=5.0),
        SystemParams(n_qubits=12, rabi=4.0, detuning=2.0, dipole_shift=-1.0),
    ):
        rho = steady_state_null_space(build_liouvillian(params))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-9


def test_degenerate_null_space_detected():
    zero = np.zeros((4, 4), dtype=complex)
    with pytest.raises(DegenerateNullSpace):
        steady_state_null_space(zero)
    # one degenerate matrix fails the whole stack
    good = build_liouvillian(SystemParams(n_qubits=1, rabi=0.7))
    with pytest.raises(DegenerateNullSpace):
        steady_state_null_space(np.stack([good, zero]))


def random_batch(n, size, seed):
    rng = np.random.default_rng(seed)
    rabi = rng.uniform(0.2, 5.0, size)
    rabi[0] = 0.0  # allowed in the dense oracle
    return ParamBatch(n, rabi=rabi, detuning=rng.uniform(-10.0, 2.0, size),
                      dipole_shift=rng.uniform(-5.0, 5.0, size))


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_liouvillian_stack_rows_are_single_point_builds(n):
    batch = random_batch(n, 7, seed=n)
    stack = build_liouvillian(batch)
    dim2 = (n + 1) ** 2
    assert stack.shape == (7, dim2, dim2)
    for i in range(7):
        assert np.array_equal(stack[i], build_liouvillian(batch.point(i)))


def test_liouvillian_parts_are_built_once_per_size(monkeypatch):
    krons = []
    real_kron = oracle._kron

    def spy_kron(a, b):
        krons.append(max(a.ndim, b.ndim))
        return real_kron(a, b)

    def builds():
        return oracle._fixed_parts.cache_info().misses

    monkeypatch.setattr(oracle, "_kron", spy_kron)
    oracle._fixed_parts.cache_clear()
    batch = random_batch(3, 4, seed=60)
    first = build_liouvillian(batch)
    # the first build at a size makes the operators and the three dissipator terms
    assert builds() == 1 and krons.count(2) == 3
    krons.clear()
    expected, expected_row = first.tobytes(), first[2].tobytes()
    second = build_liouvillian(batch)
    # a second build makes only the two Hamiltonian terms, on the (P, d, d) stack
    assert builds() == 1 and krons == [3, 3]
    assert second.tobytes() == expected
    # the moment readout traces against the same cached operators
    states = steady_state_null_space(second)
    moments = density_expectation_set(states)
    single = density_expectation_set(states[2])
    assert builds() == 1
    # the same bits as tracing against freshly built ladder operators
    s_plus = np.zeros((4, 4))
    for k in range(3):
        s_plus[k + 1, k] = math.sqrt((3 - k) * (k + 1))
    s_z = np.diag([k - 1.5 for k in range(4)])
    traced = np.trace(states @ (s_plus @ s_z), axis1=1, axis2=2)
    assert moments.s_plus_sz.tobytes() == traced.tobytes()
    assert single.s_z2 == np.trace(states[2:] @ (s_z @ s_z), axis1=1, axis2=2)[0].real
    density_expectation_set(np.eye(5) / 5)
    density_expectation_set(np.eye(5) / 5)
    assert builds() == 2

    cached = oracle._fixed_parts(3)
    assert [arr.tobytes() for arr in cached[:2]] == [s_plus.tobytes(), s_z.tobytes()]
    assert not any(arr.flags.writeable for arr in cached)
    for arr in cached + (first,):
        assert not np.shares_memory(second, arr)
    # writing into a result leaves the next stack and single-point builds alone
    first[...] = 7.0
    second[...] = 7.0
    assert build_liouvillian(batch).tobytes() == expected
    assert build_liouvillian(batch.point(2)).tobytes() == expected_row


@pytest.mark.parametrize("n", [2, 3, 6])
def test_stacked_states_and_readouts_match_per_matrix(n):
    batch = random_batch(n, 9, seed=10 + n)
    states = steady_state_null_space(build_liouvillian(batch))
    moments = density_expectation_set(states)
    pairs = oracle_pair_density(states, n)
    assert states.shape == (9, n + 1, n + 1) and pairs.shape == (9, 4, 4)
    for i in range(9):
        rho = steady_state_null_space(build_liouvillian(batch.point(i)))
        assert np.abs(states[i] - rho).max() <= 1e-14
        single = density_expectation_set(rho)
        for field in ("s_plus", "s_z", "s_z2", "s_plus_sz", "s_plus2", "s_plus_s_minus"):
            assert abs(getattr(moments, field)[i] - getattr(single, field)) <= 1e-14, field
        assert np.abs(pairs[i] - oracle_pair_density(rho, n)).max() <= 1e-14


def test_singular_trace_system_falls_back_on_its_row_only():
    # null vector vec(diag(1, 0)), but with the first row replaced by the
    # trace row the system is exactly singular, so the solve raises
    odd = np.zeros((4, 4), dtype=complex)
    odd[0, 1] = odd[2, 2] = odd[3, 3] = 1.0
    good = build_liouvillian(SystemParams(n_qubits=1, rabi=0.7, detuning=0.3))
    states = steady_state_null_space(np.stack([good, odd]))
    assert np.abs(states[0] - steady_state_null_space(good)).max() <= 1e-14
    assert states[1] == pytest.approx(np.diag([1.0, 0.0]), abs=1e-12)
    assert steady_state_null_space(odd) == pytest.approx(np.diag([1.0, 0.0]), abs=1e-12)


def svd_spy(monkeypatch):
    """Record the shape and compute_uv of every np.linalg.svd call."""
    calls, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def constrained_inverse_bound(liouv):
    """1 / ||C^-1||_F of L with its first row replaced by the trace row."""
    dim = math.isqrt(liouv.shape[-1])
    constrained = liouv.astype(complex)
    constrained[..., 0, :] = 0.0
    constrained[..., 0, :: dim + 1] = 1.0
    return 1.0 / np.linalg.norm(np.linalg.inv(constrained), axis=(-2, -1))


def with_singular_values(svals, seed):
    """A complex matrix with the given singular values and random singular vectors."""
    rng = np.random.default_rng(seed)
    size = len(svals)
    u, v = (np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))[0]
            for _ in range(2))
    return (u * np.asarray(svals)) @ v.conj().T


def test_oracle_check_grid_takes_no_svd(monkeypatch):
    calls, solved = [], []
    solve = cli.steady_state_null_space

    def spied_solve(liouv):
        solved.append(len(liouv))
        with monkeypatch.context() as patch:
            spied = svd_spy(patch)
            states = solve(liouv)
        calls.extend(spied)
        return states

    monkeypatch.setattr(cli, "steady_state_null_space", spied_solve)
    assert cli.main(["oracle-check", "--n", "2", "--n", "3", "--n", "4", "--n", "6",
                     "--out", "-"]) == 0
    assert sum(solved) == 4 * 75 and calls == []


@pytest.mark.parametrize("n", [9, 16])
def test_larger_random_batches_take_no_svd(monkeypatch, n):
    calls = svd_spy(monkeypatch)
    states = steady_state_null_space(build_liouvillian(random_batch(n, 3, seed=30 + n)))
    assert calls == [] and states.shape == (3, n + 1, n + 1)


@pytest.mark.parametrize("second", [1e-12, 1e-11, 9.9e-11, 1.01e-10, 1e-9, 1e-8, 1e-7])
@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
def test_uncertified_matrices_keep_the_singular_value_rule(monkeypatch, second, stacked):
    # d = 4: 16 x 16, the size of an N = 3 Liouvillian; sigma_n = 0
    odd = with_singular_values([5.0] * 8 + [1.0] * 6 + [second, 0.0], seed=7)
    physical = build_liouvillian(SystemParams(n_qubits=3, rabi=1.3, detuning=-2.0,
                                              dipole_shift=1.5))
    liouv = np.stack([physical, odd]) if stacked else odd
    expected = np.linalg.svd(odd, compute_uv=False)[-2] < 1e-10
    calls = svd_spy(monkeypatch)
    if expected:
        with pytest.raises(DegenerateNullSpace):
            steady_state_null_space(liouv)
    else:
        states = steady_state_null_space(liouv)
        if stacked:
            assert np.abs(states[0] - steady_state_null_space(physical)).max() <= 1e-14
    # sigma_{n-1} <= 1e-7 is far under the certified floor, so only the odd
    # matrix takes the values-only pass; the physical row is certified
    assert calls[0] == ((1, 16, 16), False)
    assert (second < 1e-10) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_inverse_bound_lies_under_the_second_singular_value(n):
    dim2 = (n + 1) ** 2
    rng = np.random.default_rng(40 + n)
    random = rng.normal(size=(20, dim2, dim2)) + 1j * rng.normal(size=(20, dim2, dim2))
    for liouv in (random, build_liouvillian(random_batch(n, 20, seed=50 + n))):
        second = np.linalg.svd(liouv, compute_uv=False)[:, -2]
        assert (constrained_inverse_bound(liouv) <= second * (1.0 + 1e-9)).all()


def test_decay_from_excited_state():
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    rho = evolve_to_steady(SystemParams(n_qubits=1, rabi=0.0), t_max=12.0, dt=0.005,
                           rho0=rho0)
    assert rho == pytest.approx(np.diag([1.0, 0.0]), abs=1e-8)


def test_evolution_reaches_null_space():
    params = SystemParams(n_qubits=2, rabi=1.3, detuning=-1.0, dipole_shift=0.5)
    direct = steady_state_null_space(build_liouvillian(params))
    evolved = evolve_to_steady(params, t_max=50.0, dt=0.01)
    assert np.linalg.norm(evolved - direct) < 1e-6


def test_evolution_reaches_null_space_random_points():
    rng = np.random.default_rng(17)
    for k in range(10):
        params = SystemParams(
            n_qubits=2 if k % 2 == 0 else 4,
            rabi=float(rng.uniform(0.5, 3.0)),
            detuning=float(rng.uniform(-4.0, 4.0)),
            dipole_shift=float(rng.uniform(-4.0, 4.0)),
        )
        direct = steady_state_null_space(build_liouvillian(params))
        evolved = evolve_to_steady(params, t_max=80.0, dt=0.02)
        assert np.linalg.norm(evolved - direct) < 1e-6


def test_evolution_step_size_converged():
    params = SystemParams(n_qubits=2, rabi=0.9)
    a = evolve_to_steady(params, t_max=40.0, dt=0.02)
    b = evolve_to_steady(params, t_max=40.0, dt=0.01)
    assert np.abs(a - b).max() < 1e-6


def test_evolution_preserves_trace():
    params = SystemParams(n_qubits=3, rabi=1.7, detuning=2.0, dipole_shift=-1.0)
    for t_max in (35.0, 45.0, 60.0):
        rho = evolve_to_steady(params, t_max=t_max, dt=0.01)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)


def test_not_converged_flagged():
    params = SystemParams(n_qubits=2, rabi=1.0)
    with pytest.raises(NotConverged):
        evolve_to_steady(params, t_max=0.4, dt=0.01)


def test_pair_density_of_ground_state():
    rho_ladder = np.zeros((5, 5), dtype=complex)
    rho_ladder[0, 0] = 1.0
    rho = oracle_pair_density(rho_ladder, 4)
    assert rho == pytest.approx(np.diag([0, 0, 0, 1.0]), abs=1e-14)


def test_pair_density_shape_guard():
    with pytest.raises(ValueError):
        oracle_pair_density(np.eye(3) / 3, 4)


def test_readouts_reject_a_non_square_state():
    with pytest.raises(ValueError, match=r"state must be a square matrix or a stack of them"):
        density_expectation_set(np.zeros((3, 4)))
    with pytest.raises(ValueError, match=r"state must be a square matrix or a stack of them"):
        oracle_pair_density(np.zeros((2, 3, 4)), 2)


def test_null_space_rejects_a_size_that_is_not_a_square():
    # a 5 x 5 matrix cannot be the Liouvillian of a d x d state
    with pytest.raises(ValueError, match=r"Liouvillian must be square with square size"):
        steady_state_null_space(np.eye(5))


def test_pair_density_needs_two_qubits():
    with pytest.raises(PairUndefined):
        oracle_pair_density(np.diag([1.0, 0.0]), 1)


def test_pair_density_axioms_from_evolved_state():
    params = SystemParams(n_qubits=4, rabi=2.0, detuning=-3.0, dipole_shift=2.0)
    rho_ladder = evolve_to_steady(params, t_max=60.0, dt=0.01)
    rho = oracle_pair_density(rho_ladder, 4)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.abs(rho - rho.conj().T).max() < 1e-10
