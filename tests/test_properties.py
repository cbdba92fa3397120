"""Property tests of the pair-matrix invariants over random operating points."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dickepair import SystemParams, concurrence, steady_pair_density

SWAP = np.eye(4)[[0, 2, 1, 3]]

operating_points = st.builds(
    lambda n, log_pump, detuning, dipole: SystemParams(
        n_qubits=n, rabi=1.0, detuning=detuning, dipole_shift=dipole,
    ).with_pump(10.0 ** log_pump),
    n=st.integers(2, 200),
    log_pump=st.floats(-4.0, np.log10(20.0)),
    detuning=st.floats(-20.0, 20.0),
    dipole=st.floats(-20.0, 20.0),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(params=operating_points, precision=st.sampled_from(["standard", "extended"]))
def test_pair_density_invariants(params, precision):
    rho = steady_pair_density(params, precision)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-9
    assert np.array_equal(SWAP @ rho @ SWAP, rho)
    res = concurrence(rho)
    assert 0.0 <= res.concurrence <= 1.0
