"""Property tests of the exact propagator over random physical parameters."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from dlesim.model import TWO_PI, CouplingSchedule, SystemParams
from dlesim.propagator import propagate
from test_propagator import walk_oracle

frequencies = st.floats(min_value=TWO_PI * 2.0, max_value=TWO_PI * 8.0)


@settings(max_examples=40, deadline=None)
@given(
    omega0=frequencies,
    omega_c=frequencies,
    g_fraction=st.floats(min_value=0.0, max_value=0.1),
    ratio=st.floats(min_value=1.5, max_value=30.0),
    n_max=st.integers(min_value=1, max_value=3),
    t_final=st.floats(min_value=0.05, max_value=3.0),
    n_samples=st.integers(min_value=1, max_value=200),
)
def test_unitary_and_matches_walk_oracle(
    omega0, omega_c, g_fraction, ratio, n_max, t_final, n_samples
):
    g = g_fraction * min(omega0, omega_c)
    params = SystemParams(
        omega0=omega0, omega_c=omega_c, g_eff=g, n_qubits=2, n_max=n_max
    )
    schedule = CouplingSchedule.from_switching_frequency(g, ratio * omega0)
    sample_dt = t_final / n_samples
    traj = propagate(params, schedule, t_final, sample_dt)
    assert np.max(np.abs(traj.norms() - 1.0)) <= 1e-12
    times, amplitudes = walk_oracle(params, schedule, t_final, sample_dt)
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.amplitudes - amplitudes)) <= 1e-12
