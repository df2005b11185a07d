"""Property tests of both pipelines over random physical parameters."""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from dlesim.engine import run_to_order
from dlesim.hilbert import HilbertSpace, qubit_excitation
from dlesim.model import TWO_PI, CouplingSchedule, SystemParams, bare_energies
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


def swap_permutation(space, a, b):
    """Index map of the basis under exchange of qubits a and b."""
    perm = np.empty(space.dim, dtype=int)
    for i, state in enumerate(space.states):
        bits = list(state.qubit_bits)
        bits[a], bits[b] = bits[b], bits[a]
        perm[i] = space.index_of(bits, state.photons)
    return perm


@settings(max_examples=30, deadline=None)
@given(
    n_qubits=st.integers(min_value=2, max_value=5),
    n_max=st.integers(min_value=0, max_value=4),
    omega0=frequencies,
    omega_c=frequencies,
)
def test_coupling_and_energies_invariant_under_qubit_swaps(
    n_qubits, n_max, omega0, omega_c
):
    params = SystemParams(
        omega0=omega0, omega_c=omega_c, g_eff=0.0, n_qubits=n_qubits, n_max=n_max
    )
    space = HilbertSpace(n_qubits, n_max)
    energies = bare_energies(params, space)
    for a, b in itertools.combinations(range(n_qubits), 2):
        perm = swap_permutation(space, a, b)
        assert np.array_equal(space.coupling[np.ix_(perm, perm)], space.coupling)
        assert np.array_equal(energies[perm], energies)


@settings(max_examples=25, deadline=None)
@given(
    omega0=frequencies,
    omega_c=frequencies,
    g_fraction=st.floats(min_value=0.0, max_value=0.1),
    ratio=st.floats(min_value=1.5, max_value=30.0),
    n_qubits=st.integers(min_value=2, max_value=3),
    n_max=st.integers(min_value=0, max_value=2),
    order=st.integers(min_value=1, max_value=3),
)
def test_every_qubit_excited_alike(
    omega0, omega_c, g_fraction, ratio, n_qubits, n_max, order
):
    # identical qubits on one resonator, started in the ground state
    g = g_fraction * min(omega0, omega_c)
    params = SystemParams(
        omega0=omega0, omega_c=omega_c, g_eff=g, n_qubits=n_qubits, n_max=n_max
    )
    schedule = CouplingSchedule.from_switching_frequency(g, ratio * omega0)
    t_final = 1.0
    traj = propagate(params, schedule, t_final, t_final / 20)
    amps = run_to_order(params, schedule, order, t_final).amplitudes_at(traj.times)
    for amplitudes in (traj.amplitudes, amps):
        probabilities = np.array(
            [qubit_excitation(amplitudes, traj.space, q) for q in range(n_qubits)]
        )
        assert np.ptp(probabilities, axis=0).max() <= 1e-12
