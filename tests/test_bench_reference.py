"""Exact propagation at N != 2 against the benchmark's independent reference.

bench/checks.py builds the Hamiltonian from the physics, without importing
dlesim, and advances the state with ``scipy.linalg.expm`` period maps.  The
benchmark's workloads run it at N = 2 only; here it checks one, three and
four qubits, through the observables the ``exact`` CSV writes.
"""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from dlesim.model import TWO_PI, CouplingSchedule, SystemParams
from dlesim.propagator import propagate

BENCH = Path(__file__).resolve().parents[1] / "bench"
PAPER_POINT = {"omega0_ghz": 5.439, "omega_c_ghz": 4.343, "g_eff_ghz": 0.050, "n_max": 2}


@pytest.fixture(scope="module")
def checks():
    """bench/checks.py's namespace, read without writing into bench/."""
    pytest.importorskip("scipy.linalg")
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))  # checks.py imports its neighbour workloads.py
        patch.setattr(sys, "dont_write_bytecode", True)
        return runpy.run_path(str(BENCH / "checks.py"))


@pytest.mark.parametrize("ratio", [2.5, 20.0])
@pytest.mark.parametrize("n_qubits, t_final", [(1, 5.0), (3, 3.0), (4, 2.0)])
def test_exact_observables_match_the_bench_reference(checks, n_qubits, t_final, ratio):
    config = dict(PAPER_POINT, n_qubits=n_qubits, switch_ratio=ratio, qubit_index=n_qubits - 1)
    params = SystemParams(
        omega0=TWO_PI * config["omega0_ghz"],
        omega_c=TWO_PI * config["omega_c_ghz"],
        g_eff=TWO_PI * config["g_eff_ghz"],
        n_qubits=n_qubits,
        n_max=config["n_max"],
    )
    schedule = CouplingSchedule.from_switching_frequency(ratio * params.omega0)
    traj = propagate(params, schedule, t_final, 0.01)

    states_out, states = checks["reference_states"](config, traj.times.tolist())
    p_reference = checks["excitation"](states_out, states, config)
    photons = np.array([n for _, n in states], dtype=float)
    assert np.max(np.abs(traj.excitation_probabilities(n_qubits - 1) - p_reference)) <= 1e-12
    assert np.max(np.abs(traj.photon_expectations() - np.abs(states_out) ** 2 @ photons)) <= 1e-12
