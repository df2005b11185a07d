"""Exact piecewise-constant propagation of the switched-coupling dynamics.

The Hamiltonian, restricted to the start's ``HilbertSpace.sector``, is
constant over each half-period: diagonal with the coupling off, so an off
segment is the free phase exp(-i E tau), and with it on the state advances
by exact exponentials from one eigendecomposition.  Samples come from
``model.SegmentWalk``'s segment starts in one step each: no integrator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hilbert import HilbertSpace, check_number, norm, photon_expectation, qubit_excitation
from .model import (
    CouplingSchedule,
    SegmentWalk,
    SystemParams,
    bare_energies,
    hamiltonian_matrix,
    row_products,
    switching_grid,
)

# Complex numbers in one evaluation batch (samples x states): 256 kB.
_BATCH_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class Trajectory:
    """Sampled exact evolution: times (ns) and amplitudes, one row per sample."""

    times: np.ndarray
    amplitudes: np.ndarray
    space: HilbertSpace

    def __post_init__(self):
        self.times.setflags(write=False)
        self.amplitudes.setflags(write=False)

    def norms(self) -> np.ndarray:
        return norm(self.amplitudes)

    def excitation_probabilities(self, qubit_index: int) -> np.ndarray:
        return qubit_excitation(self.amplitudes, self.space, qubit_index)

    def photon_expectations(self) -> np.ndarray:
        return photon_expectation(self.amplitudes, self.space)


class _SegmentPropagator:
    """Eigendecomposition of one constant Hermitian Hamiltonian, reused across segments."""

    def __init__(self, h: np.ndarray):
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(h)

    def advance(self, psis: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Rows exp(-i*H*taus[s]) @ psis[s], shape (S, dim), for states (S, dim)."""
        rotated = row_products(psis, self.eigenvectors.conj())
        rotated *= np.exp(-1j * np.outer(taus, self.eigenvalues))
        return row_products(rotated, self.eigenvectors.T)


def sample_times(t_final: float, sample_dt: float) -> np.ndarray:
    """Multiples of sample_dt in [0, t_final], with t_final always included."""
    check_number("t_final", t_final, above=0)
    check_number("sample_dt", sample_dt, above=0)
    n = int(math.floor(t_final / sample_dt + 1e-9))
    times = np.arange(n + 1, dtype=float) * sample_dt
    times = times[times <= t_final * (1 + 1e-12)]
    times[-1] = min(float(times[-1]), t_final)
    if times[-1] < t_final * (1 - 1e-12):
        times = np.append(times, t_final)
    return times


def propagate(
    params: SystemParams,
    schedule: CouplingSchedule,
    t_final: float,
    sample_dt: float,
    initial: int = 0,
) -> Trajectory:
    """Exact evolution from basis state ``initial``, sampled at multiples of sample_dt."""
    space = params.space()
    states = space.sector(initial)
    first = (states == initial).astype(np.complex128)
    edges = switching_grid(schedule, t_final)
    times = sample_times(t_final, sample_dt)

    coupled = _SegmentPropagator(hamiltonian_matrix(params, states))
    energies = bare_energies(params, space)[states]
    # Transposed on map; one Newton-Schulz step keeps each power unitary, as
    # eigh's eigenvectors are orthonormal to ~1e-15, which 1e4 products amplify.
    half_periods = np.full(len(states), schedule.half_period)
    on_map = _unitary(coupled.advance(np.eye(len(states)), half_periods))
    walk = SegmentWalk(schedule, edges, first, on_map, energies, _unitary)

    def inside(on, tau, psi, step):
        psi[~on] *= np.exp(-1j * np.outer(tau[~on], energies))
        psi[step] = coupled.advance(psi[step], tau[step])
        return psi

    batch = max(1, _BATCH_ELEMENTS // len(states))
    out = walk.sample(times, batch, inside, states, space.dim)
    return Trajectory(times=times, amplitudes=out, space=space)


def _unitary(m: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step from a nearly unitary m towards the unitary one."""
    return m @ (1.5 * np.eye(len(m)) - 0.5 * m.conj().T @ m)


def convergence_check(
    params: SystemParams,
    schedule: CouplingSchedule,
    t_final: float,
    qubit_index: int = 0,
) -> float:
    """sup|P(n_max) - P(n_max + 1)| over [0, t_final]: how much one qubit's
    excitation probability moves when the photon cutoff is raised by one,
    sampled every t_final / 1000."""
    check_number("n_max", params.n_max, int, at_least=1)
    check_number("t_final", t_final, above=0)
    check_number("qubit_index", qubit_index, int, within=(0, params.n_qubits - 1))
    bigger = replace(params, n_max=params.n_max + 1)
    p_base, p_bigger = (
        propagate(p, schedule, t_final, t_final / 1000.0).excitation_probabilities(qubit_index)
        for p in (params, bigger)
    )
    return float(np.max(np.abs(p_base - p_bigger)))
