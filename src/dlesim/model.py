"""Physical parameters, square-wave coupling schedule, and the Hamiltonian.

All frequencies are angular (rad/ns) with hbar = 1; times are in ns.  The
qubit/cavity coupling is switched on/off as a square wave: on during the
first half of every period, off during the second half, right-continuous
at the switching instants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import HilbertSpace

TWO_PI = 2.0 * math.pi


class LaplacePoleError(ValueError):
    """Laplace-domain coupling evaluated at (or numerically on) a pole."""


# |1 + exp(-T_s s / 2)| below this signals the odd-harmonic pole family
_POLE_TOL = 1e-9


@dataclass(frozen=True)
class SystemParams:
    """Qubit/cavity frequencies and effective coupling, in rad/ns.

    ``g_eff`` is the product of the bookkeeping expansion parameter and the
    bare coupling amplitude; only the product is physical, so the expansion
    parameter is fixed to 1 internally.
    """

    omega0: float
    omega_c: float
    g_eff: float
    n_qubits: int
    n_max: int

    def __post_init__(self):
        if self.omega0 <= 0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")
        if self.omega_c <= 0:
            raise ValueError(f"omega_c must be > 0, got {self.omega_c}")
        if self.g_eff < 0:
            raise ValueError(f"g_eff must be >= 0, got {self.g_eff}")
        if self.g_eff >= self.omega0 or self.g_eff >= self.omega_c:
            raise ValueError(
                "perturbative validity requires g_eff < omega0 and g_eff < omega_c; "
                f"got g_eff={self.g_eff}, omega0={self.omega0}, omega_c={self.omega_c}"
            )
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    def space(self) -> HilbertSpace:
        return HilbertSpace(self.n_qubits, self.n_max)

    def state_energy(self, excitations: int, photons: int) -> float:
        """Unperturbed energy omega_c*n + omega0*(number of excited qubits)."""
        return self.omega_c * photons + self.omega0 * excitations


@dataclass(frozen=True)
class CouplingSchedule:
    """Square wave: value g0 on [k*T, (2k+1)*T/2), 0 on [(2k+1)*T/2, (k+1)*T)."""

    g0: float
    t_period: float

    def __post_init__(self):
        if self.g0 < 0:
            raise ValueError(f"g0 must be >= 0, got {self.g0}")
        if self.t_period <= 0:
            raise ValueError(f"t_period must be > 0, got {self.t_period}")

    @classmethod
    def from_switching_frequency(cls, g0: float, switching_frequency: float) -> "CouplingSchedule":
        if switching_frequency <= 0:
            raise ValueError(
                f"switching_frequency must be > 0, got {switching_frequency}"
            )
        return cls(g0=g0, t_period=TWO_PI / switching_frequency)

    @property
    def switching_frequency(self) -> float:
        return TWO_PI / self.t_period

    @property
    def half_period(self) -> float:
        return 0.5 * self.t_period

    def is_on(self, segment_index: int) -> bool:
        """Whether the coupling is on during half-period segment ``segment_index``."""
        return segment_index % 2 == 0


def coupling_at(schedule: CouplingSchedule, t: float) -> float:
    """Instantaneous coupling value g(t), right-continuous at switches."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    phase = math.fmod(t, schedule.t_period)
    return schedule.g0 if phase < schedule.half_period else 0.0


def switching_grid(schedule: CouplingSchedule, t_final: float) -> np.ndarray:
    """Half-period segment edges [0, T/2, T, ...] covering [0, t_final].

    The last edge is clipped to t_final; segment k carries coupling g0 when
    k is even and 0 when k is odd.
    """
    if t_final <= 0:
        raise ValueError(f"t_final must be > 0, got {t_final}")
    h = schedule.half_period
    n_full = int(math.floor(t_final / h + 1e-12))
    edges = [i * h for i in range(n_full + 1)]
    if edges[-1] < t_final - 1e-12 * max(1.0, t_final):
        edges.append(t_final)
    else:
        edges[-1] = t_final
    return np.array(edges)


def locate(edges: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment index and local time of each time on the grid ``edges``.

    Right-continuous: a time on an interior edge opens the next segment at
    local time 0, t_final closes the last one, and times outside raise.
    """
    t_final = float(edges[-1])
    inside = (times >= 0) & (times <= t_final * (1 + 1e-12) + 1e-12)
    if not inside.all():
        bad = float(times[~inside][0])
        raise ValueError(f"t={bad} outside [0, {t_final}]")
    k = np.searchsorted(edges, times, side="right") - 1
    k = np.clip(k, 0, len(edges) - 2)
    return k, times - edges[k]


def laplace_coupling(schedule: CouplingSchedule, s: complex) -> complex:
    """Closed-form Laplace transform of the square wave: g0/s / (1 + e^(-T s/2)).

    This is the geometric sum of the step-train representation and equals
    the transform computed directly from the on/off integral; near s = 0 it
    behaves like the duty-cycle average g0/(2s) and for Re(s)*T >> 1 like
    g0/s (the first on half-period dominates).

    Raises :class:`LaplacePoleError` at s = 0 and on the odd-harmonic pole
    family s = 2*pi*i*(2k+1)/T where 1 + e^(-T s/2) vanishes.
    """
    s = complex(s)
    if abs(s) * schedule.t_period < 1e-12:
        raise LaplacePoleError("laplace_coupling pole at s = 0")
    denom = 1.0 + cmath.exp(-0.5 * schedule.t_period * s)
    if abs(denom) < _POLE_TOL:
        raise LaplacePoleError(
            "laplace_coupling pole on the family s = 2*pi*i*(2k+1)/t_period "
            f"(s = {s}, |1 + exp(-T s/2)| = {abs(denom):.3e})"
        )
    return schedule.g0 / s / denom


def coupling_terms(space: HilbertSpace) -> list[tuple[int, int, float]]:
    """Unit-coupling interaction matrix elements as (row, col, weight) triples.

    One triple per undirected pair, enumerated from the qubit-raising side:
    for each state with qubit l in g, raising the qubit while removing a
    photon carries weight sqrt(n) and while adding one carries sqrt(n+1).
    The Hermitian partners are the transposes, added by the caller.
    """
    terms = []
    for col, state in enumerate(space.states):
        n = state.photons
        for q in range(space.n_qubits):
            if state.qubit_bits[q] == 1:
                continue
            raised = list(state.qubit_bits)
            raised[q] = 1
            raised = tuple(raised)
            if n >= 1:
                row = space.index_of(raised, n - 1)
                terms.append((row, col, math.sqrt(n)))
            if n + 1 <= space.n_max:
                row = space.index_of(raised, n + 1)
                terms.append((row, col, math.sqrt(n + 1)))
    return terms


def hamiltonian_matrix(params: SystemParams, coupling_value: float) -> np.ndarray:
    """Full Hamiltonian over the canonical basis for one instantaneous coupling.

    Diagonal: omega_c*n + omega0*(excitation count).  Off-diagonal: the four
    interaction terms (excitation-conserving and counter-rotating), all with
    real elements coupling_value*sqrt(n) or coupling_value*sqrt(n+1); raising
    terms that would leave the truncated space are dropped.  The result is
    exactly real-symmetric by construction.
    """
    if coupling_value < 0:
        raise ValueError(f"coupling_value must be >= 0, got {coupling_value}")
    space = params.space()
    h = np.zeros((space.dim, space.dim), dtype=np.complex128)
    energies = (
        params.omega_c * space.photon_counts + params.omega0 * space.excitation_counts
    )
    np.fill_diagonal(h, energies.astype(np.complex128))
    for row, col, weight in coupling_terms(space):
        h[row, col] += coupling_value * weight
        h[col, row] += coupling_value * weight
    return h
