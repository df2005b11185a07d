"""Qubit/photon product basis, its unit coupling, and batched observables.

The basis spans N two-level qubits (g=0, e=1) and a single cavity mode
truncated at ``n_max`` photons.  Canonical enumeration order is photons
ascending, then the qubit bit string read as a big-endian integer ascending:
index = photons * 2^N + bit code, so |gg...g,0> is always index 0.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class BasisState:
    """One (qubit bit string, photon count) configuration."""

    qubit_bits: tuple[int, ...]
    photons: int

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.qubit_bits):
            raise ValueError(f"qubit_bits must be 0/1, got {self.qubit_bits}")
        if self.photons < 0:
            raise ValueError(f"photons must be >= 0, got {self.photons}")

    def label(self) -> str:
        bits = "".join("e" if b else "g" for b in self.qubit_bits)
        return f"|{bits},{self.photons}>"


def enumerate_basis(n_qubits: int, n_max: int) -> tuple[BasisState, ...]:
    """All basis states of ``n_qubits`` qubits and up to ``n_max`` photons.

    Returns exactly ``2**n_qubits * (n_max + 1)`` states, photons-major,
    bit-integer-minor (first qubit is the most significant bit).
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    states = []
    for photons in range(n_max + 1):
        for code in range(2**n_qubits):
            bits = tuple((code >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits))
            states.append(BasisState(bits, photons))
    return tuple(states)


class HilbertSpace:
    """Enumerated qubit (x) photon space: the basis interface of both pipelines.

    ``dim``, the per-state ``photon_counts`` and ``excitation_counts`` (the
    bare energies), the unit ``coupling`` V and the qubit mask ``bit_table``.
    Immutable after construction; safe to share between concurrent runs.
    """

    def __init__(self, n_qubits: int, n_max: int):
        self.n_qubits = n_qubits
        self.n_max = n_max
        self.states = enumerate_basis(n_qubits, n_max)
        self.dim = len(self.states)
        # dim x n_qubits bit table and photon counts, for vectorized observables
        self.bit_table = np.array([s.qubit_bits for s in self.states], dtype=np.uint8)
        self.photon_counts = np.array([s.photons for s in self.states], dtype=np.int64)
        self.excitation_counts = self.bit_table.sum(axis=1).astype(np.int64)
        self.coupling = _unit_coupling(n_qubits, n_max)
        self.bit_table.setflags(write=False)
        self.photon_counts.setflags(write=False)
        self.excitation_counts.setflags(write=False)
        self.coupling.setflags(write=False)

    def index_of(self, bits: Sequence[int], photons: int) -> int:
        """Inverse of the enumeration order: photons * 2^N + bit code."""
        bits = tuple(bits)
        if len(bits) != self.n_qubits or any(bit not in (0, 1) for bit in bits):
            raise ValueError(f"need {self.n_qubits} qubit bits of 0 or 1, got {bits}")
        if not (isinstance(photons, numbers.Integral) and 0 <= photons <= self.n_max):
            raise ValueError(f"photons must be an integer in [0, {self.n_max}], got {photons!r}")
        code = sum(int(bit) << (self.n_qubits - 1 - q) for q, bit in enumerate(bits))
        return int(photons) * 2**self.n_qubits + code

    def index_of_state(self, state: BasisState) -> int:
        return self.index_of(state.qubit_bits, state.photons)

    def ground_index(self) -> int:
        return 0

    def __eq__(self, other):
        return (
            isinstance(other, HilbertSpace)
            and self.n_qubits == other.n_qubits
            and self.n_max == other.n_max
        )

    def __hash__(self):
        return hash((self.n_qubits, self.n_max))

    def __repr__(self):
        return f"HilbertSpace(n_qubits={self.n_qubits}, n_max={self.n_max})"


def _unit_coupling(n_qubits: int, n_max: int) -> np.ndarray:
    """Real symmetric (dim, dim) matrix V of sum_q (s+_q + s-_q)(a + a^dagger).

    Raising qubit q while removing a photon carries weight sqrt(n), and while
    adding one sqrt(n+1); the lowering entries are the transposes.  Moves
    past the photon cutoff are dropped, and every entry is written once.
    """
    n_codes = 2**n_qubits
    dim = n_codes * (n_max + 1)
    cols = np.arange(dim)
    photons, codes = np.divmod(cols, n_codes)
    v = np.zeros((dim, dim))
    for q in range(n_qubits):
        bit = 1 << (n_qubits - 1 - q)
        for moved in (photons - 1, photons + 1):
            ok = ((codes & bit) == 0) & (moved >= 0) & (moved <= n_max)
            rows = moved[ok] * n_codes + (codes[ok] | bit)
            v[rows, cols[ok]] = np.sqrt(np.maximum(photons, moved)[ok])
    return v + v.T


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the canonical basis of ``space``.

    Physical states carry squared norm 1 within 1e-9; unnormalized vectors
    (truncated perturbative states) are allowed and documented as such.
    """

    amplitudes: np.ndarray
    space: HilbertSpace = field(compare=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.space.dim,):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match space dim {self.space.dim}"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(norm(self.amplitudes))


def basis_vector(space: HilbertSpace, index: int) -> StateVector:
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps, space)


def ground_state(space: HilbertSpace) -> StateVector:
    """|gg...g,0>, the canonical first basis state."""
    return basis_vector(space, 0)


def qubit_excitation(
    amplitudes: np.ndarray, space: HilbertSpace, qubit_index: int
) -> np.ndarray:
    """Weight on basis states whose bit at ``qubit_index`` is 1.

    ``amplitudes`` is one state (dim,) or one state per row (S, dim); the
    result has the leading shape.  Each row is reduced on its own, as in
    ``norm``, so its bits do not depend on the batch.  Not renormalized.
    """
    if not 0 <= qubit_index < space.n_qubits:
        raise ValueError(
            f"qubit_index={qubit_index} outside [0, {space.n_qubits - 1}]"
        )
    weights = np.abs(amplitudes) ** 2
    weights *= space.bit_table[:, qubit_index]
    return weights.sum(axis=-1)


def norm(amplitudes: np.ndarray) -> np.ndarray:
    """sqrt(sum |a|^2) of one state (dim,) or of each row of (S, dim)."""
    return np.sqrt(np.sum(np.abs(amplitudes) ** 2, axis=-1))


def photon_expectation(amplitudes: np.ndarray, space: HilbertSpace) -> np.ndarray:
    """Photon number weighted by amplitude weight, for (dim,) or (S, dim)."""
    weights = np.abs(amplitudes) ** 2
    weights *= space.photon_counts
    return weights.sum(axis=-1)
