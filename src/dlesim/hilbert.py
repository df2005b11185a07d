"""Qubit/photon product basis, its unit coupling, and batched observables.

The basis spans N two-level qubits (g=0, e=1) and a single cavity mode
truncated at ``n_max`` photons.  Canonical enumeration order is photons
ascending, then the qubit bit string read as a big-endian integer ascending:
index = photons * 2^N + bit code, so |gg...g,0> is always index 0.
"""

from __future__ import annotations

import numbers
from typing import Optional, Sequence

import numpy as np


class HilbertSpace:
    """Enumerated qubit (x) photon space: the basis interface of both pipelines.

    ``dim``, the per-state ``photon_counts`` and ``excitation_counts`` (the
    bare energies), the unit ``coupling`` V and the qubit mask ``bit_table``,
    all read-only arrays over index = photons * 2^N + bit code.  Immutable
    after construction; safe to share between concurrent runs.
    """

    def __init__(self, n_qubits: int, n_max: int):
        if not (isinstance(n_qubits, numbers.Integral) and n_qubits >= 1):
            raise ValueError(f"n_qubits must be an integer >= 1, got {n_qubits!r}")
        if not (isinstance(n_max, numbers.Integral) and n_max >= 0):
            raise ValueError(f"n_max must be an integer >= 0, got {n_max!r}")
        self.n_qubits = n_qubits
        self.n_max = n_max
        self.dim = 2**n_qubits * (n_max + 1)
        self.photon_counts, codes = np.divmod(np.arange(self.dim, dtype=np.int64), 2**n_qubits)
        # dim x n_qubits bits, first qubit the most significant bit of the code
        shifts = np.arange(n_qubits - 1, -1, -1)
        self.bit_table = ((codes[:, None] >> shifts) & 1).astype(np.uint8)
        self.excitation_counts = self.bit_table.sum(axis=1).astype(np.int64)
        self.coupling = _unit_coupling(self.photon_counts, codes, n_qubits)
        self.bit_table.setflags(write=False)
        self.photon_counts.setflags(write=False)
        self.excitation_counts.setflags(write=False)
        self.coupling.setflags(write=False)

    def index_of(self, bits: Sequence[int], photons: int) -> int:
        """Inverse of the enumeration order: photons * 2^N + bit code."""
        bits = tuple(bits)
        if len(bits) != self.n_qubits or any(bit not in (0, 1) for bit in bits):
            raise ValueError(f"need {self.n_qubits} qubit bits of 0 or 1, got {bits}")
        photons = check_integer(photons, "photons", 0, self.n_max)
        code = sum(int(bit) << (self.n_qubits - 1 - q) for q, bit in enumerate(bits))
        return photons * 2**self.n_qubits + code

    def label(self, index: int) -> str:
        """Basis state ``index`` as text, qubits then photons: e.g. |eg,1>."""
        index = self.check_index(index)
        bits = "".join("ge"[bit] for bit in self.bit_table[index])
        return f"|{bits},{self.photon_counts[index]}>"

    def check_index(self, index: int, name: str = "index") -> int:
        """``index`` as an int, or ValueError naming ``name`` unless it is a
        basis index, an integer in [0, dim)."""
        return check_integer(index, name, 0, self.dim - 1)

    def __repr__(self):
        return f"HilbertSpace(n_qubits={self.n_qubits}, n_max={self.n_max})"


def check_integer(value: int, name: str, lo: int, hi: Optional[int] = None) -> int:
    """``value`` as an int, or ValueError naming ``name`` unless it is an
    integer in [lo, hi] (no upper bound when ``hi`` is None); a bool is not."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) and lo <= value and (hi is None or value <= hi)
    ):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def _unit_coupling(photons: np.ndarray, codes: np.ndarray, n_qubits: int) -> np.ndarray:
    """Real symmetric (dim, dim) matrix V of sum_q (s+_q + s-_q)(a + a^dagger).

    ``photons`` and ``codes`` are the photon count and bit code of every
    basis state.  Raising qubit q while removing a photon carries weight
    sqrt(n), and while adding one sqrt(n+1); the lowering entries are the
    transposes.  Moves past the photon cutoff are dropped, and every entry
    is written once.
    """
    n_codes, n_max = 2**n_qubits, photons[-1]
    cols = np.arange(len(codes))
    v = np.zeros((len(codes), len(codes)))
    for q in range(n_qubits):
        bit = 1 << (n_qubits - 1 - q)
        for moved in (photons - 1, photons + 1):
            ok = ((codes & bit) == 0) & (moved >= 0) & (moved <= n_max)
            rows = moved[ok] * n_codes + (codes[ok] | bit)
            v[rows, cols[ok]] = np.sqrt(np.maximum(photons, moved)[ok])
    return v + v.T


def qubit_excitation(
    amplitudes: np.ndarray, space: HilbertSpace, qubit_index: int
) -> np.ndarray:
    """Weight on basis states whose bit at ``qubit_index`` is 1.

    ``amplitudes`` is one state (dim,) or one state per row (S, dim); the
    result has the leading shape.  Each row is reduced on its own, as in
    ``norm``, so its bits do not depend on the batch.  Not renormalized.
    """
    qubit_index = check_integer(qubit_index, "qubit_index", 0, space.n_qubits - 1)
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
