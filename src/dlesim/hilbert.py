"""Qubit/photon product basis, its unit coupling, and batched observables.

The basis spans N two-level qubits (g=0, e=1) and a single cavity mode
truncated at ``n_max`` photons.  Canonical enumeration order is photons
ascending, then the qubit bit string read as a big-endian integer ascending:
index = photons * 2^N + bit code, so |gg...g,0> is always index 0.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np


class HilbertSpace:
    """Enumerated qubit (x) photon space: the basis interface of both pipelines.

    ``dim``, the per-state ``photon_counts`` and ``excitation_counts`` (the
    bare energies), the unit ``coupling`` V and the qubit mask ``bit_table``,
    all read-only arrays over index = photons * 2^N + bit code.  Immutable
    after construction; safe to share between concurrent runs.
    """

    def __init__(self, n_qubits: int, n_max: int):
        self.n_qubits = n_qubits = check_number("n_qubits", n_qubits, int, at_least=1)
        self.n_max = n_max = check_number("n_max", n_max, int, at_least=0)
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
        """Inverse of the enumeration order: photons * 2^N + bit code.

        Each bit is an integer 0 or 1 (numpy integers too); a bool is not."""
        bits = tuple(bits)
        if len(bits) != self.n_qubits or not all(
            isinstance(bit, numbers.Integral) and not isinstance(bit, bool) and bit in (0, 1)
            for bit in bits
        ):
            raise ValueError(f"need {self.n_qubits} qubit bits of 0 or 1, got {bits}")
        photons = check_number("photons", photons, int, within=(0, self.n_max))
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
        return check_number(name, index, int, within=(0, self.dim - 1))

    def __repr__(self):
        return f"HilbertSpace(n_qubits={self.n_qubits}, n_max={self.n_max})"


def check_number(name: str, value, kind: type = float, above=None, at_least=None, within=None):
    """``value``, as an int when ``kind`` is int, or ValueError naming ``name``
    unless it is of ``kind`` and in range.

    ``kind`` float takes a finite number, int an integer; a bool is neither.
    The range is ``> above``, ``>= at_least`` or ``in within``, a closed
    [lo, hi].  The one number check of the library and the config.
    """
    try:
        ok = not isinstance(value, bool) and (
            isinstance(value, numbers.Integral) if kind is int
            else isinstance(value, numbers.Real) and math.isfinite(value)
        )
    except OverflowError:  # an integer past the float range
        ok = False
    if not ok:
        kind_text = "an integer" if kind is int else "a finite number"
        raise ValueError(f"{name} must be {kind_text}, got {_shown(value, repr(value))}")
    bound = None
    if above is not None and not value > above:
        bound = f"> {above}"
    elif at_least is not None and not value >= at_least:
        bound = f">= {at_least}"
    elif within is not None and not within[0] <= value <= within[1]:
        bound = f"in [{within[0]}, {within[1]}]"
    if bound is not None:
        raise ValueError(f"{name} must be {bound}, got {_shown(value, str(value))}")
    return int(value) if kind is int else value


def _shown(value, text: str) -> str:
    """``text``, a message's echo of ``value``, or its length where it is long
    (a JSON integer may have thousands of digits)."""
    if len(text) <= 40:
        return text
    if isinstance(value, numbers.Integral):
        return f"a {len(text.lstrip('-'))}-digit integer"
    return f"a {len(text)}-character value"


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
    qubit_index = check_number("qubit_index", qubit_index, int, within=(0, space.n_qubits - 1))
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
