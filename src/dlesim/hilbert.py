"""Qubit/photon product basis, its unit coupling, and batched observables.

The basis spans N two-level qubits (g=0, e=1) and a single cavity mode
truncated at ``n_max`` photons.  Canonical enumeration order is photons
ascending, then the qubit bit string read as a big-endian integer ascending:
index = photons * 2^N + bit code, so |gg...g,0> is always index 0.
"""

from __future__ import annotations

import cmath
import numbers
from typing import Sequence

import numpy as np


class HilbertSpace:
    """Enumerated qubit (x) photon space: the basis interface of both pipelines.

    ``dim``, the per-state ``photon_counts`` and ``excitation_counts`` (the
    bare energies), the qubit mask ``bit_table`` and the unit coupling V as
    ``edges`` (rows, cols, weights), both directions stored, all read-only
    arrays over index = photons * 2^N + bit code; ``block`` cuts V to (R, R).
    Immutable after construction; safe to share between concurrent runs.
    """

    def __init__(self, n_qubits: int, n_max: int):
        self.dim = self.sizes(n_qubits, n_max)[0]
        self.n_qubits, self.n_max = n_qubits, n_max = int(n_qubits), int(n_max)
        self.photon_counts, codes = np.divmod(np.arange(self.dim, dtype=np.int64), 2**n_qubits)
        # dim x n_qubits bits, first qubit the most significant bit of the code
        shifts = np.arange(n_qubits - 1, -1, -1)
        self.bit_table = ((codes[:, None] >> shifts) & 1).astype(np.uint8)
        self.excitation_counts = self.bit_table.sum(axis=1).astype(np.int64)
        self.edges = _unit_coupling(self.photon_counts, codes, n_qubits)
        for array in (self.bit_table, self.photon_counts, self.excitation_counts, *self.edges):
            array.setflags(write=False)

    @classmethod
    def sizes(cls, n_qubits: int, n_max: int) -> tuple[int, int, int]:
        """(dim, R, L), allocating nothing: dim = 2^N (n_max+1) states; the ground
        state's ``sector(0)`` holds R = dim/2, those of even photons plus excitations
        (V flips a qubit and moves a photon; exact for n_max >= 1); and its bare
        energies take at most L values, one per (photons, excitations) pair of
        even sum (exact unless two pairs share an energy, omega0 = omega_c)."""
        n_qubits = check_number("n_qubits", n_qubits, int, at_least=1)
        n_max = check_number("n_max", n_max, int, at_least=0)
        dim = 2**n_qubits * (n_max + 1)
        return dim, dim // 2, ((n_max + 1) * (n_qubits + 1) + 1) // 2

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

    def sector(self, start: int) -> np.ndarray:
        """Sorted indices of the states the ``edges`` connect to basis state
        ``start``: its parity class of photons + excitations when n_max >= 1."""
        rows, cols, _ = self.edges
        reached = np.arange(self.dim) == self.check_index(start, "initial")
        while True:
            before = np.count_nonzero(reached)
            reached[rows[reached[cols]]] = True
            if np.count_nonzero(reached) == before:
                return np.flatnonzero(reached)

    def block(self, states: np.ndarray) -> np.ndarray:
        """V among basis ``states``, a real symmetric (R, R) array whose row and
        column i are ``states[i]``: the order of ``states`` is kept."""
        rows, cols, weights = self.edges
        position = np.full(self.dim, -1)
        position[states] = np.arange(len(states))
        inside = (position[rows] >= 0) & (position[cols] >= 0)
        v = np.zeros((len(states), len(states)))
        v[position[rows[inside]], position[cols[inside]]] = weights[inside]
        return v

    def __repr__(self):
        return f"HilbertSpace(n_qubits={self.n_qubits}, n_max={self.n_max})"


def check_number(name: str, value, kind: type = float, above=None, at_least=None, within=None):
    """``value``, as an int when ``kind`` is int, or ValueError naming ``name``
    unless it is of ``kind`` and in range.

    ``kind`` float takes a finite real number, complex a finite real or complex
    one, int an integer; a bool is none of them.
    The range is ``> above``, ``>= at_least`` or ``in within``, a closed
    [lo, hi].  The one number check of the library and the config.
    """
    try:
        ok = not isinstance(value, bool) and (
            isinstance(value, numbers.Integral) if kind is int
            else isinstance(value, numbers.Complex if kind is complex else numbers.Real)
            and cmath.isfinite(value)
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


def _unit_coupling(photons: np.ndarray, codes: np.ndarray, n_qubits: int) -> tuple:
    """Nonzeros (rows, cols, weights) of V = sum_q (s+_q + s-_q)(a + a^dagger).

    ``photons`` and ``codes`` are the photon count and bit code of every
    basis state.  Raising qubit q while removing a photon carries weight
    sqrt(n), and while adding one sqrt(n+1); the lowering entries are the
    same edges reversed, so any block of V is exactly symmetric.  Moves past
    the photon cutoff are dropped, and every entry appears once.
    """
    n_codes, n_max = 2**n_qubits, photons[-1]
    raised, lowered, weights = [], [], []
    for q in range(n_qubits):
        bit = 1 << (n_qubits - 1 - q)
        for moved in (photons - 1, photons + 1):
            ok = ((codes & bit) == 0) & (moved >= 0) & (moved <= n_max)
            raised.append(moved[ok] * n_codes + (codes[ok] | bit))
            lowered.append(np.flatnonzero(ok))
            weights.append(np.sqrt(np.maximum(photons, moved)[ok]))
    rows = np.concatenate(raised + lowered)
    cols = np.concatenate(lowered + raised)
    return rows, cols, np.concatenate(weights * 2)


def expectation(amplitudes: np.ndarray, diagonal) -> np.ndarray:
    """sum_i |a_i|^2 d_i of one state (dim,) or of each row of (S, dim), for a
    ``diagonal`` (dim,) or scalar; not renormalized.  The one reduction of the
    observables: each row is reduced on its own, so its bits do not depend on
    the batch."""
    weights = np.abs(amplitudes) ** 2
    weights *= diagonal
    return weights.sum(axis=-1)


def qubit_excitation(amplitudes: np.ndarray, space: HilbertSpace, qubit_index: int) -> np.ndarray:
    """``expectation`` of the states whose bit at ``qubit_index`` is 1."""
    qubit_index = check_number("qubit_index", qubit_index, int, within=(0, space.n_qubits - 1))
    return expectation(amplitudes, space.bit_table[:, qubit_index])


def norm(amplitudes: np.ndarray) -> np.ndarray:
    """sqrt of the ``expectation`` of the unit diagonal, per state or row."""
    return np.sqrt(expectation(amplitudes, 1.0))
