"""Physical parameters, square-wave coupling schedule, Hamiltonian, grid walk.

All frequencies are angular (rad/ns) with hbar = 1; times are in ns.  The
qubit/cavity coupling is switched on/off as a square wave: on during the
first half of every period, off during the second half, right-continuous
at the switching instants.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import HilbertSpace, check_number

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
        check_number("omega0", self.omega0, above=0)
        check_number("omega_c", self.omega_c, above=0)
        check_number("g_eff", self.g_eff, at_least=0)
        if self.g_eff >= self.omega0 or self.g_eff >= self.omega_c:
            raise ValueError(
                "perturbative validity requires g_eff < omega0 and g_eff < omega_c; "
                f"got g_eff={self.g_eff}, omega0={self.omega0}, omega_c={self.omega_c}"
            )
        check_number("n_qubits", self.n_qubits, int, at_least=1)
        check_number("n_max", self.n_max, int, at_least=0)

    def space(self) -> HilbertSpace:
        return _space(self.n_qubits, self.n_max)


@functools.lru_cache(maxsize=1)
def _space(n_qubits: int, n_max: int) -> HilbertSpace:
    """The basis of (n_qubits, n_max), reused while the size stays the same.

    ``HilbertSpace`` is immutable, so sharing it is safe.  It is looked up
    at call time, so a wrapper put on ``model.HilbertSpace`` sees each build.
    """
    return HilbertSpace(n_qubits, n_max)


def bare_energies(params: SystemParams, space: HilbertSpace) -> np.ndarray:
    """Unperturbed energy omega_c*photons + omega0*(excited qubits), per basis state."""
    return params.omega_c * space.photon_counts + params.omega0 * space.excitation_counts


@dataclass(frozen=True)
class CouplingSchedule:
    """Unit square wave s(t): 1 on [k*T, (2k+1)*T/2), 0 on [(2k+1)*T/2, (k+1)*T);
    the coupling is g(t) = g_eff * s(t), with g_eff from ``SystemParams``."""

    t_period: float

    def __post_init__(self):
        check_number("t_period", self.t_period, above=0)

    @classmethod
    def from_switching_frequency(cls, switching_frequency: float) -> "CouplingSchedule":
        check_number("switching_frequency", switching_frequency, above=0)
        return cls(t_period=TWO_PI / switching_frequency)

    @property
    def switching_frequency(self) -> float:
        return TWO_PI / self.t_period

    @property
    def half_period(self) -> float:
        return 0.5 * self.t_period

    def is_on(self, segment_index: int) -> bool:
        """Whether the coupling is on during half-period segment ``segment_index``."""
        return segment_index % 2 == 0


def _multiples(step: float, t_final: float, name: str) -> np.ndarray:
    """Multiples of ``step`` in [0, t_final], at least two, the last t_final exactly:
    it replaces the last multiple within 1e-12 * max(1, t_final) of it, or follows.
    ValueError naming ``name``, the step's source, where t_final / step is past
    the index range of a float64 array (2^60 elements) or overflows."""
    count = t_final / step
    if not count < np.iinfo(np.intp).max // 8:
        raise ValueError(
            f"{name} is too small for t_final={t_final}: t_final / step = {count:.3g} "
            "is past the index range"
        )
    n = int(math.floor(count + 1e-12))
    points = np.arange(n + 1) * step
    if n == 0 or points[-1] < t_final - 1e-12 * max(1.0, t_final):
        return np.append(points, t_final)
    points[-1] = t_final
    return points


def switching_grid(schedule: CouplingSchedule, t_final: float) -> np.ndarray:
    """Half-period segment edges [0, T/2, T, ..., t_final], one segment at least;
    the coupling is on in segment k when k is even, off when k is odd."""
    check_number("t_final", t_final, above=0)
    return _multiples(schedule.half_period, t_final, "t_period")


def sample_times(t_final: float, sample_dt: float) -> np.ndarray:
    """Multiples of sample_dt in [0, t_final] by the edges' rule: t_final is last."""
    check_number("t_final", t_final, above=0)
    check_number("sample_dt", sample_dt, above=0)
    return _multiples(sample_dt, t_final, "sample_dt")


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


def row_products(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix; one row goes in twice, as a one-row product takes gemv,
    whose bits differ from gemm's, and each row must not depend on its batch."""
    if len(rows) == 1:
        return (rows[[0, 0]] @ matrix)[:1]
    return rows @ matrix


def period_starts(
    first: np.ndarray, period_map: np.ndarray, count: int, project=lambda m: m
) -> np.ndarray:
    """Rows first @ P^p for p = 0..count-1, with P = ``period_map``, by doubling.

    Each step maps the rows found so far by the current power P^s to the
    next s rows, then squares the power: log2(count) squarings, each passed
    through ``project`` (e.g. a step back towards unitarity).
    """
    rows = np.empty((count, len(first)), dtype=np.result_type(first, period_map))
    rows[0] = first
    power, filled = period_map, 1
    while filled < count:
        step = min(filled, count - filled)
        np.matmul(rows[:step], power, out=rows[filled : filled + step])
        filled += step
        if filled < count:
            power = project(power @ power)
    return rows


class SegmentWalk:
    """A row's walk over the half-period grid ``edges``, shared by both pipelines.

    A period is ``on_map``, then the free phase exp(-i energies T/2);
    ``starts`` holds the row at every period start the grid reaches.
    """

    def __init__(
        self,
        schedule: CouplingSchedule,
        edges: np.ndarray,
        first: np.ndarray,
        on_map: np.ndarray,
        energies: np.ndarray,
        project=lambda m: m,
    ):
        self.schedule = schedule
        self.edges = edges
        self.on_map = on_map
        period_map = on_map * np.exp(-1j * energies * schedule.half_period)
        self.starts = period_starts(first, period_map, (len(edges) - 2) // 2 + 1, project)

    def sample(self, times: np.ndarray, batch: int, inside, states: np.ndarray, dim: int):
        """Rows at ``times`` on ``states`` of a zero (S, dim) array, ``batch`` at a time.

        ``inside(on, tau, rows, step)`` takes the row starting each time's segment
        (an off one's past the on map) to its local time; ``step``: on, past tau = 0.
        """
        out = np.zeros((len(times), dim), dtype=np.complex128)
        segments, taus = locate(self.edges, times)
        for start in range(0, len(times), batch):
            part = slice(start, start + batch)
            k, tau = segments[part], taus[part]
            rows = self.starts[k // 2]
            on = self.schedule.is_on(k)
            rows[~on] = row_products(rows[~on], self.on_map)
            out[part, states] = inside(on, tau, rows, on & (tau > 0))
        return out


def laplace_coupling(schedule: CouplingSchedule, s: complex) -> complex:
    """Laplace transform of the unit square wave, 1/s / (1 + e^(-T s/2)).

    Per unit coupling: the coupling's transform is g_eff times this.  It is
    the geometric sum of the step-train representation; near s = 0 it
    behaves like the duty-cycle average 1/(2s) and for Re(s)*T >> 1 like
    1/s (the first on half-period dominates).

    ``s`` is a finite real or complex number.  Raises :class:`LaplacePoleError`
    at s = 0 and on the odd-harmonic pole family s = 2*pi*i*(2k+1)/T where
    1 + e^(-T s/2) vanishes.
    """
    s = complex(check_number("s", s, complex))
    if abs(s) * schedule.t_period < 1e-12:
        raise LaplacePoleError("laplace_coupling pole at s = 0")
    denom = 1.0 + cmath.exp(-0.5 * schedule.t_period * s)
    if abs(denom) < _POLE_TOL:
        raise LaplacePoleError(
            "laplace_coupling pole on the family s = 2*pi*i*(2k+1)/t_period "
            f"(s = {s}, |1 + exp(-T s/2)| = {abs(denom):.3e})"
        )
    return 1.0 / s / denom


def hamiltonian_matrix(params: SystemParams, states: np.ndarray) -> np.ndarray:
    """Hamiltonian with the coupling on among basis ``states``, a sector or all.

    Diagonal: omega_c*n + omega0*(excitation count).  Off-diagonal:
    ``params.g_eff`` times ``space.block(states)``, whose four interaction
    terms (excitation-conserving and counter-rotating) have real elements
    sqrt(n) or sqrt(n+1).  The (R, R) result is exactly real-symmetric.
    """
    space = params.space()
    h = np.diag(bare_energies(params, space)[states].astype(np.complex128))
    return np.add(h, params.g_eff * space.block(states), out=h)
