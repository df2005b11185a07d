"""Closed-form second-order solutions for two qubits and at most one photon.

These are the analytic first- and second-order coefficients for the
ground-start problem, implemented exactly as printed, including their known
limitation: they keep only the poles at s = 0 and at the bare transition
frequencies, dropping the infinite switching-pole family, so at finite
switching period they differ from the exact segment-wise solution by terms
that vanish in the fast-switching limit (e.g. the first-order coefficient
does not vanish exactly at t = 0).  The module serves as an independent
oracle for the engine and as the source of the resonance predictions.
Every coefficient takes a time or an array of times.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hilbert import HilbertSpace
from .model import TWO_PI

# The (N=2, n_max=1) basis the closed forms live on.
SPACE = HilbertSpace(2, 1)
# Relative half-width of the guard band around each pole.
EPS_RES = 1e-6
# Log-spaced switching frequencies of the sign-change scan.
SCAN_POINTS = 200_000


class ResonanceError(ValueError):
    """Evaluation refused inside the guard band of a parametric divergence."""

    def __init__(self, family: str, pole: float, varpi_s: float):
        self.family = family
        self.pole = pole
        self.varpi_s = varpi_s
        super().__init__(
            f"switching frequency {varpi_s:.9g} rad/ns is within the guard band "
            f"of the {family} resonance at {pole:.9g} rad/ns"
        )


@dataclass(frozen=True)
class ClosedFormParams:
    """Parameters of the two-qubit closed forms; frequencies in rad/ns."""

    omega0: float
    omega_c: float
    g_eff: float
    t_period: float

    def __post_init__(self):
        if self.omega0 <= 0 or self.omega_c <= 0:
            raise ValueError("omega0 and omega_c must be > 0")
        if self.t_period <= 0:
            raise ValueError(f"t_period must be > 0, got {self.t_period}")

    @property
    def switching_frequency(self) -> float:
        return TWO_PI / self.t_period

    @property
    def omega_sum(self) -> float:
        return self.omega0 + self.omega_c

    @property
    def degenerate(self) -> bool:
        """omega0 = omega_c to 1e-12 relative, where alpha2_ee0 is singular."""
        return abs(self.omega0 - self.omega_c) < 1e-12 * max(self.omega0, self.omega_c)


# (family name, primary pole as function of params)
_FAMILIES = (
    ("twice qubit frequency", lambda p: 2.0 * p.omega0),
    ("sum frequency", lambda p: p.omega0 + p.omega_c),
    ("difference frequency", lambda p: abs(p.omega_c - p.omega0)),
)


def divergence_locations(p: ClosedFormParams) -> set[float]:
    """Switching frequencies where the truncated expansion diverges.

    Returns {2*omega0, omega0 + omega_c, |omega_c - omega0|}; the difference
    value is reported as an absolute value, and degenerate parameters
    (omega_c = omega0) place it at 0, which no physical switching frequency
    can reach.  Locations do not depend on the coupling or the period.
    """
    return {primary(p) for _, primary in _FAMILIES}


def _nearest_pole(varpi_s: float, primary: float) -> tuple[Optional[float], int]:
    """Pole of the family primary/(2m+1) closest to varpi_s, with its order m."""
    if primary <= 0:
        return None, -1
    m = round((primary / varpi_s - 1.0) / 2.0)
    if m < 0:
        m = 0
    return primary / (2 * m + 1), m


def _guard(p: ClosedFormParams, families: tuple[str, ...]) -> None:
    varpi_s = p.switching_frequency
    for name, primary_fn in _FAMILIES:
        if name not in families:
            continue
        pole, _ = _nearest_pole(varpi_s, primary_fn(p))
        if pole is not None and abs(varpi_s - pole) < EPS_RES * pole:
            raise ResonanceError(name, pole, varpi_s)


_SUM_ONLY = ("sum frequency",)
_ALL_FAMILIES = tuple(name for name, _ in _FAMILIES)


def alpha1_ge1(t: float | np.ndarray, p: ClosedFormParams) -> complex | np.ndarray:
    """First-order coefficient of the one-excitation, one-photon states."""
    _guard(p, _SUM_ONLY)
    omega = p.omega_sum
    denom = 1.0 + cmath.exp(0.5j * p.t_period * omega)
    return (
        p.g_eff
        / (2.0 * omega)
        * (-1.0 + 2.0 * np.exp(-1j * t * omega) / denom)
    )


def alpha1_eg1(t: float | np.ndarray, p: ClosedFormParams) -> complex | np.ndarray:
    """Identical twin of :func:`alpha1_ge1` for the mirrored qubit."""
    return alpha1_ge1(t, p)


def alpha2_gg0(t: float | np.ndarray, p: ClosedFormParams) -> complex | np.ndarray:
    """Second-order coefficient of the initial state, secular term included."""
    _guard(p, _SUM_ONLY)
    omega = p.omega_sum
    ts = p.t_period
    phase = np.exp(-1j * t * omega)
    tan_q = math.tan(0.25 * ts * omega)
    sec_q = 1.0 / math.cos(0.25 * ts * omega)
    numerator = (
        1j * (2.0 * t + ts) * omega
        - 2j * (1.0 + phase) * tan_q
        + 2.0 * phase
        - 2.0 * sec_q**2
    )
    return p.g_eff**2 * numerator / (4.0 * omega**2)


def alpha2_ee0(t: float | np.ndarray, p: ClosedFormParams) -> complex | np.ndarray:
    """Second-order coefficient of the doubly excited, zero-photon state."""
    _guard(p, _ALL_FAMILIES)
    w0 = p.omega0
    wc = p.omega_c
    if p.degenerate:
        raise ValueError(
            "alpha2_ee0 is singular for omega0 = omega_c (degenerate parameters)"
        )
    omega = p.omega_sum
    ts = p.t_period
    tan_sum = math.tan(0.25 * ts * omega)
    tan_diff = math.tan(0.25 * ts * (wc - w0))
    tan_q = math.tan(0.5 * ts * w0)
    term1 = 2j * np.exp(-1j * t * omega) * (tan_sum + 1j) / (w0**2 - wc**2)
    term2 = (
        np.exp(-2j * t * w0)
        * (2.0 * w0 * tan_diff * (tan_sum + 1j) - 2j * wc * tan_q + w0 + wc)
        / (w0 * (w0 - wc) * omega)
    )
    term3 = 1.0 / (w0**2 + w0 * wc)
    return 0.25 * p.g_eff**2 * (term1 + term2 + term3)


def closedform_state(times: float | np.ndarray, p: ClosedFormParams) -> np.ndarray:
    """Unnormalized truncated second-order states over ``SPACE``, one row per time."""
    times = np.asarray(times, dtype=float).reshape(-1)
    alpha1 = alpha1_ge1(times, p)
    amps = np.zeros((len(times), SPACE.dim), dtype=np.complex128)
    amps[:, SPACE.index_of((0, 0), 0)] = 1.0 + alpha2_gg0(times, p)
    amps[:, SPACE.index_of((1, 1), 0)] = alpha2_ee0(times, p)
    amps[:, SPACE.index_of((0, 1), 1)] = alpha1
    amps[:, SPACE.index_of((1, 0), 1)] = alpha1
    return amps


@dataclass(frozen=True)
class DivergencePole:
    """One zero of a resonant denominator found by scanning."""

    varpi_s: float
    primary: float
    family: str
    alias_order: int


def scan_divergence_locations(
    p: ClosedFormParams,
    varpi_min: float,
    varpi_max: float,
) -> list[DivergencePole]:
    """Locate the resonant denominator zeros by a sign-change scan.

    Each family's singular factor is tan or sec of a constant over the
    switching frequency, so its denominator cos(c / varpi_s) changes sign at
    every pole.  Sign changes on a log-spaced grid are bisected to machine
    precision and mapped back to the family's primary location through the
    odd-integer alias ladder.
    """
    if not 0 < varpi_min < varpi_max:
        raise ValueError("need 0 < varpi_min < varpi_max")
    grid = np.geomspace(varpi_min, varpi_max, SCAN_POINTS)
    poles: list[DivergencePole] = []
    for family, primary_fn in _FAMILIES:
        # tan(T * primary / 4) = tan(c / varpi_s)
        c = 0.5 * math.pi * primary_fn(p)
        if c <= 0:
            continue
        values = np.cos(c / grid)
        flips = np.nonzero(np.signbit(values[:-1]) != np.signbit(values[1:]))[0]
        for i in flips:
            lo, hi = float(grid[i]), float(grid[i + 1])
            f_lo = math.cos(c / lo)
            while hi - lo > 1e-15 * lo:
                mid = 0.5 * (lo + hi)
                f_mid = math.cos(c / mid)
                if (f_lo < 0) == (f_mid < 0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            root = 0.5 * (lo + hi)
            # root satisfies c/root = pi/2 + m*pi, so primary = root*(2m+1)
            m = round(c / (root * math.pi) - 0.5)
            poles.append(
                DivergencePole(
                    varpi_s=root,
                    primary=root * (2 * m + 1),
                    family=family,
                    alias_order=int(m),
                )
            )
    poles.sort(key=lambda pole: pole.varpi_s)
    return poles
