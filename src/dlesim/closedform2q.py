"""Closed-form second-order solutions, printed for two qubits, at every N.

These are the analytic first- and second-order coefficients for the
ground-start problem, implemented exactly as printed, including their known
limitation: they keep only the poles at s = 0 and at the bare transition
frequencies, dropping the infinite switching-pole family, so at finite
switching period they differ from the exact segment-wise solution by terms
that vanish in the fast-switching limit (e.g. the first-order coefficient
does not vanish exactly at t = 0).  The module serves as an independent
oracle for the engine and as the source of the resonance predictions.
Every coefficient takes a time or an array of times, each finite and >= 0,
and the (SystemParams, CouplingSchedule) pair of the other two pipelines, of
which it reads only omega0, omega_c, g_eff and t_period; ``closedform_state``
fills params.space().
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hilbert import check_number
from .model import CouplingSchedule, SystemParams

# Relative half-width of the guard band around each pole.
EPS_RES = 1e-6
# Log-spaced switching frequencies of the sign-change scan.
SCAN_POINTS = 200_000
# A time in ns, or an array of them.
Times = float | np.ndarray


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


def degenerate(params: SystemParams) -> bool:
    """omega0 = omega_c to 1e-12 relative, where alpha2_ee0 is singular."""
    return abs(params.omega0 - params.omega_c) < 1e-12 * max(params.omega0, params.omega_c)


# (family name, primary pole as function of params)
_FAMILIES = (
    ("twice qubit frequency", lambda p: 2.0 * p.omega0),
    ("sum frequency", lambda p: p.omega0 + p.omega_c),
    ("difference frequency", lambda p: abs(p.omega_c - p.omega0)),
)


def divergence_locations(params: SystemParams) -> set[float]:
    """Switching frequencies where the truncated expansion diverges.

    Returns {2*omega0, omega0 + omega_c, |omega_c - omega0|}; the difference
    value is reported as an absolute value, and degenerate parameters
    (omega_c = omega0) place it at 0, which no physical switching frequency
    can reach.  Locations do not depend on the coupling or the period.
    """
    return {primary(params) for _, primary in _FAMILIES}


def _nearest_pole(varpi_s: float, primary: float) -> tuple[Optional[float], int]:
    """Pole of the family primary/(2m+1) closest to varpi_s, with its order m."""
    if primary <= 0:
        return None, -1
    m = max(0, round((primary / varpi_s - 1.0) / 2.0))
    return primary / (2 * m + 1), m


def _guard(t: Times, params: SystemParams, schedule: CouplingSchedule, families=_FAMILIES):
    """ValueError naming t unless every time is finite and >= 0, then
    ResonanceError where the switching frequency is in a family's guard band."""
    times = np.asarray(t, dtype=float)
    bad = times[~(np.isfinite(times) & (times >= 0))]
    if bad.size:
        raise ValueError(f"t must be finite and >= 0, got {bad[0]}")
    varpi_s = schedule.switching_frequency
    for name, primary_fn in families:
        pole, _ = _nearest_pole(varpi_s, primary_fn(params))
        if pole is not None and abs(varpi_s - pole) < EPS_RES * pole:
            raise ResonanceError(name, pole, varpi_s)


_SUM_ONLY = _FAMILIES[1:2]  # the one denominator of alpha1_ge1 and alpha2_gg0


def alpha1_ge1(t: Times, params: SystemParams, schedule: CouplingSchedule) -> complex | np.ndarray:
    """First-order coefficient of the one-excitation, one-photon states."""
    _guard(t, params, schedule, _SUM_ONLY)
    omega = params.omega0 + params.omega_c
    denom = 1.0 + cmath.exp(0.5j * schedule.t_period * omega)
    return (
        params.g_eff
        / (2.0 * omega)
        * (-1.0 + 2.0 * np.exp(-1j * t * omega) / denom)
    )


def alpha1_eg1(t: Times, params: SystemParams, schedule: CouplingSchedule) -> complex | np.ndarray:
    """Identical twin of :func:`alpha1_ge1` for the mirrored qubit."""
    return alpha1_ge1(t, params, schedule)


def alpha2_gg0(t: Times, params: SystemParams, schedule: CouplingSchedule) -> complex | np.ndarray:
    """Second-order coefficient of the initial state, secular term included."""
    _guard(t, params, schedule, _SUM_ONLY)
    omega = params.omega0 + params.omega_c
    ts = schedule.t_period
    phase = np.exp(-1j * t * omega)
    tan_q = math.tan(0.25 * ts * omega)
    sec_q = 1.0 / math.cos(0.25 * ts * omega)
    numerator = (
        1j * (2.0 * t + ts) * omega
        - 2j * (1.0 + phase) * tan_q
        + 2.0 * phase
        - 2.0 * sec_q**2
    )
    return params.g_eff**2 * numerator / (4.0 * omega**2)


def alpha2_ee0(t: Times, params: SystemParams, schedule: CouplingSchedule) -> complex | np.ndarray:
    """Second-order coefficient of the doubly excited, zero-photon state."""
    _guard(t, params, schedule)
    w0 = params.omega0
    wc = params.omega_c
    if degenerate(params):
        raise ValueError(
            "alpha2_ee0 is singular for omega0 = omega_c (degenerate parameters)"
        )
    omega = w0 + wc
    ts = schedule.t_period
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
    return 0.25 * params.g_eff**2 * (term1 + term2 + term3)


def closedform_state(times: Times, params: SystemParams, schedule: CouplingSchedule) -> np.ndarray:
    """Unnormalized truncated second-order states over ``params.space()``, one row per time.

    A path of order <= 2 moves at most two qubits, so by permutation symmetry
    every |e_q,1> gets alpha1_ge1, every |e_q e_r,0> alpha2_ee0 and
    |g...g,0> one loop alpha2_gg0/2 per qubit."""
    times = np.asarray(times, dtype=float).reshape(-1)
    space = params.space()
    excited, photons = space.excitation_counts, space.photon_counts
    alpha1 = alpha1_ge1(times, params, schedule)
    amps = np.zeros((len(times), space.dim), dtype=np.complex128)
    amps[:, 0] = 1.0 + 0.5 * params.n_qubits * alpha2_gg0(times, params, schedule)
    if params.n_qubits >= 2:
        amps[:, (excited == 2) & (photons == 0)] = alpha2_ee0(times, params, schedule)[:, None]
    amps[:, (excited == 1) & (photons == 1)] = alpha1[:, None]
    return amps


@dataclass(frozen=True)
class DivergencePole:
    """One zero of a resonant denominator found by scanning."""

    varpi_s: float
    primary: float
    family: str
    alias_order: int


def scan_divergence_locations(
    params: SystemParams, varpi_min: float, varpi_max: float
) -> list[DivergencePole]:
    """Locate the resonant denominator zeros by a sign-change scan.

    Each family's singular factor is tan or sec of a constant over the
    switching frequency, so its denominator cos(c / varpi_s) changes sign at
    every pole.  Sign changes on a log-spaced grid are bisected to machine
    precision and mapped back to the family's primary location through the
    odd-integer alias ladder.
    """
    check_number("varpi_min", varpi_min, above=0)
    check_number("varpi_max", varpi_max, above=varpi_min)
    # the phase c/varpi's step at the grid's low edge; past pi/2 it can skip poles
    c_max = 0.5 * math.pi * max(primary(params) for _, primary in _FAMILIES)
    log_ratio = (math.log(varpi_max) - math.log(varpi_min)) / (SCAN_POINTS - 1)
    step = -c_max / varpi_min * math.expm1(-log_ratio)
    if not step < 0.5 * math.pi:
        raise ValueError(
            f"varpi_min must be larger for a phase step < pi/2, got {varpi_min!r} (step {step:.3g})"
        )
    grid = np.geomspace(varpi_min, varpi_max, SCAN_POINTS)
    poles: list[DivergencePole] = []
    for family, primary_fn in _FAMILIES:
        # tan(T * primary / 4) = tan(c / varpi_s)
        c = 0.5 * math.pi * primary_fn(params)
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
            poles.append(DivergencePole(root, root * (2 * m + 1), family, m))
    poles.sort(key=lambda pole: pole.varpi_s)
    return poles
