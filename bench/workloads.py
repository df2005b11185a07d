"""The benchmark's workloads and the inputs each one gets from a seed.

Seed 0 is the paper's point (omega0 = 5.439 GHz, omega_c = 4.343 GHz,
g = 0.050 GHz).  Any other seed scales omega0 and omega_c independently by
a factor drawn uniformly from [1 - JITTER, 1 + JITTER], redrawing until the
switching frequencies the workload uses keep at least MIN_POLE_DISTANCE
(relative) from every closed-form divergence, the deliberate 2*omega0 probe
of exact-long excepted.  The time window and the sample step are scaled by
5.439 GHz / omega0, so every seed has the same number of switching
segments and samples: the seed moves the physical point, not the amount of
work.  The program only ever sees the config file and the command-line
arguments built here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PAPER_OMEGA0_GHZ = 5.439
PAPER_OMEGA_C_GHZ = 4.343
PAPER_G_GHZ = 0.050
JITTER = 0.03
MIN_POLE_DISTANCE = 0.05
MIRROR_DETUNING = 1e-4

SWEEP_RATIOS = tuple(float(r) for r in range(4, 25))


@dataclass(frozen=True)
class Workload:
    """One CLI invocation: subcommand, config document and extra arguments.

    ``trace_args`` replace ``args`` in the traced run and its untraced
    reference; they differ only where the traced run must stay in one
    process (the sweep's worker pool).
    """

    name: str
    command: str
    config: dict
    args: tuple[str, ...] = ()
    trace_args: tuple[str, ...] = ()

    @property
    def switch_ratios(self) -> tuple[float, ...]:
        if self.command == "sweep":
            return SWEEP_RATIOS
        return (self.config["switch_ratio"],)

    @property
    def sample_times(self) -> list[float]:
        dt = self.config["sample_dt_ns"]
        n = round(self.config["t_final_ns"] / dt)
        return [j * dt for j in range(n)] + [self.config["t_final_ns"]]


def _pole_families(omega0: float, omega_c: float) -> dict[str, float]:
    return {
        "twice qubit frequency": 2.0 * omega0,
        "sum frequency": omega0 + omega_c,
        "difference frequency": abs(omega_c - omega0),
    }


def pole_distance(ratio: float, f0: float, fc: float, skip_probe: bool) -> float:
    """Smallest relative distance of ratio*omega0 from a pole primary/(2m+1).

    With ``skip_probe`` the m = 0 pole of the 2*omega0 family is ignored,
    because exact-long sits next to it on purpose.
    """
    varpi = ratio * f0
    nearest = math.inf
    for family, primary in _pole_families(f0, fc).items():
        m_hi = max(0, math.ceil((primary / varpi - 1.0) / 2.0)) + 1
        for m in range(m_hi + 1):
            if skip_probe and family == "twice qubit frequency" and m == 0:
                continue
            pole = primary / (2 * m + 1)
            nearest = min(nearest, abs(varpi - pole) / pole)
    return nearest


def frequencies(seed: int, ratios: tuple[float, ...], skip_probe: bool) -> tuple[float, float]:
    """(omega0, omega_c) in GHz for this seed, far from every pole."""
    if seed == 0:
        return PAPER_OMEGA0_GHZ, PAPER_OMEGA_C_GHZ
    rng = random.Random(seed)
    while True:
        f0 = PAPER_OMEGA0_GHZ * (1.0 + rng.uniform(-JITTER, JITTER))
        fc = PAPER_OMEGA_C_GHZ * (1.0 + rng.uniform(-JITTER, JITTER))
        if all(pole_distance(r, f0, fc, skip_probe) >= MIN_POLE_DISTANCE for r in ratios):
            return f0, fc


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``."""
    if name == "compare-deep":
        ratios, skip_probe = (20.0,), False
        config = {"switch_ratio": 20.0, "n_max": 4, "order": 4,
                  "t_final_ns": 20.0, "sample_dt_ns": 0.01}
        args = trace_args = ()
    elif name == "exact-long":
        ratio = 2.0 * (1.0 - MIRROR_DETUNING)
        ratios, skip_probe = (ratio,), True
        config = {"switch_ratio": ratio, "n_max": 3, "order": 2,
                  "t_final_ns": 2000.0, "sample_dt_ns": 0.05}
        args = trace_args = ()
    elif name == "sweep-ratio":
        ratios, skip_probe = SWEEP_RATIOS, False
        config = {"n_max": 2, "order": 2, "t_final_ns": 10.0, "sample_dt_ns": 0.01}
        span = ("--ratio-min", "4", "--ratio-max", "24", "--points", str(len(SWEEP_RATIOS)))
        args = span + ("--workers", "2")
        trace_args = span + ("--workers", "1")
    else:
        raise ValueError(f"unknown workload {name!r}")
    f0, fc = frequencies(seed, ratios, skip_probe)
    scale = PAPER_OMEGA0_GHZ / f0
    config = {"omega0_ghz": f0, "omega_c_ghz": fc, "g_eff_ghz": PAPER_G_GHZ,
              "n_qubits": 2, "qubit_index": 0, **config}
    config["t_final_ns"] *= scale
    config["sample_dt_ns"] *= scale
    command = {"compare-deep": "compare", "exact-long": "exact", "sweep-ratio": "sweep"}[name]
    return Workload(name, command, config, args, trace_args)


NAMES = ("compare-deep", "exact-long", "sweep-ratio")
