"""Correctness checks on the CSVs the CLI writes, independent of dlesim.

Nothing here imports the program.  The exact reference builds the
Hamiltonian from the physics (diagonal omega_c*n + omega0*(excited qubits),
real sqrt(n) / sqrt(n+1) couplings including the counter-rotating terms)
and advances the state with period maps from ``scipy.linalg.expm``.

Each check returns a list of failures; every failure starts with the name
of the check that raised it, so the self-test can tell which check fired.
"""

from __future__ import annotations

import io
import math

import numpy as np
import scipy.linalg

from workloads import Workload

REFERENCE_TOL = 1e-9
NORM_TOL = 1e-9
MIRROR_MAX_P = 0.5
PERT_SHARE = 0.15
CLOSEDFORM_SHARE = 0.25

HEADERS = {
    "exact": ["t_ns", "p_excite", "photon_exp", "norm"],
    "compare": ["t_ns", "p_exact", "p_pert", "p_closedform", "abs_diff_pert", "abs_diff_cf"],
    "sweep": ["switch_ratio", "sup_abs_diff", "max_p_pert"],
}


def basis(n_qubits: int, n_max: int) -> list[tuple[int, int]]:
    """(qubit bit code, photons): photons ascending, then the code, MSB = qubit 0."""
    return [(code, n) for n in range(n_max + 1) for code in range(2**n_qubits)]


def hamiltonians(config: dict) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Coupling-off and coupling-on Hamiltonians in rad/ns, with their basis."""
    n_qubits, n_max = config["n_qubits"], config["n_max"]
    w0 = 2 * math.pi * config["omega0_ghz"]
    wc = 2 * math.pi * config["omega_c_ghz"]
    g = 2 * math.pi * config["g_eff_ghz"]
    states = basis(n_qubits, n_max)
    index = {s: i for i, s in enumerate(states)}
    h_off = np.diag([wc * n + w0 * bin(code).count("1") for code, n in states])
    coupling = np.zeros_like(h_off)
    for i, (code, n) in enumerate(states):
        for q in range(n_qubits):
            bit = 1 << (n_qubits - 1 - q)
            if code & bit:
                continue
            # raising qubit q with photon absorption and (counter-rotating) emission
            for n_new, weight in ((n - 1, math.sqrt(n)), (n + 1, math.sqrt(n + 1))):
                if 0 <= n_new <= n_max:
                    j = index[(code | bit, n_new)]
                    coupling[i, j] = coupling[j, i] = weight
    return h_off, h_off + g * coupling, states


def reference_states(config: dict, times: list[float]) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Exact states at ``times`` from |gg..g,0>, one row per time.

    The coupling is on during the first half of every period.  The state at
    the start of every half-period comes from the two half-period maps; the
    part of a half-period before a sample is one more ``expm``.
    """
    h_off, h_on, states = hamiltonians(config)
    t_period = 2 * math.pi / (config["switch_ratio"] * 2 * math.pi * config["omega0_ghz"])
    half = 0.5 * t_period
    maps = (scipy.linalg.expm(-1j * h_on * half), scipy.linalg.expm(-1j * h_off * half))
    hams = (h_on, h_off)
    psi = np.zeros(len(states), dtype=complex)
    psi[0] = 1.0
    out = np.empty((len(times), len(states)), dtype=complex)
    k = 0
    for i, t in enumerate(times):
        m = math.floor(t / half)
        while k < m:
            psi = maps[k % 2] @ psi
            k += 1
        out[i] = scipy.linalg.expm(-1j * hams[m % 2] * (t - m * half)) @ psi
    return out, states


def excitation(states_out: np.ndarray, states: list[tuple[int, int]], config: dict) -> np.ndarray:
    bit = 1 << (config["n_qubits"] - 1 - config["qubit_index"])
    mask = np.array([bool(code & bit) for code, _ in states])
    return (np.abs(states_out) ** 2)[:, mask].sum(axis=1)


def parse(command: str, text: str) -> tuple[list[str], np.ndarray]:
    """Header check and float table (empty fields become NaN)."""
    lines = text.splitlines()
    if not lines:
        return ["format: empty CSV"], np.empty((0, 0))
    if lines[0].split(",") != HEADERS[command]:
        return [f"format: header {lines[0]!r}"], np.empty((0, 0))
    try:
        table = np.genfromtxt(io.StringIO("\n".join(lines[1:])), delimiter=",",
                              dtype=float, ndmin=2, invalid_raise=True)
    except ValueError as exc:
        return [f"format: {exc}"], np.empty((0, 0))
    if table.shape[1:] != (len(HEADERS[command]),):
        return [f"format: table shape {table.shape}"], np.empty((0, 0))
    return [], table


def _times(workload: Workload, table: np.ndarray) -> list[str]:
    expected = workload.sample_times
    if len(table) != len(expected):
        return [f"rows: {len(table)} rows, expected {len(expected)}"]
    worst = float(np.max(np.abs(table[:, 0] - expected)))
    return [f"rows: sample times off by {worst:.3e}"] if worst > 1e-9 else []


def _reference(workload: Workload, p: np.ndarray, photons=None) -> list[str]:
    out, states = reference_states(workload.config, workload.sample_times)
    errors = []
    worst = float(np.max(np.abs(p - excitation(out, states, workload.config))))
    if not worst <= REFERENCE_TOL:
        errors.append(f"reference: |p - p_reference| up to {worst:.3e}")
    if photons is not None:
        n = np.array([n for _, n in states], dtype=float)
        worst = float(np.max(np.abs(photons - (np.abs(out) ** 2) @ n)))
        if not worst <= REFERENCE_TOL:
            errors.append(f"reference: |photon_exp - reference| up to {worst:.3e}")
    return errors


def check_exact(workload: Workload, table: np.ndarray) -> list[str]:
    errors = _times(workload, table)
    if errors:
        return errors
    p, photons, norm = table[:, 1], table[:, 2], table[:, 3]
    errors += _reference(workload, p, photons)
    drift = float(np.max(np.abs(norm - 1.0)))
    if not drift <= NORM_TOL:
        errors.append(f"unitarity: |norm - 1| up to {drift:.3e}")
    if not float(p.max()) <= MIRROR_MAX_P:
        errors.append(f"mirror probe: max p_excite {float(p.max()):.4f} > {MIRROR_MAX_P}")
    return errors


def check_compare(workload: Workload, table: np.ndarray) -> list[str]:
    errors = _times(workload, table)
    if errors:
        return errors
    p_exact, p_pert, p_cf, diff_pert, diff_cf = table[:, 1:].T
    errors += _reference(workload, p_exact)
    scale = float(p_exact.max())
    if not np.all(np.isfinite(p_cf)):
        errors.append("closed form: p_closedform column not filled")
    if not np.array_equal(diff_pert, np.abs(p_exact - p_pert)):
        errors.append("abs_diff: abs_diff_pert differs from |p_exact - p_pert|")
    if not np.array_equal(diff_cf, np.abs(p_exact - p_cf)):
        errors.append("abs_diff: abs_diff_cf differs from |p_exact - p_closedform|")
    sup = float(np.max(np.abs(p_exact - p_pert)))
    if not sup <= PERT_SHARE * scale:
        errors.append(f"perturbative: sup|p_exact - p_pert| {sup:.3e} > {PERT_SHARE} * {scale:.3e}")
    sup = float(np.max(np.abs(p_exact - p_cf)))
    if not sup <= CLOSEDFORM_SHARE * scale:
        errors.append(f"closed form: sup|p_exact - p_cf| {sup:.3e} > {CLOSEDFORM_SHARE} * {scale:.3e}")
    return errors


def check_sweep(workload: Workload, table: np.ndarray) -> list[str]:
    ratios = np.array(workload.switch_ratios)
    if len(table) != len(ratios):
        return [f"rows: {len(table)} sweep rows, expected {len(ratios)}"]
    errors = []
    if not np.all(np.abs(table[:, 0] - ratios) <= 1e-12 * ratios):
        errors.append("rows: switch ratios not the sorted sweep grid")
    sup = dict(zip(ratios.tolist(), table[:, 1]))
    if not sup[20.0] < sup[10.0] < sup[5.0]:
        errors.append(f"A3 ordering: sup {sup[20.0]:.3e} (20), {sup[10.0]:.3e} (10), {sup[5.0]:.3e} (5)")
    bad = ratios[~(table[:, 1] <= PERT_SHARE * table[:, 2])]
    if len(bad):
        errors.append(f"perturbative: sup_abs_diff > {PERT_SHARE} * max_p_pert at ratios {bad.tolist()}")
    return errors


CHECKS = {"exact": check_exact, "compare": check_compare, "sweep": check_sweep}


def check_csv(workload: Workload, text: str) -> list[str]:
    """Every failure of one output CSV of ``workload``."""
    errors, table = parse(workload.command, text)
    return errors or CHECKS[workload.command](workload, table)
