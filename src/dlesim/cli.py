"""Command-line front end: exact / perturb / compare / sweep pipelines.

Configuration is a flat JSON document with ordinary frequencies in GHz;
the single GHz -> rad/ns conversion (factor 2*pi) happens at config load
and everything downstream works in angular units.  All commands are
deterministic: the same config produces byte-identical CSV output.

Exit codes: 0 success, 2 config error, 3 resonance guard tripped (partial
output written), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from .closedform2q import ResonanceError, closedform_state, degenerate
from .engine import PerturbativeSolution, run_to_order
from .hilbert import HilbertSpace, _shown, check_number, norm, qubit_excitation
from .model import TWO_PI, CouplingSchedule, SystemParams, sample_times
from .propagator import propagate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Invalid or malformed run configuration; message names the field."""


# Complex numbers in the largest array one run may allocate: 512 MiB.
MAX_ARRAY_ELEMENTS = 1 << 25
# Points of one sweep, each a config of about 200 B built before the first runs.
MAX_SWEEP_POINTS = 1 << 16


def check_field(
    name: str, value, kind: type, above=None, at_least=None, within=None, ghz=False
) -> None:
    """ConfigError naming ``name`` unless ``check_number`` takes ``value``;
    a ``ghz`` value must also stay finite in rad/ns."""
    try:
        check_number(name, value, kind, above, at_least, within)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if ghz and math.isinf(TWO_PI * value):
        raise ConfigError(
            f"{name} = {_shown(value, repr(value))} GHz is not finite in rad/ns (times 2*pi)"
        )


def response_bound(n_qubits: int, n_max: int, order: int) -> int:
    """Upper bound on the elements of an engine response's ``coeffs``, (U R, R).

    Every (power, rate) term is tau^k exp(-iE tau) with k <= order and E one
    of the L levels (R and L ``HilbertSpace.sizes``'s), so U <= (order+1) L.
    """
    _, reachable, levels = HilbertSpace.sizes(n_qubits, n_max)
    return (order + 1) * levels * reachable**2


def _check_size(config: "RunConfig", engine: bool = False) -> None:
    """Reject, before any allocation, a run whose largest array is too big.

    With dim and R ``HilbertSpace.sizes``'s, every command is budgeted for
    the R x R sector Hamiltonian, the samples x dim amplitudes and one walk's
    periods x width period starts: width = R for exact propagation's sector
    rows, and with ``engine`` (perturb, compare and sweep) (J+1)R for the
    engine's stacked rows, J = order, which also budgets its width x width
    on map and response (``response_bound``).
    """
    n_max = min(config.params.n_max, 1 << 32)  # the caps keep the ints small
    n_qubits = min(config.n_qubits, 64)
    dim, reachable, _ = HilbertSpace.sizes(n_qubits, n_max)
    width = (config.order + 1 if engine else 1) * reachable
    segments = config.t_final_ns * config.switching_frequency / math.pi
    periods = np.ceil(segments / 2)  # stays inf when segments overflow
    samples = config.t_final_ns / config.sample_dt_ns + 1
    switch = "switch_freq_ghz" if config.switch_freq_ghz is not None else "switch_ratio"
    walk = f"t_final_ns, {switch} and order" if engine else f"t_final_ns and {switch}"
    arrays = [
        (reachable * reachable, "n_qubits and n_max"),
        (periods * width, walk),
        (samples * dim, "t_final_ns and sample_dt_ns"),
    ]
    if engine:
        arrays += [
            (width * width, "n_qubits, n_max and order"),
            (response_bound(n_qubits, n_max, config.order), "n_qubits, n_max and order"),
        ]
    for elements, cause in arrays:
        if elements > MAX_ARRAY_ELEMENTS:
            raise ConfigError(
                f"{cause} need {float(elements):.3g} complex numbers in one "
                f"array, more than the budget of {MAX_ARRAY_ELEMENTS}"
            )


def _field(default, kind: type, **bounds):
    """A ``RunConfig`` field: its default, kind and range, as ``check_field``
    takes them; a field whose default is None may be null."""
    return field(default=default, metadata={"kind": kind, **bounds})


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; frequencies in GHz, times in ns.

    ``params`` and ``schedule``, the run's ``SystemParams`` and
    ``CouplingSchedule`` in rad/ns, are built once, here, so a config that
    loads is one that every pipeline accepts.  The engine's arrays are
    budgeted by the commands that build it (``build_engine``).
    """

    # g_eff_ghz and switch_freq_ghz, also times 2*pi, stay finite by the
    # coupling and period checks below
    omega0_ghz: float = _field(5.439, float, above=0, ghz=True)
    omega_c_ghz: float = _field(4.343, float, above=0, ghz=True)
    g_eff_ghz: float = _field(0.050, float, at_least=0)
    switch_ratio: Optional[float] = _field(None, float, above=0)
    switch_freq_ghz: Optional[float] = _field(None, float, above=0)
    n_qubits: int = _field(2, int, at_least=1)
    n_max: Optional[int] = _field(None, int, at_least=0)
    order: int = _field(2, int, within=(0, 4))
    t_final_ns: float = _field(10.0, float, above=0)
    sample_dt_ns: float = _field(0.01, float, above=0)
    qubit_index: int = _field(0, int)  # in [0, n_qubits - 1], checked below

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                check_field(f.name, value, **f.metadata)
        check_field("qubit_index", self.qubit_index, int, within=(0, self.n_qubits - 1))
        if self.switch_ratio is not None and self.switch_freq_ghz is not None:
            raise ConfigError(
                "switch_ratio and switch_freq_ghz are mutually exclusive"
            )
        omega0, omega_c = TWO_PI * self.omega0_ghz, TWO_PI * self.omega_c_ghz
        g_eff = TWO_PI * self.g_eff_ghz
        if g_eff >= min(omega0, omega_c):  # in rad/ns, as SystemParams compares
            raise ConfigError(
                f"g_eff_ghz must be < min(omega0_ghz, omega_c_ghz), got {self.g_eff_ghz}"
            )
        varpi = self.switching_frequency
        period = TWO_PI / varpi if varpi else math.inf
        if not 0 < period < math.inf:
            cause = "switch_freq_ghz" if self.switch_freq_ghz else "switch_ratio and omega0_ghz"
            raise ConfigError(
                f"{cause}: the switching frequency {varpi!r} rad/ns gives a period "
                f"2*pi/varpi that is {'not finite' if period else 'zero'}"
            )
        # the photon cutoff of every command: max(2, order) unless n_max is given
        n_max = max(2, self.order) if self.n_max is None else self.n_max
        object.__setattr__(
            self, "params", SystemParams(omega0, omega_c, g_eff, self.n_qubits, n_max)
        )
        object.__setattr__(self, "schedule", CouplingSchedule.from_switching_frequency(varpi))
        _check_size(self)

    @property
    def switching_frequency(self) -> float:
        if self.switch_freq_ghz is not None:
            return TWO_PI * self.switch_freq_ghz
        ratio = self.switch_ratio if self.switch_ratio is not None else 20.0
        return ratio * (TWO_PI * self.omega0_ghz)


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def load_config(path: Optional[str], overrides: Optional[dict] = None) -> RunConfig:
    """Read a flat JSON config file and apply command-line overrides."""
    data: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            # bad UTF-8, bad syntax and over-long integers are ValueErrors
            except (ValueError, RecursionError) as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a flat JSON object")
    if overrides:
        if "switch_ratio" in overrides and overrides["switch_ratio"] is not None:
            data.pop("switch_freq_ghz", None)
        data.update({k: v for k, v in overrides.items() if v is not None})
    unknown = sorted(str(key) for key in data if key not in _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(**data)


# Rows formatted per write: the text in memory stays a few hundred kB.
CSV_CHUNK_ROWS = 4096


def write_csv(
    path: str, header: Sequence[str], rows: np.ndarray, blank: Sequence[int] = ()
) -> None:
    """The header, then the (S, C) float ``rows`` as round-trip reprs; the
    ``blank`` columns of ``header`` are empty cells, with no column in ``rows``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), CSV_CHUNK_ROWS):
            chunk = rows[start : start + CSV_CHUNK_ROWS]
            columns = iter(chunk.T.tolist())
            cells = [
                [""] * len(chunk) if j in blank else map(repr, next(columns))
                for j in range(len(header))
            ]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def cmd_exact(config: RunConfig, out_path: str) -> int:
    """Exact propagation; columns t_ns, p_excite, photon_exp, norm."""
    traj = propagate(config.params, config.schedule, config.t_final_ns, config.sample_dt_ns)
    p_exc = traj.excitation_probabilities(config.qubit_index)
    photons = traj.photon_expectations()
    norms = traj.norms()
    rows = np.column_stack((traj.times, p_exc, photons, norms))
    write_csv(out_path, ("t_ns", "p_excite", "photon_exp", "norm"), rows)
    return EXIT_OK


def cmd_perturb(config: RunConfig, out_path: str) -> int:
    """Perturbative pipeline; columns t_ns, p_excite, norm_truncated."""
    solution = build_engine(config)
    times = sample_times(config.t_final_ns, config.sample_dt_ns)
    amps = solution.amplitudes_at(times)
    p_exc = qubit_excitation(amps, solution.space, config.qubit_index)
    rows = np.column_stack((times, p_exc, norm(amps)))
    write_csv(out_path, ("t_ns", "p_excite", "norm_truncated"), rows)
    return EXIT_OK


def _closedform_column(
    config: RunConfig, times: np.ndarray
) -> tuple[Optional[np.ndarray], bool]:
    """Closed-form probabilities when the oracle applies, else (None, guard_hit)."""
    params = config.params
    if not (params.n_max >= 1 and config.order >= 2):
        return None, False
    if params.n_qubits >= 2 and degenerate(params):
        print(
            "closed-form column skipped: omega0_ghz equals omega_c_ghz, "
            "where the second-order closed form is singular",
            file=sys.stderr,
        )
        return None, True
    try:
        amps = closedform_state(times, params, config.schedule)
    except ResonanceError as exc:
        print(f"closed-form column skipped: {exc}", file=sys.stderr)
        return None, True
    return qubit_excitation(amps, params.space(), config.qubit_index), False


def build_engine(*configs: RunConfig) -> PerturbativeSolution:
    """The perturbation engine of the first config, up to its order, once its
    arrays on every config's grid are checked against the size budget.

    The configs may differ only in their grids (period and window), on which
    the engine is read through ``retimed``.
    """
    for config in configs:
        _check_size(config, engine=True)
    first = configs[0]
    return run_to_order(first.params, first.schedule, first.order, first.t_final_ns)


def exact_vs_pert(
    config: RunConfig, engine: PerturbativeSolution
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample times, exact and perturbative excitation probabilities of one run.

    ``engine`` may come from another switching period: it is retimed.
    """
    traj = propagate(config.params, config.schedule, config.t_final_ns, config.sample_dt_ns)
    p_exact = traj.excitation_probabilities(config.qubit_index)
    solution = engine.retimed(config.schedule, config.t_final_ns)
    p_pert = solution.excitation_probability(config.qubit_index, traj.times)
    return traj.times, p_exact, p_pert


def cmd_compare(config: RunConfig, out_path: str) -> int:
    """Exact vs perturbative vs closed form; summary of sup and RMS differences."""
    engine = build_engine(config)
    times, p_exact, p_pert = exact_vs_pert(config, engine)
    p_cf, guard_hit = _closedform_column(config, times)

    diff_pert = np.abs(p_exact - p_pert)
    diff_cf = None if p_cf is None else np.abs(p_exact - p_cf)
    columns = (times, p_exact, p_pert, p_cf, diff_pert, diff_cf)
    write_csv(
        out_path,
        ("t_ns", "p_exact", "p_pert", "p_closedform", "abs_diff_pert", "abs_diff_cf"),
        np.column_stack([c for c in columns if c is not None]),
        blank=[j for j, c in enumerate(columns) if c is None],
    )
    sup = float(diff_pert.max())
    rms = float(np.sqrt(np.mean(diff_pert**2)))
    summary = f"sup|p_exact - p_pert| = {sup:.6e}, rms = {rms:.6e}"
    if p_cf is not None:
        summary += (
            f"; sup|p_exact - p_closedform| = {float(diff_cf.max()):.6e}, "
            f"rms = {float(np.sqrt(np.mean(diff_cf**2))):.6e}"
        )
    print(summary)
    return EXIT_GUARD if guard_hit else EXIT_OK


def _sweep_point(
    point: RunConfig, engine: PerturbativeSolution
) -> tuple[float, float, float]:
    """One sweep row: (ratio, sup |p_exact - p_pert|, max p_pert)."""
    _, p_exact, p_pert = exact_vs_pert(point, engine)
    sup = float(np.abs(p_exact - p_pert).max())
    return point.switch_ratio, sup, float(p_pert.max())


def cmd_sweep(
    config: RunConfig,
    out_path: str,
    ratio_min: float,
    ratio_max: float,
    points: int,
) -> int:
    """Sweep the switching ratio; one row per ratio, in ascending order."""
    check_field("ratio_min", ratio_min, float)
    check_field("ratio_max", ratio_max, float)
    if not 0 < ratio_min < ratio_max:
        raise ConfigError(
            f"need 0 < ratio_min < ratio_max, got {ratio_min}, {ratio_max}"
        )
    check_field("points", points, int, within=(2, MAX_SWEEP_POINTS))
    span = ratio_max - ratio_min
    ratios = [ratio_min + span * i / (points - 1) for i in range(points - 1)] + [ratio_max]
    # the ratio sets only the grid: one engine serves every point, and every
    # point is checked against the size budget before the first runs
    configs = [replace(config, switch_ratio=r, switch_freq_ghz=None) for r in ratios]
    engine = build_engine(*configs)
    rows = np.array([_sweep_point(point, engine) for point in configs])
    write_csv(out_path, ("switch_ratio", "sup_abs_diff", "max_p_pert"), rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlesim",
        description=(
            "Simulate N qubits coupled to a resonator with periodically "
            "switched coupling beyond the rotating-wave approximation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("exact", "exact piecewise propagation"),
        ("perturb", "order-by-order perturbative pipeline"),
        ("compare", "exact vs perturbative vs closed form"),
        ("sweep", "switching-ratio sweep of the exact/perturbative difference"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="flat JSON config file")
        cmd.add_argument("--out", required=True, help="output CSV path")
        cmd.add_argument("--switch-ratio", type=float, default=None)
        cmd.add_argument("--order", type=int, default=None)
        cmd.add_argument("--t-final-ns", type=float, default=None)
        cmd.add_argument("--nmax", type=int, default=None)
        if name == "sweep":
            cmd.add_argument("--points", type=int, default=21)
            cmd.add_argument("--ratio-min", type=float, default=4.0)
            cmd.add_argument("--ratio-max", type=float, default=24.0)
            cmd.add_argument("--workers", type=int, help="no-op: points run serially")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "switch_ratio": args.switch_ratio,
        "order": args.order,
        "t_final_ns": args.t_final_ns,
        "n_max": args.nmax,
    }
    try:
        config = load_config(args.config, overrides)
        if args.command == "exact":
            return cmd_exact(config, args.out)
        if args.command == "perturb":
            return cmd_perturb(config, args.out)
        if args.command == "compare":
            return cmd_compare(config, args.out)
        return cmd_sweep(
            config,
            args.out,
            ratio_min=args.ratio_min,
            ratio_max=args.ratio_max,
            points=args.points,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
