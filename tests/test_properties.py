"""Property tests of both pipelines over random physical parameters."""

import itertools
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dlesim import cli
from dlesim.closedform2q import _nearest_pole
from dlesim.engine import run_to_order
from dlesim.hilbert import HilbertSpace, check_number, qubit_excitation
from dlesim.model import (
    TWO_PI,
    CouplingSchedule,
    SystemParams,
    bare_energies,
    sample_times,
    switching_grid,
)
from dlesim.propagator import propagate
from test_csv import SPECIAL, assert_matches_reference
from test_engine import CONTOUR_TOL, W0, WC, contour_errors
from test_propagator import walk_oracle

frequencies = st.floats(min_value=TWO_PI * 2.0, max_value=TWO_PI * 8.0)


@settings(max_examples=40, deadline=None)
@given(
    omega0=frequencies,
    omega_c=frequencies,
    g_fraction=st.floats(min_value=0.0, max_value=0.1),
    ratio=st.floats(min_value=1.5, max_value=30.0),
    n_max=st.integers(min_value=1, max_value=3),
    t_final=st.floats(min_value=0.05, max_value=3.0),
    n_samples=st.integers(min_value=1, max_value=200),
)
def test_unitary_and_matches_walk_oracle(
    omega0, omega_c, g_fraction, ratio, n_max, t_final, n_samples
):
    g = g_fraction * min(omega0, omega_c)
    params = SystemParams(
        omega0=omega0, omega_c=omega_c, g_eff=g, n_qubits=2, n_max=n_max
    )
    schedule = CouplingSchedule.from_switching_frequency(ratio * omega0)
    sample_dt = t_final / n_samples
    traj = propagate(params, schedule, t_final, sample_dt)
    assert np.max(np.abs(traj.norms() - 1.0)) <= 1e-12
    times, amplitudes = walk_oracle(params, schedule, t_final, sample_dt)
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.amplitudes - amplitudes)) <= 1e-12


def swap_permutation(space, a, b):
    """Index map of the basis under exchange of qubits a and b."""
    perm = np.empty(space.dim, dtype=int)
    states = zip(space.bit_table.tolist(), space.photon_counts.tolist())
    for i, (bits, photons) in enumerate(states):
        bits[a], bits[b] = bits[b], bits[a]
        perm[i] = space.index_of(bits, photons)
    return perm


@settings(max_examples=30, deadline=None)
@given(
    n_qubits=st.integers(min_value=2, max_value=5),
    n_max=st.integers(min_value=0, max_value=4),
    omega0=frequencies,
    omega_c=frequencies,
)
def test_coupling_and_energies_invariant_under_qubit_swaps(
    n_qubits, n_max, omega0, omega_c
):
    params = SystemParams(
        omega0=omega0, omega_c=omega_c, g_eff=0.0, n_qubits=n_qubits, n_max=n_max
    )
    space = HilbertSpace(n_qubits, n_max)
    energies = bare_energies(params, space)
    for a, b in itertools.combinations(range(n_qubits), 2):
        perm = swap_permutation(space, a, b)
        assert np.array_equal(space.block(perm), space.block(np.arange(space.dim)))
        assert np.array_equal(energies[perm], energies)


@settings(max_examples=60, deadline=None)
@given(
    n_qubits=st.integers(min_value=1, max_value=5),
    n_max=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_sector_is_the_starts_closed_parity_class(n_qubits, n_max, data):
    space = HilbertSpace(n_qubits, n_max)
    start = data.draw(st.integers(min_value=0, max_value=space.dim - 1), label="start")
    indices = space.sector(start)
    assert np.all(np.diff(indices) > 0)
    sector = np.zeros(space.dim, dtype=bool)
    sector[indices] = True
    assert sector[start]
    rows, cols, _ = space.edges
    assert np.array_equal(sector[rows], sector[cols])
    parity = (space.photon_counts + space.excitation_counts) % 2
    if n_max >= 1:
        assert np.array_equal(sector, parity == parity[start])
    else:
        assert np.flatnonzero(sector).tolist() == [start]


@settings(max_examples=10, deadline=None)
@given(
    g_ghz=st.floats(min_value=0.05, max_value=0.15),
    ratio=st.floats(min_value=2.2, max_value=40.0),
    n_qubits=st.integers(min_value=1, max_value=3),
    n_max=st.integers(min_value=1, max_value=3),
    window=st.floats(min_value=0.0, max_value=1.0),
)
def test_orders_match_contour_integrals_at_random_points(g_ghz, ratio, n_qubits, n_max, window):
    # At the paper's frequencies.  t_final runs log-uniformly from 0.25 / g_eff
    # to 20 ns (g_eff t_final up to 19 rad); |psi(z)| grows like exp(|z| t),
    # and the contour's radius per order keeps its digits there.  Below
    # g = 0.05 GHz or 0.25 rad an order's share of psi(z) nears the walk's
    # rounding, and its relative error stops resolving the engine's
    params = SystemParams(W0, WC, TWO_PI * g_ghz, n_qubits, n_max)
    schedule = CouplingSchedule.from_switching_frequency(ratio * W0)
    shortest = 0.25 / params.g_eff
    t_final = shortest * (20.0 / shortest) ** window
    errors = contour_errors(params, schedule, t_final, sample_dt=t_final / 50)
    assert max(errors) <= CONTOUR_TOL, errors


@settings(max_examples=25, deadline=None)
@given(
    omega0=frequencies,
    omega_c=frequencies,
    g_fraction=st.floats(min_value=0.0, max_value=0.1),
    ratio=st.floats(min_value=1.5, max_value=30.0),
    n_qubits=st.integers(min_value=2, max_value=3),
    n_max=st.integers(min_value=0, max_value=2),
    order=st.integers(min_value=1, max_value=3),
)
def test_every_qubit_excited_alike(
    omega0, omega_c, g_fraction, ratio, n_qubits, n_max, order
):
    # identical qubits on one resonator, started in the ground state
    g = g_fraction * min(omega0, omega_c)
    params = SystemParams(
        omega0=omega0, omega_c=omega_c, g_eff=g, n_qubits=n_qubits, n_max=n_max
    )
    schedule = CouplingSchedule.from_switching_frequency(ratio * omega0)
    t_final = 1.0
    traj = propagate(params, schedule, t_final, t_final / 20)
    amps = run_to_order(params, schedule, order, t_final).amplitudes_at(traj.times)
    for amplitudes in (traj.amplitudes, amps):
        probabilities = np.array(
            [qubit_excitation(amplitudes, traj.space, q) for q in range(n_qubits)]
        )
        assert np.ptp(probabilities, axis=0).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    config=st.fixed_dictionaries(
        dict(
            omega0_ghz=st.floats(min_value=2.0, max_value=8.0),
            omega_c_ghz=st.floats(min_value=2.0, max_value=8.0),
            switch_ratio=st.floats(min_value=1.5, max_value=30.0),
            n_qubits=st.integers(min_value=1, max_value=3),
            n_max=st.integers(min_value=0, max_value=2),
            order=st.integers(min_value=0, max_value=3),
            t_final_ns=st.floats(min_value=0.05, max_value=5.0),
        )
    ),
    g_fraction=st.floats(min_value=0.0, max_value=0.1),
)
def test_cli_csv_byte_identical_across_runs(config, g_fraction):
    config["g_eff_ghz"] = g_fraction * min(config["omega0_ghz"], config["omega_c_ghz"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        for command in ("exact", "perturb", "compare"):
            runs = []
            for name in ("a.csv", "b.csv"):
                out = Path(tmp) / name
                code = cli.main([command, "--config", str(path), "--out", str(out)])
                assert code in (cli.EXIT_OK, cli.EXIT_GUARD)
                runs.append((code, out.read_bytes()))
            assert runs[0] == runs[1]


# every kind of value a JSON config can hold, and the extremes of each
config_values = st.one_of(
    st.floats(),  # nan, +-inf and subnormals included
    st.sampled_from([1e308, -1e308, 5e-324, 2.8e307]),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=2**1024, max_value=2**1100),
    st.sampled_from([True, False, None]),
    st.text(max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from([f.name for f in fields(cli.RunConfig)]), value=config_values)
def test_single_field_config_is_rejected_or_ready_to_run(field, value):
    try:
        config = cli.RunConfig(**{field: value})
    except cli.ConfigError:
        return
    assert isinstance(config.params, SystemParams)
    assert isinstance(config.schedule, CouplingSchedule)


def raised(error, check, *args, **kwargs):
    """The message of the ``error`` that ``check`` raises, or None."""
    try:
        check(*args, **kwargs)
    except error as exc:
        return str(exc)
    return None


json_values = st.recursive(
    config_values,
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(fields(cli.RunConfig)), value=json_values)
def test_config_check_is_the_library_check(field, value):
    """``check_field`` rejects a value exactly when ``check_number`` does, with
    its text; the one exception is a GHz value whose 2*pi multiple overflows."""
    bounds = {k: v for k, v in field.metadata.items() if k != "ghz"}
    library = raised(ValueError, check_number, field.name, value, **bounds)
    config = raised(cli.ConfigError, cli.check_field, field.name, value, **field.metadata)
    if library is None and config is not None:
        assert field.metadata.get("ghz"), config
        assert config.endswith(" GHz is not finite in rad/ns (times 2*pi)")
    else:
        assert config == library


@settings(max_examples=200, deadline=None)
@given(
    values=arrays(
        np.float64,
        st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=4)),
        elements=st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL),
    )
)
def test_csv_writer_bytes_equal_the_per_cell_writer(values):
    with tempfile.TemporaryDirectory() as tmp:
        assert_matches_reference(Path(tmp) / "out.csv", values)


def _near_a_pole(omega0, omega_c, switching):
    """Within 5% of a pole primary/(2m+1) of the closed-form families."""
    for primary in (2 * omega0, omega0 + omega_c, abs(omega0 - omega_c)):
        pole, _ = _nearest_pole(switching, primary)
        if pole is not None and abs(switching - pole) < 0.05 * pole:
            return True
    return False


@settings(max_examples=15, deadline=None)
@given(
    omega0=frequencies,
    omega_c=frequencies,
    ratio=st.floats(min_value=2.0, max_value=30.0),
    n_max=st.integers(min_value=1, max_value=2),
    t_final=st.floats(min_value=0.2, max_value=2.0),
    order=st.integers(min_value=1, max_value=2),
)
def test_truncation_gap_scales_as_next_order(omega0, omega_c, ratio, n_max, t_final, order):
    # away from the poles the first omitted order dominates the gap, so
    # log max|psi_exact - psi_J| against log g has slope J + 1
    assume(not _near_a_pole(omega0, omega_c, ratio * omega0))
    couplings = np.array([1e-3, 2e-3, 4e-3]) * min(omega0, omega_c)
    gaps = []
    for g in couplings:
        params = SystemParams(omega0=omega0, omega_c=omega_c, g_eff=g, n_qubits=2, n_max=n_max)
        schedule = CouplingSchedule.from_switching_frequency(ratio * omega0)
        traj = propagate(params, schedule, t_final, t_final / 40)
        amps = run_to_order(params, schedule, order, t_final).amplitudes_at(traj.times)
        gaps.append(np.linalg.norm(traj.amplitudes - amps, axis=1).max())
    slope = np.polyfit(np.log(couplings), np.log(gaps), 1)[0]
    assert abs(slope - (order + 1)) <= 0.02


@settings(max_examples=300, deadline=None)
@given(
    sample_dt=st.floats(min_value=1e-3, max_value=1e3),
    count=st.one_of(
        st.floats(min_value=1e-6, max_value=1e4),
        st.integers(min_value=1, max_value=10_000).map(float),  # a whole number of steps
    ),
)
def test_samples_and_edges_follow_one_rule(sample_dt, count):
    t_final = count * sample_dt
    times = sample_times(t_final, sample_dt)
    edges = switching_grid(CouplingSchedule(2 * sample_dt), t_final)
    assert times.tobytes() == edges.tobytes()
    assert times[0] == 0.0 and times[-1] == t_final
    assert np.all(np.diff(times) > 0)
