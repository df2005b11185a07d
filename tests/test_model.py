import cmath
import math
import runpy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dlesim import model
from dlesim.engine import run_to_order, zeroth_order
from dlesim.hilbert import HilbertSpace
from dlesim.model import (
    TWO_PI,
    CouplingSchedule,
    LaplacePoleError,
    SegmentWalk,
    SystemParams,
    bare_energies,
    hamiltonian_matrix,
    laplace_coupling,
    locate,
    period_starts,
    switching_grid,
)
from dlesim.propagator import convergence_check, propagate, sample_times

W0 = TWO_PI * 5.439
WC = TWO_PI * 4.343
G = TWO_PI * 0.050


def make_params(n_qubits=2, n_max=1):
    return SystemParams(omega0=W0, omega_c=WC, g_eff=G, n_qubits=n_qubits, n_max=n_max)


def coupling_at(schedule, t):
    """Unit square wave s(t), right-continuous at switches."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    phase = math.fmod(t, schedule.t_period)
    return 1.0 if phase < schedule.half_period else 0.0


class TestSystemParams:
    def test_rejects_nonpositive_frequencies(self):
        with pytest.raises(ValueError):
            SystemParams(omega0=0.0, omega_c=WC, g_eff=G, n_qubits=2, n_max=1)
        with pytest.raises(ValueError):
            SystemParams(omega0=W0, omega_c=-1.0, g_eff=G, n_qubits=2, n_max=1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["omega0", "omega_c", "g_eff"])
    def test_rejects_non_finite_physics(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number, got {value}$"):
            replace(make_params(), **{field: value})

    def test_rejects_a_bool_qubit_count(self):
        with pytest.raises(ValueError, match="^n_qubits must be an integer, got True$"):
            make_params(n_qubits=True)

    def test_rejects_a_non_integer_cutoff(self):
        with pytest.raises(ValueError, match=r"^n_max must be an integer, got 1\.5$"):
            make_params(n_max=1.5)

    def test_rejects_strong_coupling(self):
        with pytest.raises(ValueError):
            SystemParams(omega0=W0, omega_c=WC, g_eff=2 * WC, n_qubits=2, n_max=1)

    def test_space_shared_for_equal_sizes(self):
        other = SystemParams(omega0=WC, omega_c=W0, g_eff=0.0, n_qubits=2, n_max=1)
        assert make_params().space() is other.space()
        assert make_params(n_max=2).space().n_max == 2

    def test_state_energy(self):
        p = make_params()
        space = p.space()
        energies = bare_energies(p, space)
        assert energies[space.index_of((0, 1), 1)] == pytest.approx(WC + W0)
        assert energies[space.index_of((1, 1), 1)] == pytest.approx(WC + 2 * W0)
        assert energies[space.index_of((0, 0), 0)] == 0.0


class TestCouplingSchedule:
    def test_period_frequency_roundtrip(self):
        sched = CouplingSchedule.from_switching_frequency(20 * W0)
        assert sched.switching_frequency * sched.t_period == pytest.approx(
            TWO_PI, rel=1e-15
        )

    @pytest.mark.parametrize("t_period", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_period_not_finite_and_positive(self, t_period):
        with pytest.raises(ValueError, match="t_period"):
            CouplingSchedule(t_period=t_period)

    @pytest.mark.parametrize("frequency", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_frequency(self, frequency):
        message = f"^switching_frequency must be a finite number, got {frequency}$"
        with pytest.raises(ValueError, match=message):
            CouplingSchedule.from_switching_frequency(frequency)

    def test_rejects_frequency_whose_period_overflows(self):
        with pytest.raises(ValueError, match="t_period"):
            CouplingSchedule.from_switching_frequency(1e-320)

    def test_square_wave_values(self):
        sched = CouplingSchedule(t_period=2.0)
        assert coupling_at(sched, 0.0) == 1.0
        assert coupling_at(sched, 0.75 * sched.t_period) == 0.0
        # right-continuity at the half-period switch
        assert coupling_at(sched, sched.half_period) == 0.0
        assert coupling_at(sched, sched.t_period) == 1.0

    def test_periodicity(self):
        # sample away from the switching instants, where the discontinuity
        # makes float equality of t and t + T meaningless
        sched = CouplingSchedule(t_period=0.7)
        for t in np.linspace(0.0, 3 * sched.t_period, 50):
            offset = math.fmod(float(t), sched.half_period)
            if min(offset, sched.half_period - offset) < 1e-9:
                continue
            assert coupling_at(sched, float(t)) == coupling_at(
                sched, float(t) + sched.t_period
            )

    def test_rejects_negative_time(self):
        sched = CouplingSchedule(t_period=1.0)
        with pytest.raises(ValueError):
            coupling_at(sched, -0.1)


class TestLaplaceCoupling:
    def test_large_real_s_asymptote(self):
        # for sigma*T >> 1 only the first on half-period contributes: 1/sigma
        sched = CouplingSchedule(t_period=1.0)
        sigma = 60.0 / sched.t_period
        value = laplace_coupling(sched, sigma)
        assert value.real == pytest.approx(1 / sigma, rel=1e-6)
        assert value.imag == 0.0

    def test_small_s_duty_cycle_average(self):
        # for sigma*T << 1 the transform approaches the mean value 1/2 over s
        sched = CouplingSchedule(t_period=1.0)
        sigma = 1e-6 / sched.t_period
        value = laplace_coupling(sched, sigma)
        assert value.real == pytest.approx(1 / (2 * sigma), rel=1e-5)

    @pytest.mark.parametrize(
        "s", [math.nan, complex(math.nan, 1.0), 1j * math.inf, math.inf, True, np.True_, "1", None]
    )
    def test_rejects_a_bad_s_by_name(self, s):
        # none of these is a pole: nan and inf gave nan+nanj, "1" was taken as 1
        with pytest.raises(ValueError, match="^s must be a finite number, got "):
            laplace_coupling(CouplingSchedule(t_period=1.0), s)

    def test_pole_family_detected(self):
        sched = CouplingSchedule(t_period=1.0)
        with pytest.raises(LaplacePoleError):
            laplace_coupling(sched, 2j * math.pi / sched.t_period)
        with pytest.raises(LaplacePoleError):
            laplace_coupling(sched, 0.0)

    def test_matches_truncated_series(self):
        # partial sums of the defining series against the closed form
        sched = CouplingSchedule(t_period=1.3)
        s = (1 + 1j) / sched.t_period
        ts = sched.t_period
        series = 1.0 + sum(
            cmath.exp(-k * ts * s)
            - 2 * cmath.exp(-(2 * k + 1) / 2 * ts * s)
            + cmath.exp(-(k + 1) * ts * s)
            for k in range(1000)
        )
        expected = series / (2 * s)
        assert laplace_coupling(sched, s) == pytest.approx(expected, rel=1e-9)

    def test_series_equivalence_grid(self):
        sched = CouplingSchedule(t_period=0.8)
        ts = sched.t_period
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = complex(
                rng.uniform(0.2, 8.0) / ts, rng.uniform(-20.0, 20.0) / ts
            )
            series = 1.0 + sum(
                cmath.exp(-k * ts * s)
                - 2 * cmath.exp(-(2 * k + 1) / 2 * ts * s)
                + cmath.exp(-(k + 1) * ts * s)
                for k in range(10_000)
            )
            expected = series / (2 * s)
            assert laplace_coupling(sched, s) == pytest.approx(expected, rel=1e-9)


class TestHamiltonian:
    def test_diagonal_when_uncoupled(self):
        p = make_params()
        h = hamiltonian_matrix(replace(p, g_eff=0.0), np.arange(p.space().dim))
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
        space = HilbertSpace(2, 1)
        idx = space.index_of((0, 1), 1)
        assert h[idx, idx] == pytest.approx(WC + W0)

    def test_counter_rotating_element(self):
        p = make_params()
        space = HilbertSpace(2, 1)
        h = hamiltonian_matrix(replace(p, g_eff=0.25), np.arange(p.space().dim))
        row = space.index_of((0, 1), 1)
        col = space.index_of((0, 0), 0)
        assert h[row, col] == pytest.approx(0.25 * math.sqrt(1))

    def test_rwa_element_sqrt_n(self):
        p = make_params(n_max=2)
        space = HilbertSpace(2, 2)
        h = hamiltonian_matrix(replace(p, g_eff=0.25), np.arange(p.space().dim))
        # lowering a qubit while creating a photon on top of n=1 carries sqrt(2)
        row = space.index_of((0, 0), 2)
        col = space.index_of((0, 1), 1)
        assert h[row, col] == pytest.approx(0.25 * math.sqrt(2))

    def test_exactly_hermitian_random_params(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            w0 = rng.uniform(10, 60)
            wc = rng.uniform(10, 60)
            g = rng.uniform(0.0, 0.5)
            p = SystemParams(
                omega0=w0,
                omega_c=wc,
                g_eff=g,
                n_qubits=int(rng.integers(1, 4)),
                n_max=int(rng.integers(0, 4)),
            )
            h = hamiltonian_matrix(p, np.arange(p.space().dim))
            assert np.array_equal(h, h.conj().T)
            assert np.all(h.imag == 0.0)

    @pytest.mark.parametrize("n_qubits", range(1, 6))
    @pytest.mark.parametrize("n_max", range(5))
    def test_blocks_exactly_symmetric(self, n_qubits, n_max):
        # symmetric by construction: no Hermiticity check guards eigh
        p = make_params(n_qubits=n_qubits, n_max=n_max)
        space = p.space()
        for states in (space.sector(0), space.sector(1), np.arange(space.dim)):
            block = space.block(states)
            assert block.dtype == np.float64
            assert np.array_equal(block, block.T)
            h = hamiltonian_matrix(p, states)
            assert np.array_equal(h, h.conj().T)

    def test_block_structure_selection_rules(self):
        # off-diagonals connect (excitations, photons) differing by
        # (+-1, -+1) or (+-1, +-1) only
        p = make_params(n_qubits=3, n_max=2)
        space = HilbertSpace(3, 2)
        h = hamiltonian_matrix(replace(p, g_eff=0.3), np.arange(p.space().dim))
        for i in range(space.dim):
            for j in range(space.dim):
                if i == j or h[i, j] == 0:
                    continue
                de = int(space.excitation_counts[i]) - int(space.excitation_counts[j])
                dn = int(space.photon_counts[i]) - int(space.photon_counts[j])
                assert abs(de) == 1 and abs(dn) == 1

    def test_truncation_drops_out_of_space_terms(self):
        # with n_max=0 no photon exchange is possible at all
        p = make_params(n_max=0)
        h = hamiltonian_matrix(replace(p, g_eff=0.3), np.arange(p.space().dim))
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


class TestSwitchingGrid:
    def test_edges_cover_final_time(self):
        sched = CouplingSchedule(t_period=1.0)
        edges = switching_grid(sched, 2.25)
        assert edges[0] == 0.0
        assert edges[-1] == 2.25
        assert np.all(np.diff(edges) > 0)
        assert np.allclose(edges[:-1], [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_exact_multiple(self):
        sched = CouplingSchedule(t_period=1.0)
        edges = switching_grid(sched, 2.0)
        assert np.allclose(edges, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_single_segment_when_period_long(self):
        sched = CouplingSchedule(t_period=50.0)
        edges = switching_grid(sched, 5.0)
        assert list(edges) == [0.0, 5.0]

    @pytest.mark.parametrize("t_final", [1e-13, 1e-300])
    def test_tiny_window_has_one_segment(self, t_final):
        sched = CouplingSchedule.from_switching_frequency(20 * W0)
        assert list(switching_grid(sched, t_final)) == [0.0, t_final]

    @pytest.mark.parametrize("t_final", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_window(self, t_final):
        with pytest.raises(ValueError, match=f"^t_final must be a finite number, got {t_final}$"):
            switching_grid(CouplingSchedule(t_period=1.0), t_final)


def retimed_to(t_final):
    schedule = CouplingSchedule(t_period=1.0)
    return run_to_order(make_params(), schedule, 0, 1.0).retimed(schedule, t_final)


# (entry point, the field its message names, a call that passes it the value)
NUMBER_INPUTS = [
    ("SystemParams.omega0", "omega0", lambda v: replace(make_params(), omega0=v)),
    ("SystemParams.omega_c", "omega_c", lambda v: replace(make_params(), omega_c=v)),
    ("SystemParams.g_eff", "g_eff", lambda v: replace(make_params(), g_eff=v)),
    ("CouplingSchedule", "t_period", lambda v: CouplingSchedule(t_period=v)),
    ("from_switching_frequency", "switching_frequency", CouplingSchedule.from_switching_frequency),
    ("switching_grid", "t_final", lambda v: switching_grid(CouplingSchedule(t_period=1.0), v)),
    ("sample_times.t_final", "t_final", lambda v: sample_times(v, 0.01)),
    ("sample_times.sample_dt", "sample_dt", lambda v: sample_times(1.0, v)),
    ("retimed", "t_final", retimed_to),
    ("convergence_check", "t_final",
     lambda v: convergence_check(make_params(), CouplingSchedule(t_period=1.0), v)),
]
BAD_NUMBERS = [True, np.True_, 1j, "1", None, math.nan, math.inf, -math.inf, 0, -1]


@pytest.mark.parametrize(
    "field, call, value",
    [
        pytest.param(field, call, value, id=f"{entry}-{value!r}")
        for entry, field, call in NUMBER_INPUTS
        for value in BAD_NUMBERS
        if not (field == "g_eff" and value == 0)  # no coupling is a valid g_eff
    ],
)
def test_library_rejects_a_bad_number_by_name(field, call, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        call(value)


def reference_grid(schedule, t_final):
    """The edges as one list comprehension built them, i * h per edge."""
    h = schedule.half_period
    n_full = int(math.floor(t_final / h + 1e-12))
    edges = [i * h for i in range(n_full + 1)]
    if len(edges) == 1 or edges[-1] < t_final - 1e-12 * max(1.0, t_final):
        edges.append(t_final)
    else:
        edges[-1] = t_final
    return np.array(edges)


def test_switching_grid_matches_reference_to_the_bit():
    rng = np.random.default_rng(7)
    for _ in range(300):
        sched = CouplingSchedule(t_period=2 * float(rng.uniform(1e-3, 2.0)))
        h = sched.half_period
        for t_final in (
            float(rng.uniform(1e-3, 50.0)),
            int(rng.integers(1, 400)) * h,  # an exact multiple of h
            float(rng.uniform(0.01, 0.99)) * h,  # shorter than one segment
        ):
            edges = switching_grid(sched, t_final)
            expected = reference_grid(sched, t_final)
            assert edges.dtype == expected.dtype == np.float64
            assert edges.tobytes() == expected.tobytes()


def test_sample_times_end_at_t_final_exactly():
    # the last multiple of sample_dt is 1.95e-10 ns short, within 1e-12 * t_final
    times = sample_times(207.43035, 0.042488805817248)
    assert times[-1] == 207.43035
    assert np.all(np.diff(times) > 0)
    assert model.sample_times is sample_times  # made in model, imported by the propagator


SUBNORMAL_PERIOD = CouplingSchedule(t_period=1e-320)


@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("sample_dt", lambda: sample_times(1.0, 1e-320), id="sample_times"),
        pytest.param("t_period", lambda: switching_grid(SUBNORMAL_PERIOD, 1.0), id="switching_grid"),
        pytest.param(
            "t_period", lambda: propagate(make_params(), SUBNORMAL_PERIOD, 1.0, 0.01), id="propagate"
        ),
        pytest.param(
            "t_period", lambda: zeroth_order(make_params(), SUBNORMAL_PERIOD, 1.0).walk, id="walk"
        ),
    ],
)
def test_a_subnormal_step_is_refused_by_name(name, call):
    # a positive finite step, but 1.0 / step overflows: no count of steps to floor
    with pytest.raises(ValueError, match=f"^{name} is too small for t_final=1.0: "):
        call()


@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("sample_dt", lambda: sample_times(1.0, 1e-300), id="sample_times"),
        pytest.param(
            "t_period",
            lambda: switching_grid(CouplingSchedule(t_period=1e-300), 1.0),
            id="switching_grid",
        ),
        # 2^61 steps: finite, but past the 2^60 float64 elements an array may hold
        pytest.param("sample_dt", lambda: sample_times(2.0**61, 1.0), id="2^61 samples"),
    ],
)
def test_a_count_past_the_index_range_is_refused_by_name(name, call):
    # numpy's own refusal named no step; no count here could be allocated
    with pytest.raises(ValueError, match=f"^{name} is too small for t_final=.*past the index range$"):
        call()


@pytest.mark.parametrize("name", ["compare-deep", "exact-long", "sweep-ratio"])
def test_sample_times_match_the_bench_workloads_exactly(name):
    # bench/checks.py holds the CSV's times to these within 1e-9 only
    workloads = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    make = runpy.run_path(str(workloads))["make"]
    for seed in range(13):
        workload = make(name, seed)
        config = workload.config
        times = sample_times(config["t_final_ns"], config["sample_dt_ns"])
        assert times.tolist() == workload.sample_times, seed


class TestLocate:
    def test_edge_starts_next_segment(self):
        sched = CouplingSchedule(t_period=1.0)
        edges = switching_grid(sched, 2.25)
        k, tau = locate(edges, np.array([0.0, 0.25, 0.5, 1.0, 1.75]))
        assert list(k) == [0, 0, 1, 2, 3]
        assert list(tau) == [0.0, 0.25, 0.0, 0.0, 0.25]

    def test_final_time_in_last_segment(self):
        sched = CouplingSchedule(t_period=1.0)
        for t_final, last in ((2.25, 4), (2.0, 3)):
            edges = switching_grid(sched, t_final)
            k, tau = locate(edges, np.array([t_final]))
            assert k[0] == last == len(edges) - 2
            assert tau[0] == t_final - edges[last]

    @pytest.mark.parametrize("t", [-1e-9, -0.5, 2.25 + 1e-6, 3.0])
    def test_outside_window_rejected(self, t):
        edges = switching_grid(CouplingSchedule(t_period=1.0), 2.25)
        with pytest.raises(ValueError, match="outside"):
            locate(edges, np.array([0.1, t]))


def sequential_rows(first, period_map, count):
    rows = [first]
    for _ in range(count - 1):
        rows.append(rows[-1] @ period_map)
    return np.array(rows)


def unitary_map(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def block_triangular_map(n, orders, seed):
    """Free phases on the diagonal blocks, small couplings above: like the engine."""
    rng = np.random.default_rng(seed)
    m = np.zeros((orders * n, orders * n), dtype=np.complex128)
    phases = np.diag(np.exp(-1j * rng.uniform(0, TWO_PI, n)))
    blocks = [phases] + [
        0.05 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        for _ in range(orders - 1)
    ]
    for i in range(orders):
        for j in range(i, orders):
            m[i * n : (i + 1) * n, j * n : (j + 1) * n] = blocks[j - i]
    return m


class TestPeriodStarts:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 1000])
    def test_unitary_map_matches_sequential_products(self, count):
        period_map = unitary_map(6, seed=count)
        first = period_map[0].conj()
        got = period_starts(first, period_map, count)
        assert got.shape == (count, 6)
        want = sequential_rows(first, period_map, count)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 1000])
    def test_block_triangular_map_matches_sequential_products(self, count):
        period_map = block_triangular_map(4, 3, seed=count)
        first = np.zeros(12, dtype=np.complex128)
        first[1] = 1.0
        got = period_starts(first, period_map, count)
        want = sequential_rows(first, period_map, count)
        # the higher-order blocks grow like a polynomial in the period index
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("count, squarings", [(1, 0), (2, 0), (3, 1), (5, 2), (1000, 9)])
    def test_project_applied_to_each_squaring(self, count, squarings):
        calls = []

        def project(m):
            calls.append(m)
            return m

        period_map = unitary_map(3, seed=1)
        period_starts(period_map[0], period_map, count, project)
        assert len(calls) == squarings


def naive_segment_rows(edges, first, on_map, energies, h):
    """Row at the start of every segment, one segment's map at a time."""
    rows = [first]
    for k in range(len(edges) - 2):
        rows.append(rows[-1] @ on_map if k % 2 == 0 else rows[-1] * np.exp(-1j * energies * h))
    return np.array(rows)


def walk_all(walk, times, batch):
    """``sample``'s segment-start rows at every time, with the (on, tau) it passes
    joined, and the batches checked to tile the times in runs of ``batch``."""
    ons, taus = [], []

    def inside(on, tau, rows, step):
        assert np.array_equal(step, on & (tau > 0))
        ons.append(on)
        taus.append(tau)
        return rows

    width = walk.starts.shape[1]
    rows = walk.sample(times, batch, inside, np.arange(width), width)
    sizes = [len(tau) for tau in taus]
    assert sizes == [min(batch, len(times) - start) for start in range(0, len(times), batch)]
    return np.concatenate(ons), np.concatenate(taus), rows


class TestSegmentWalk:
    @pytest.mark.parametrize("t_final", [5.3, 5.0, 0.3])
    def test_matches_naive_segment_product(self, t_final):
        # 5.3: partial last segment; 5.0: t_final on a period edge; 0.3: one segment
        schedule = CouplingSchedule(t_period=1.0)
        h = schedule.half_period
        rng = np.random.default_rng(11)
        on_map = unitary_map(5, seed=3)
        energies = rng.uniform(-20.0, 20.0, 5)
        first = unitary_map(5, seed=4)[0]
        edges = switching_grid(schedule, t_final)
        times = np.sort(np.concatenate([
            edges,  # t = 0, every interior edge and t_final
            rng.uniform(0.0, t_final, 40),
            rng.uniform(edges[-2], t_final, 5),  # inside the last segment
        ]))
        walk = SegmentWalk(schedule, edges, first, on_map, energies)
        assert walk.edges is edges
        naive = naive_segment_rows(edges, first, on_map, energies, h)
        k, tau = locate(edges, times)

        on, got_tau, rows = walk_all(walk, times, len(times) + 5)
        assert np.array_equal(on, k % 2 == 0)
        assert np.array_equal(got_tau, tau)
        assert np.abs(rows - naive[k]).max() <= 1e-12
        for batch in (1, 7):
            again = walk_all(walk, times, batch)
            assert again[0].tobytes() == on.tobytes()
            assert again[1].tobytes() == got_tau.tobytes()
            assert again[2].tobytes() == rows.tobytes()

    def test_single_segment_grid_has_one_period_start(self):
        schedule = CouplingSchedule(t_period=1.0)
        edges = switching_grid(schedule, 0.3)
        first = np.array([0.6, 0.8j])
        walk = SegmentWalk(schedule, edges, first, unitary_map(2, seed=5), np.array([1.0, 2.0]))
        assert len(edges) == 2 and walk.starts.shape == (1, 2)
        on, tau, rows = walk_all(walk, np.array([0.0, 0.1, 0.3]), 2)
        assert on.all() and np.array_equal(tau, [0.0, 0.1, 0.3])
        assert np.array_equal(rows, np.tile(first, (3, 1)))

    def test_period_count_covers_the_last_segment(self):
        schedule = CouplingSchedule(t_period=1.0)
        for t_final, periods in ((0.5, 1), (0.75, 1), (1.0, 1), (1.2, 2), (1.6, 2), (2.1, 3)):
            edges = switching_grid(schedule, t_final)
            walk = SegmentWalk(schedule, edges, np.ones(3), np.eye(3), np.zeros(3))
            assert len(walk.starts) == periods
