import cmath
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from dlesim import engine
from dlesim.cli import response_bound
from dlesim.engine import (
    next_order,
    pert_excitation_probability,
    run_to_order,
    zeroth_order,
)
from dlesim.exppoly import ExpPoly, linear_combination
from dlesim.hilbert import HilbertSpace
from dlesim.model import (
    TWO_PI,
    CouplingSchedule,
    SegmentWalk,
    SystemParams,
    bare_energies,
    switching_grid,
)
from dlesim.propagator import propagate, sample_times

W0 = TWO_PI * 5.439
WC = TWO_PI * 4.343
G = TWO_PI * 0.050
OMEGA_SUM = W0 + WC


def make_params(n_max=1, g_eff=G):
    return SystemParams(omega0=W0, omega_c=WC, g_eff=g_eff, n_qubits=2, n_max=n_max)


def make_schedule(ratio=20.0):
    return CouplingSchedule.from_switching_frequency(ratio * W0)


def adjacency_of(space):
    """For each basis state, the (index, weight) pairs ``space.edges`` link it to,
    by index."""
    adjacency = [[] for _ in range(space.dim)]
    for i, j, weight in zip(*(array.tolist() for array in space.edges)):
        adjacency[i].append((j, weight))
    return [sorted(pairs) for pairs in adjacency]


class TestZerothOrder:
    def test_ground_start_is_constant_one(self):
        sol = zeroth_order(make_params(), make_schedule(), 1.0)
        for t in (0.0, 0.37, 1.0):
            assert sol.coefficient(0, 0, t) == pytest.approx(1.0)

    def test_other_coefficients_vanish(self):
        sol = zeroth_order(make_params(), make_schedule(), 1.0)
        for idx in range(1, sol.space.dim):
            assert sol.coefficient(0, idx, 0.61) == 0j

    def test_norm_is_one_for_all_times(self):
        sol = zeroth_order(make_params(), make_schedule(), 1.0)
        for t in np.linspace(0, 1, 7):
            assert np.linalg.norm(sol.amplitudes_at(float(t))) == pytest.approx(1.0, abs=1e-12)

    def test_excited_start_carries_free_phase(self):
        space = HilbertSpace(2, 1)
        idx = space.index_of((0, 1), 1)
        sol = zeroth_order(make_params(), make_schedule(), 1.0, initial=idx)
        t = 0.83
        expected = cmath.exp(-1j * OMEGA_SUM * t)
        assert sol.coefficient(0, idx, t) == pytest.approx(expected, rel=1e-10)


class TestNextOrder:
    def test_first_order_selection_rule(self):
        sol = zeroth_order(make_params(), make_schedule(), 1.0)
        table = next_order(sol)
        space = sol.space
        assert set(table.support) == {
            space.index_of((0, 1), 1),
            space.index_of((1, 0), 1),
        }

    def test_first_segment_analytic_solution(self):
        # inside the first on half-period: alpha1 = (g/W)(exp(-iWt) - 1)
        schedule = make_schedule()
        sol = run_to_order(make_params(), schedule, 1, 1.0)
        idx = sol.space.index_of((0, 1), 1)
        for frac in (0.2, 0.5, 0.9):
            t = frac * schedule.half_period
            expected = (G / OMEGA_SUM) * (cmath.exp(-1j * OMEGA_SUM * t) - 1)
            assert sol.coefficient(1, idx, t) == pytest.approx(expected, rel=1e-10)

    def test_zero_drive_gives_zero_orders(self):
        params = make_params(g_eff=0.0)
        schedule = make_schedule()
        sol = run_to_order(params, schedule, 2, 1.0)
        assert sol.support(1) == ()
        assert sol.support(2) == ()

    def test_mirrored_qubits_equal(self):
        sol = run_to_order(make_params(), make_schedule(), 1, 1.0)
        space = sol.space
        ge = space.index_of((0, 1), 1)
        eg = space.index_of((1, 0), 1)
        for t in np.linspace(0, 1, 9):
            assert sol.coefficient(1, ge, float(t)) == pytest.approx(
                sol.coefficient(1, eg, float(t)), rel=1e-12
            )


class TestRunToOrder:
    def test_order_zero_only(self):
        sol = run_to_order(make_params(), make_schedule(), 0, 1.0)
        assert sol.order == 0
        assert sol.excitation_probability(0, 0.7) == 0.0

    def test_second_order_support_nmax1(self):
        sol = run_to_order(make_params(n_max=1), make_schedule(), 2, 1.0)
        space = sol.space
        assert set(sol.support(2)) == {
            space.index_of((0, 0), 0),
            space.index_of((1, 1), 0),
        }

    def test_second_order_support_includes_two_photon_sector(self):
        sol = run_to_order(make_params(n_max=2), make_schedule(), 2, 1.0)
        space = sol.space
        assert set(sol.support(2)) == {
            space.index_of((0, 0), 0),
            space.index_of((1, 1), 0),
            space.index_of((0, 0), 2),
            space.index_of((1, 1), 2),
        }

    def test_lower_orders_never_rewritten(self):
        params, schedule = make_params(), make_schedule()
        sol1 = run_to_order(params, schedule, 1, 1.0)
        sol2 = run_to_order(params, schedule, 2, 1.0)
        idx = sol1.space.index_of((0, 1), 1)
        for t in np.linspace(0, 1, 11):
            assert sol1.coefficient(1, idx, float(t)) == sol2.coefficient(
                1, idx, float(t)
            )

    def test_higher_orders_vanish_at_time_zero(self):
        sol = run_to_order(make_params(n_max=2), make_schedule(), 2, 1.0)
        for j in (1, 2):
            for idx in sol.support(j):
                assert abs(sol.coefficient(j, idx, 0.0)) <= 1e-15

    def test_truncation_warning_counter(self):
        sol = run_to_order(make_params(n_max=1), make_schedule(), 2, 1.0)
        assert sol.dropped_couplings == (0, 0, 4)
        sol_default = run_to_order(make_params(n_max=2), make_schedule(), 2, 1.0)
        assert sol_default.dropped_couplings == (0, 0, 0)

    def test_rejects_initial_outside_the_basis(self):
        params = make_params()
        for initial in (-1, params.space().dim, 1.5, True):
            with pytest.raises(ValueError, match="initial"):
                run_to_order(params, make_schedule(), 2, 1.0, initial)

    @pytest.mark.parametrize("j_max", [-1, True, 2.0])
    def test_rejects_j_max_that_is_not_a_count(self, j_max):
        if j_max == -1:
            message = r"^j_max must be >= 0, got -1$"
        else:
            message = rf"^j_max must be an integer, got {re.escape(repr(j_max))}$"
        with pytest.raises(ValueError, match=message):
            run_to_order(make_params(), make_schedule(), j_max, 1.0)

    @pytest.mark.parametrize("t_final", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_window(self, t_final):
        with pytest.raises(ValueError, match=f"^t_final must be a finite number, got {t_final}$"):
            run_to_order(make_params(), make_schedule(), 2, t_final)


def walked_supports(space, start, order, coupled):
    """Per order 0..order, the states reached from ``start`` by walks of that
    many steps along ``space.edges``; none past order 0 unless ``coupled``."""
    rows, cols, _ = space.edges
    reached = np.zeros(space.dim, dtype=bool)
    reached[start] = True
    supports = []
    for _ in range(order + 1):
        supports.append(tuple(np.flatnonzero(reached).tolist()))
        stepped = np.zeros(space.dim, dtype=bool)
        stepped[rows[reached[cols]]] = coupled
        reached = stepped
    return supports


@pytest.mark.parametrize("n_qubits", range(1, 5))
@pytest.mark.parametrize("n_max", range(4))
@pytest.mark.parametrize(
    "omega0, g_eff", [(W0, G), (WC, G), (W0, 0.0)], ids=["paper", "resonant", "g=0"]
)
def test_support_and_dropped_couplings_follow_the_coupling_graph(n_qubits, n_max, omega0, g_eff):
    # the engine reads both from its responses; here they come from V's graph
    params = SystemParams(omega0, WC, g_eff, n_qubits, n_max)
    space = params.space()
    for start in range(space.dim):
        sol = run_to_order(params, make_schedule(), 4, 1.0, start)
        walked = walked_supports(space, start, 4, g_eff != 0.0)
        assert [sol.support(j) for j in range(5)] == walked, start
        at_cutoff = [int((space.photon_counts[list(s)] == n_max).sum()) for s in walked[:-1]]
        assert sol.dropped_couplings == (0, *(n_qubits * k for k in at_cutoff)), start


# (n_qubits, n_max, ratio, order): one to three qubits, cutoffs 1 to 3
SUPPORT_POINTS = [(1, 3, 2.5, 4), (2, 2, 20.0, 4), (3, 1, 200.0, 3)]


class TestReads:
    @pytest.mark.parametrize("n_qubits, n_max, ratio, order", SUPPORT_POINTS)
    def test_coefficient_is_exactly_zero_off_the_support(self, n_qubits, n_max, ratio, order):
        # the evaluator itself gives the zeros: coefficient consults no support
        params = SystemParams(W0, WC, G, n_qubits, n_max)
        sol = run_to_order(params, make_schedule(ratio), order, 1.0)
        times = np.linspace(0.0, 1.0, 7)
        for j in range(1, order + 1):
            off = sorted(set(range(sol.space.dim)) - set(sol.support(j)))
            assert off
            for idx, t in itertools.product(off, times):
                assert sol.coefficient(j, idx, float(t)) == 0j, (j, idx, float(t))

    @pytest.mark.parametrize("order", [-1, 3, True])
    def test_reads_reject_an_order_outside_the_solution(self, order):
        sol = run_to_order(make_params(), make_schedule(), 2, 1.0)
        if isinstance(order, bool):
            fault = rf"must be an integer, got {order}$"
        else:
            fault = rf"must be in \[0, 2\], got {order}$"
        with pytest.raises(ValueError, match=f"^order {fault}"):
            sol.coefficient(order, 0, 0.5)
        with pytest.raises(ValueError, match=f"^max_order {fault}"):
            sol.amplitudes_at(0.5, order)
        with pytest.raises(ValueError, match=f"^min_order {fault}"):
            sol.amplitudes_at(0.5, 2, min_order=order)
        with pytest.raises(ValueError, match=f"^order {fault}"):
            sol.support(order)

    @pytest.mark.parametrize("state", [-1, 8])
    def test_coefficient_rejects_a_state_outside_the_basis(self, state):
        sol = run_to_order(make_params(), make_schedule(), 2, 1.0)
        assert sol.space.dim == 8
        with pytest.raises(ValueError, match="^state_index"):
            sol.coefficient(1, state, 0.5)

    def test_scalar_time_is_row_zero_of_the_array_call(self):
        sol = run_to_order(make_params(n_max=2), make_schedule(7.3), 4, 1.0)
        for t in np.linspace(0.0, 1.0, 23):
            single = sol.amplitudes_at(float(t))
            assert single.shape == (sol.space.dim,)
            assert single.tobytes() == sol.amplitudes_at(np.array([t]))[0].tobytes()

    def test_order_reads_are_the_coefficients_and_sum_to_the_summed_read(self):
        # compare-deep's engine: N=2, n_max=4, order 4, ratio 20
        sol = run_to_order(make_params(n_max=4), make_schedule(), 4, 20.0)
        times = np.linspace(0.0, 20.0, 401)
        reads = [sol.amplitudes_at(times, j, min_order=j) for j in range(5)]
        for j, read in enumerate(reads):
            for idx, s in itertools.product(range(0, sol.space.dim, 3), range(0, 401, 57)):
                want = np.complex128(sol.coefficient(j, idx, float(times[s])))
                assert read[s, idx].tobytes() == want.tobytes(), (j, idx, float(times[s]))
        summed = sol.amplitudes_at(times)
        assert np.abs(sum(reads) - summed).max() <= 1e-15 * np.abs(summed).max()


class TestRetimed:
    @pytest.mark.parametrize("ratio", [2.5, 7.3, 20.0])
    @pytest.mark.parametrize("order", range(5))
    def test_equals_a_fresh_build(self, ratio, order):
        params, t_final = make_params(n_max=2), 3.0
        engine = run_to_order(params, make_schedule(11.0), order, 1.0)
        schedule = make_schedule(ratio)
        retimed = engine.retimed(schedule, t_final)
        fresh = run_to_order(params, schedule, order, t_final)
        times = np.linspace(0.0, t_final, 157)
        assert retimed.tables is engine.tables and retimed.levels is engine.levels
        assert retimed.walk.edges.tobytes() == fresh.walk.edges.tobytes()
        expected = fresh.amplitudes_at(times)
        assert retimed.amplitudes_at(times).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_qubits", range(1, 6))
@pytest.mark.parametrize("n_max", range(4))
def test_response_coefficients_within_budget_bound(n_qubits, n_max):
    params = SystemParams(
        omega0=W0, omega_c=WC, g_eff=G, n_qubits=n_qubits, n_max=n_max
    )
    solution = run_to_order(params, make_schedule(), 4, 0.1)
    for table in solution.tables:
        size = table.coeffs.size
        assert size <= response_bound(n_qubits, n_max, table.order)


@pytest.mark.parametrize("n_qubits", range(1, 6))
@pytest.mark.parametrize("n_max", range(4))
def test_budget_counts_match_the_engines_levels(n_qubits, n_max):
    # the size budget's R and L are exact at the paper's frequencies for
    # n_max >= 1, and upper bounds at n_max = 0 and at omega0 = omega_c
    _, reachable, n_levels = HilbertSpace.sizes(n_qubits, n_max)
    if n_max >= 1:
        assert len(HilbertSpace(n_qubits, n_max).sector(0)) == reachable
    for omega0, exact in ((W0, n_max >= 1), (WC, False)):
        params = SystemParams(omega0, WC, G, n_qubits, n_max)
        levels = zeroth_order(params, make_schedule(), 0.1).levels
        counts = len(levels.states), len(levels.values)
        if exact:
            assert counts == (reachable, n_levels)
        else:
            assert counts[0] <= reachable and counts[1] <= n_levels


class TestInvariants:
    def test_order_scaling_in_g0(self):
        params1, sched1 = make_params(g_eff=G), make_schedule()
        params2, sched2 = make_params(g_eff=2 * G), make_schedule()
        sol1 = run_to_order(params1, sched1, 2, 1.0)
        sol2 = run_to_order(params2, sched2, 2, 1.0)
        rng = np.random.default_rng(8)
        space = sol1.space
        cases = [(1, space.index_of((0, 1), 1)), (2, space.index_of((1, 1), 0))]
        for j, idx in cases:
            for t in rng.uniform(0.05, 1.0, size=5):
                a1 = sol1.coefficient(j, idx, float(t))
                a2 = sol2.coefficient(j, idx, float(t))
                assert a2 == pytest.approx(2**j * a1, rel=1e-10)

    def test_continuity_across_boundaries(self):
        sol = run_to_order(make_params(n_max=2), make_schedule(ratio=10.0), 2, 1.0)
        eps = 1e-10
        for j in (1, 2):
            for idx in sol.support(j):
                for edge in sol.walk.edges[1:-1]:
                    left = sol.coefficient(j, idx, float(edge) - eps)
                    right = sol.coefficient(j, idx, float(edge))
                    assert abs(left - right) <= 1e-9

    def test_ode_satisfied_pointwise(self):
        # centered finite difference of alpha_j against the defining equation
        params = make_params(n_max=2)
        schedule = make_schedule(ratio=12.0)
        sol = run_to_order(params, schedule, 2, 1.0)
        adjacency = adjacency_of(sol.space)
        rng = np.random.default_rng(17)
        h = 2e-7
        for j in (1, 2):
            prev_support = sol.support(j - 1)
            for idx in sol.support(j):
                energy = float(sol.levels.energies[np.searchsorted(sol.levels.states, idx)])
                for _ in range(4):
                    k = int(rng.integers(0, len(sol.walk.edges) - 1))
                    lo, hi = float(sol.walk.edges[k]), float(sol.walk.edges[k + 1])
                    t = float(rng.uniform(lo + 3 * h, hi - 3 * h))
                    g_here = params.g_eff if schedule.is_on(k) else 0.0
                    drive = sum(
                        w * sol.coefficient(j - 1, src, t)
                        for src, w in adjacency[idx]
                        if src in prev_support
                    )
                    expected = -1j * (
                        energy * sol.coefficient(j, idx, t) + g_here * drive
                    )
                    fd = (
                        sol.coefficient(j, idx, t + h)
                        - sol.coefficient(j, idx, t - h)
                    ) / (2 * h)
                    scale = max(abs(expected), 1e-12)
                    assert abs(fd - expected) <= 1e-6 * scale

    def test_constant_coupling_matches_exact_propagator(self):
        # degenerate schedule: period longer than twice the horizon
        t_final = 2.0
        params = make_params(n_max=2)
        schedule = CouplingSchedule(t_period=2 * t_final + 1.0)
        sol = run_to_order(params, schedule, 2, t_final)
        traj = propagate(params, schedule, t_final, 0.2)
        for i, t in enumerate(traj.times):
            if t == 0.0:
                continue
            diff = np.abs(sol.amplitudes_at(float(t)) - traj.amplitudes[i]).max()
            assert diff <= 10 * (G * float(t)) ** 3

    @pytest.mark.parametrize("ratio", [2.5, 20.0])
    def test_every_basis_start_matches_exact_propagator(self, ratio):
        # both pipelines take the same basis index as their initial state
        params, schedule = make_params(n_max=2), make_schedule(ratio)
        for initial in range(params.space().dim):
            traj = propagate(params, schedule, 1.0, 0.01, initial)
            sol = run_to_order(params, schedule, 4, 1.0, initial)
            gap = np.abs(sol.amplitudes_at(traj.times) - traj.amplitudes).max()
            assert gap <= 1e-4, (initial, gap)

    def test_half_amplitude_high_frequency_relation(self):
        # fast switching acts like a constant coupling at half amplitude
        t_final = 1.0
        params = make_params()
        fast = make_schedule(ratio=400.0)
        sol_fast = run_to_order(params, fast, 1, t_final)
        half_params = make_params(g_eff=G / 2)
        constant = CouplingSchedule(t_period=4 * t_final)
        sol_half = run_to_order(half_params, constant, 1, t_final)
        idx = sol_fast.space.index_of((0, 1), 1)
        scale = G / OMEGA_SUM
        for t in np.linspace(0.1, t_final, 7):
            a_fast = sol_fast.coefficient(1, idx, float(t))
            a_half = sol_half.coefficient(1, idx, float(t))
            assert abs(a_fast - a_half) <= 0.02 * scale


class TestExcitationProbability:
    def test_zero_at_time_zero(self):
        sol = run_to_order(make_params(), make_schedule(), 2, 1.0)
        assert pert_excitation_probability(sol, 0, 0.0) == pytest.approx(0.0, abs=1e-20)

    def test_time_zero_is_the_start_row_in_both_pipelines(self):
        # compare-deep's point: no step is taken at tau = 0, so both rows
        # are the start basis vector bit for bit
        params, schedule = make_params(n_max=4), make_schedule(20.0)
        start = np.zeros(params.space().dim, dtype=np.complex128)
        start[0] = 1.0
        assert np.array_equal(propagate(params, schedule, 20.0, 0.01).amplitudes[0], start)
        assert np.array_equal(run_to_order(params, schedule, 4, 20.0).amplitudes_at(0.0), start)

    def test_scalar_time_equals_the_array_call(self):
        sol = run_to_order(make_params(n_max=2), make_schedule(ratio=7.3), 4, 1.0)
        times = np.linspace(0.0, 1.0, 101)
        batched = sol.excitation_probability(0, times)
        assert [sol.excitation_probability(0, float(t)) for t in times] == batched.tolist()

    def test_zero_drive(self):
        sol = run_to_order(make_params(g_eff=0.0), make_schedule(), 2, 1.0)
        for t in (0.3, 0.9):
            assert pert_excitation_probability(sol, 0, t) == 0.0

    def test_zero_coupling_in_params_silences_both_pipelines(self):
        # the coupling is SystemParams.g_eff alone: the schedule only switches it
        params, schedule = replace(make_params(n_max=2), g_eff=0.0), make_schedule()
        traj = propagate(params, schedule, 1.0, 0.01)
        sol = run_to_order(params, schedule, 2, 1.0)
        for qubit in (0, 1):
            assert np.all(traj.excitation_probabilities(qubit) == 0.0)
            assert np.all(sol.excitation_probability(qubit, traj.times) == 0.0)

    def test_rejects_bad_qubit_index(self):
        sol = run_to_order(make_params(), make_schedule(), 1, 1.0)
        with pytest.raises(ValueError):
            pert_excitation_probability(sol, 5, 0.5)

    def test_rejects_out_of_range_time(self):
        sol = run_to_order(make_params(), make_schedule(), 1, 1.0)
        with pytest.raises(ValueError):
            sol.coefficient(1, 5, 1.5)


def segment_oracle(params, schedule, j_max, t_final, index=0):
    """Reference recursion: one ExpPoly per state, order and segment.

    Solves every segment of every order in local time, matching the value
    at each switch.  Returns the grid edges and, per order, a map from
    state index to its per-segment polynomials (nonzero states only).
    """
    space = params.space()
    edges = switching_grid(schedule, t_final)
    n_seg = len(edges) - 1
    durations = np.diff(edges)
    energies = params.omega_c * space.photon_counts + params.omega0 * space.excitation_counts
    adjacency = adjacency_of(space)
    g_eff = params.g_eff
    e0 = float(energies[index])
    tables = [
        {
            index: [
                ExpPoly.exponential(cmath.exp(-1j * e0 * float(edges[k])), -1j * e0)
                for k in range(n_seg)
            ]
        }
    ]
    for _ in range(j_max):
        prev = tables[-1]
        targets = sorted({t for i in prev for t, _ in adjacency[i]})
        table = {}
        for target in targets:
            energy = float(energies[target])
            sources = [(w, s) for s, w in adjacency[target] if s in prev]
            a_start = 0j
            polys = []
            nonzero = False
            for k in range(n_seg):
                dt = float(durations[k])
                if not (schedule.is_on(k) and g_eff != 0.0):
                    polys.append(ExpPoly.exponential(a_start, -1j * energy))
                    a_start *= cmath.exp(-1j * energy * dt)
                    nonzero = nonzero or a_start != 0
                    continue
                rhs = linear_combination([(w, prev[s][k]) for w, s in sources])
                driven = rhs.mul_exp(1j * energy).integrate_from(0.0).scale(-1j * g_eff)
                poly = driven.add(ExpPoly.constant(a_start)).mul_exp(-1j * energy)
                polys.append(poly)
                a_start = poly.eval(dt)
                nonzero = nonzero or not poly.is_zero()
            if nonzero:
                table[target] = polys
        tables.append(table)
    return edges, tables


def oracle_coefficient(edges, tables, order, index, t):
    polys = tables[order].get(index)
    if polys is None:
        return 0j
    k = int(np.searchsorted(edges, t, side="right")) - 1
    k = min(max(k, 0), len(edges) - 2)
    return polys[k].eval(t - float(edges[k]))


HALF_10 = 0.5 / (10.0 * W0 / TWO_PI)
BASIS_2_2 = HilbertSpace(2, 2)

ORACLE_CASES = {
    "ground ratio 2.5": (make_params(n_max=2), make_schedule(2.5), 0.3, 0),
    "ground ratio 10": (make_params(n_max=2), make_schedule(10.0), 0.2, 0),
    "ground ratio 20": (make_params(n_max=2), make_schedule(20.0), 0.12, 0),
    "excited ratio 10": (
        make_params(n_max=2),
        make_schedule(10.0),
        0.2,
        BASIS_2_2.index_of((1, 0), 0),
    ),
    "excited two-photon ratio 20": (
        make_params(n_max=2),
        make_schedule(20.0),
        0.1,
        BASIS_2_2.index_of((0, 1), 2),
    ),
    "partial last segment": (make_params(n_max=2), make_schedule(10.0), 7.4 * HALF_10, 0),
    "constant coupling": (
        make_params(n_max=2),
        CouplingSchedule(t_period=2 * 0.5 + 1.0),
        0.5,
        0,
    ),
    "zero coupling": (
        make_params(n_max=2, g_eff=0.0),
        make_schedule(10.0),
        0.2,
        BASIS_2_2.index_of((1, 0), 1),
    ),
}


class TestTransferMapAgainstSegmentOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_coefficients_match_oracle(self, case):
        params, schedule, t_final, initial = ORACLE_CASES[case]
        j_max = 4
        sol = run_to_order(params, schedule, j_max, t_final, initial)
        edges, tables = segment_oracle(params, schedule, j_max, t_final, initial)
        assert np.array_equal(sol.walk.edges, edges)
        times = np.concatenate([np.linspace(0.0, t_final, 23), edges[1:-1] + 1e-6 * HALF_10])
        times = np.clip(times, 0.0, t_final)
        for j in range(j_max + 1):
            assert sol.support(j) == tuple(sorted(tables[j]))
            for idx in range(sol.space.dim):
                for t in times:
                    got = sol.coefficient(j, idx, float(t))
                    want = oracle_coefficient(edges, tables, j, idx, float(t))
                    assert abs(got - want) <= 1e-12, (j, idx, float(t))

    def test_long_window_matches_oracle(self):
        # 435 segments: the start vectors stay exact across many switches
        params, schedule = make_params(n_max=2), make_schedule(20.0)
        sol = run_to_order(params, schedule, 2, 2.0)
        edges, tables = segment_oracle(params, schedule, 2, 2.0)
        for j in (1, 2):
            for idx in sol.support(j):
                for t in np.linspace(1.5, 2.0, 13):
                    got = sol.coefficient(j, idx, float(t))
                    want = oracle_coefficient(edges, tables, j, idx, float(t))
                    assert abs(got - want) <= 1e-12


class TestBatchedEvaluation:
    def test_amplitudes_at_equals_stacked_amplitudes(self):
        # 3,001 samples span several evaluation batches
        sol = run_to_order(make_params(n_max=4), make_schedule(), 4, 1.0)
        times = np.linspace(0.0, 1.0, 3001)
        batched = sol.amplitudes_at(times)
        assert batched.shape == (len(times), sol.space.dim)
        stacked = np.array([sol.amplitudes_at(float(t)) for t in times])
        assert np.array_equal(batched, stacked)

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_rows_do_not_depend_on_the_batch_size(self, monkeypatch, order):
        # one sample per batch: every on-segment product has a single row
        sol = run_to_order(make_params(n_max=2), make_schedule(), order, 1.0)
        times = np.linspace(0.0, 1.0, 201)
        batched = sol.amplitudes_at(times)
        monkeypatch.setattr(engine, "_BATCH_ELEMENTS", 1)
        assert np.array_equal(batched, sol.amplitudes_at(times))

    def test_max_order_truncates_sum(self):
        sol = run_to_order(make_params(n_max=2), make_schedule(), 3, 0.5)
        times = np.linspace(0.0, 0.5, 41)
        for max_order in range(4):
            want = sum(
                np.array([[sol.coefficient(j, i, float(t)) for i in range(sol.space.dim)]
                          for t in times])
                for j in range(max_order + 1)
            )
            got = sol.amplitudes_at(times, max_order)
            assert np.abs(got - want).max() <= 1e-14

    def test_excitation_probability_scalar_and_array(self):
        sol = run_to_order(make_params(), make_schedule(), 2, 1.0)
        times = np.linspace(0.0, 1.0, 11)
        batched = sol.excitation_probability(0, times)
        assert isinstance(batched, np.ndarray) and batched.shape == (11,)
        for t, p in zip(times, batched):
            single = sol.excitation_probability(0, float(t))
            assert isinstance(single, float)
            assert abs(single - p) <= 1e-15

    def test_rejects_out_of_range_batch(self):
        sol = run_to_order(make_params(), make_schedule(), 1, 1.0)
        with pytest.raises(ValueError):
            sol.amplitudes_at(np.array([0.2, 1.5]))
        with pytest.raises(ValueError):
            sol.amplitudes_at(np.array([np.nan]))


def test_response_builds_do_not_grow_with_window(monkeypatch):
    calls = [0]
    original = engine._next_response

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "_next_response", counting)
    counts = []
    for t_final in (5.0, 10.0):
        calls[0] = 0
        run_to_order(make_params(n_max=2), make_schedule(), 4, t_final)
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0


def test_engine_build_constructs_no_exppoly(monkeypatch):
    calls = [0]
    original = ExpPoly.__init__

    def counting(self, *args, **kwargs):
        calls[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(ExpPoly, "__init__", counting)
    solution = run_to_order(make_params(n_max=4), make_schedule(), 4, 2.0)
    solution.amplitudes_at(np.linspace(0.0, 2.0, 101))
    assert calls[0] == 0


def exppoly_response_oracle(space, energies, states, g0, j_max):
    """Phi_0..Phi_j_max by ExpPoly algebra, one entry at a time.

    ``responses[j][state][n]`` is the ExpPoly Phi_j[state, states[n]](tau);
    rows that vanish are left out.  Each entry is the previous order's
    drive, times the interaction phase, integrated from 0 and scaled.
    """
    adjacency = adjacency_of(space)
    n_states = len(states)
    rows = {
        int(state): tuple(
            ExpPoly.exponential(1.0, -1j * float(energies[state])) if m == n else ExpPoly.zero()
            for m in range(n_states)
        )
        for n, state in enumerate(states)
    }
    responses = [rows]
    for _ in range(j_max):
        prev, rows = responses[-1], {}
        for target in states.tolist():
            sources = [(w, prev[s]) for s, w in adjacency[target] if s in prev]
            if not sources:
                continue
            energy = float(energies[target])
            row = []
            for n in range(n_states):
                rhs = linear_combination([(w, polys[n]) for w, polys in sources])
                driven = rhs.mul_exp(1j * energy).integrate_from(0.0).scale(-1j * g0)
                row.append(driven.mul_exp(-1j * energy))
            if any(not poly.is_zero() for poly in row):
                rows[target] = tuple(row)
        responses.append(rows)
    return responses


def oracle_matrices(rows, states, taus):
    """The ExpPoly rows of one order as matrices over the states, (len(taus), R, R)."""
    out = np.zeros((len(taus), len(states), len(states)), dtype=np.complex128)
    for i, state in enumerate(states.tolist()):
        for n, poly in enumerate(rows.get(state, ())):
            if poly.terms:
                c, k, lam = (np.array(column) for column in zip(*poly.terms))
                out[:, i, n] = (c * taus[:, None] ** k * np.exp(lam * taus[:, None])).sum(1)
    return out


def coefficient_scale(table, h):
    """Per entry, sum_u |C_u| h^k_u: the size of the residue terms over [0, h].

    The residue form sums terms of about 1/(|E_i - eps_a| h)^j times the
    entry's value, so both it and any other evaluation lose digits in
    proportion to this size, not to the value.
    """
    n_states = len(table.levels.states)
    sizes = np.abs(table.coeffs.reshape(-1, n_states, n_states))
    return np.tensordot(h**table.powers, sizes, 1).T


# (omega0, omega_c): the paper's point, merged levels with secular terms
# at every order, and omega0 = 2 omega_c (secular from order 2)
RESPONSE_POINTS = {"paper": (W0, WC), "omega0=omega_c": (W0, W0), "omega0=2omega_c": (2 * WC, WC)}
RESPONSE_TOL = 1e-13


def response_cases(point, n_qubits):
    """Order-4 engines for n_max 0..3, each with its half periods at ratios 2.5, 20."""
    omega0, omega_c = RESPONSE_POINTS[point]
    for n_max in range(4):
        params = SystemParams(omega0, omega_c, G, n_qubits, n_max)
        solution = run_to_order(params, make_schedule(), 4, 1.0)
        yield solution, [np.pi / (ratio * omega0) for ratio in (2.5, 20.0)]


@pytest.mark.parametrize("n_qubits", range(1, 5))
@pytest.mark.parametrize("point", sorted(RESPONSE_POINTS))
def test_response_matches_exppoly_oracle(point, n_qubits):
    for solution, half_periods in response_cases(point, n_qubits):
        states = solution.levels.states
        energies = bare_energies(solution.params, solution.space)
        oracle = exppoly_response_oracle(solution.space, energies, states, G, 4)
        for h, (j, table) in itertools.product(half_periods, enumerate(solution.tables)):
            taus = np.linspace(0.0, h, 7)
            scale = coefficient_scale(table, h)
            for tau, want in zip(taus, oracle_matrices(oracle[j], states, taus)):
                got = table.matrix(tau)
                assert np.all(np.abs(got - want) <= RESPONSE_TOL * scale), (j, tau)


@pytest.mark.parametrize("n_qubits", range(1, 5))
@pytest.mark.parametrize("point", sorted(RESPONSE_POINTS))
def test_response_matches_van_loan_expm(point, n_qubits):
    # x_j' = -iE x_j - i g0 V x_{j-1} is one block-bidiagonal generator; its
    # exponential's first block column holds Phi_0..Phi_4 (Van Loan 1978).
    # A coupling of 1/h there keeps every block O(1); Phi_j scales as g0^j.
    linalg = pytest.importorskip("scipy.linalg")
    for solution, half_periods in response_cases(point, n_qubits):
        states = solution.levels.states
        n_states, n_orders = len(states), len(solution.tables)
        for h in half_periods:
            coupling = 1.0 / h
            free = np.diag(-1j * solution.levels.energies)
            drive = -1j * coupling * solution.space.block(states)
            generator = np.zeros((n_orders * n_states,) * 2, dtype=np.complex128)
            for j in range(n_orders):
                block = slice(j * n_states, (j + 1) * n_states)
                generator[block, block] = free
                if j:
                    generator[block, (j - 1) * n_states : j * n_states] = drive
            for tau in np.linspace(0.0, h, 7):
                flow = linalg.expm(generator * tau)
                for j, table in enumerate(solution.tables):
                    factor = (G / coupling) ** j
                    want = factor * flow[j * n_states : (j + 1) * n_states, :n_states]
                    scale = coefficient_scale(table, h)
                    bound = RESPONSE_TOL * (scale + factor * max(1.0, np.abs(flow).max()))
                    got = table.matrix(tau)
                    assert np.all(np.abs(got - want) <= bound), (j, tau)


def contour_orders(params, schedule, t_final, sample_dt, j_max, initial=0, nodes=32):
    """x_j(1), the order-j state at unit coupling, for j <= j_max at the sample
    times, by Cauchy integrals of the exact state psi(z) at complex coupling z.

    psi(z) is entire in z, and x_j(1) is its j-th Taylor coefficient, so it is
    (1/K) sum_k psi(z_k) z_k^-j over z_k = r e^(2 pi i k / K) (Lyness & Moler,
    SIAM J. Numer. Anal. 4, 202, 1967).  Each psi(z_k) walks ``SegmentWalk``
    over the full basis with H(z) = E + z V, complex symmetric: ``eig`` and its
    inverse give the on map, and nothing projects it.  No residue and no order
    recursion is shared with the engine.

    The radius is chosen per order on the ladder r_m = 4 g_eff 2^-m, m <= 12.
    |psi(z)| grows like e^(r ||V|| t), so a wide circle loses x_j to rounding,
    while a narrow one divides that rounding by r^j.  Order j keeps the rung
    whose estimate agrees best with the next rung's, by max|x_j(r_m) -
    x_j(r_{m+1})| / max|x_j(r_m)|, and the descent stops once every order has
    agreed within ``CONTOUR_AGREE`` or agreed worse than its best on each of
    the last two rungs.  Only the contour's own estimates choose;
    the engine is never read.  Returns (times, orders) with orders[j] of shape
    (len(times), dim).
    """
    space = params.space()
    energies = bare_energies(params, space)
    edges = switching_grid(schedule, t_final)
    times = sample_times(t_final, sample_dt)
    first = np.zeros(space.dim, dtype=np.complex128)
    first[initial] = 1.0
    coupling = space.block(np.arange(space.dim))

    def psi(z):
        """The exact state at coupling z, one row per sample time."""
        values, vectors = np.linalg.eig(np.diag(energies) + z * coupling)
        inverse = np.linalg.inv(vectors)

        def advance(rows, taus):
            """Rows (exp(-i H(z) tau) psi)^T for rows psi^T."""
            return (rows @ inverse.T) * np.exp(-1j * np.outer(taus, values)) @ vectors.T

        def inside(on, tau, rows, step):
            rows[~on] *= np.exp(-1j * np.outer(tau[~on], energies))
            rows[step] = advance(rows[step], tau[step])
            return rows

        on_map = advance(np.eye(space.dim), np.full(space.dim, schedule.half_period))
        walk = SegmentWalk(schedule, edges, first, on_map, energies)
        return walk.sample(times, len(times), inside, np.arange(space.dim), space.dim)

    def rung(radius):
        """Every order's estimate on the circle of this radius, (j_max + 1, S, dim)."""
        z = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        powers = z[:, None] ** -np.arange(j_max + 1)
        return sum(p[:, None, None] * psi(z_k) for z_k, p in zip(z, powers)) / nodes

    radii = 4.0 * params.g_eff * 2.0 ** -np.arange(13)
    previous = rung(radii[0])
    kept = previous.copy()
    best = np.full(j_max + 1, np.inf)
    worse = np.zeros(j_max + 1, dtype=int)  # rungs since each order's best
    for radius in radii[1:]:
        current = rung(radius)
        scale = np.abs(previous).max(axis=(1, 2))
        agree = np.abs(previous - current).max(axis=(1, 2)) / scale
        better = agree < best
        kept[better] = previous[better]
        best[better] = agree[better]
        worse = np.where(better, 0, worse + 1)
        if np.all((best <= CONTOUR_AGREE) | (worse >= 2)):
            break
        previous = current
    return times, kept


def contour_errors(params, schedule, t_final, j_max=4, sample_dt=0.01):
    """Per order j, max|engine - contour| / max|engine| over the samples, with the
    engine's order j read alone at unit coupling,
    ``amplitudes_at(times, j, min_order=j) / g_eff**j``."""
    times, orders = contour_orders(params, schedule, t_final, sample_dt, j_max)
    solution = run_to_order(params, schedule, j_max, t_final)
    errors = []
    for j in range(j_max + 1):
        engine_j = solution.amplitudes_at(times, j, min_order=j) / params.g_eff**j
        errors.append(np.abs(engine_j - orders[j]).max() / np.abs(engine_j).max())
    return errors


CONTOUR_TOL = 1e-8
# the radius ladder stops once every order has had two successive rungs agree this
# well, or has agreed worse than its best on each of the last two rungs
CONTOUR_AGREE = 1e-9
# (n_qubits, n_max, ratio, t_final ns, g GHz) at the paper's frequencies
CONTOUR_CASES = [
    (2, 8, 20.0, 5.0, 0.05),
    (2, 8, 2.5, 5.0, 0.05),
    (2, 8, 20.0, 20.0, 0.05),
    (5, 3, 20.0, 5.0, 0.05),
    (3, 3, 2.5, 20.0, 0.15),
    (3, 3, 20.0, 20.0, 0.15),
    (1, 1, 36.5, 1.35, 0.051),
]


@pytest.mark.parametrize("n_qubits, n_max, ratio, t_final, g_ghz", CONTOUR_CASES)
def test_orders_match_contour_integrals_of_the_exact_walk(n_qubits, n_max, ratio, t_final, g_ghz):
    params = SystemParams(W0, WC, TWO_PI * g_ghz, n_qubits, n_max)
    errors = contour_errors(params, make_schedule(ratio), t_final)
    assert max(errors) <= CONTOUR_TOL, errors


def check_rows_canonical(solution):
    """Every table's ExpPoly rows are canonical and evaluate to its matrix."""
    taus = np.linspace(0.0, solution.schedule.half_period, 5)
    for table in solution.tables:
        rows = table.coefficients
        assert set(rows) <= set(solution.levels.states.tolist())
        for row in rows.values():
            assert all(ExpPoly(poly.terms) == poly for poly in row)
        want = np.stack([table.matrix(tau) for tau in taus])
        got = oracle_matrices(rows, solution.levels.states, taus)
        assert np.abs(got - want).max() <= 1e-15 * max(1.0, np.abs(want).max())


def test_exppoly_rows_are_canonical():
    check_rows_canonical(run_to_order(make_params(n_max=4), make_schedule(), 4, 1.0))


@pytest.mark.parametrize(
    "params", [make_params(n_max=2, g_eff=0.0), make_params(n_max=0)], ids=["g_eff=0", "n_max=0"]
)
def test_orders_without_coupling_have_no_rows(params):
    # nothing drives past order 0, so every later table has no terms
    solution = run_to_order(params, make_schedule(), 4, 1.0)
    assert solution.tables[0].coefficients
    for table in solution.tables[1:]:
        assert table.n_terms == 0 and table.coefficients == {}
    check_rows_canonical(solution)
