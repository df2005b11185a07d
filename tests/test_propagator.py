import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from dlesim import propagator
from dlesim.hilbert import HilbertSpace, norm
from dlesim.model import (
    TWO_PI,
    CouplingSchedule,
    SystemParams,
    bare_energies,
    hamiltonian_matrix,
    locate,
    switching_grid,
)
from dlesim.propagator import (
    _SegmentPropagator,
    convergence_check,
    propagate,
    sample_times,
)

W0 = TWO_PI * 5.439
WC = TWO_PI * 4.343
G = TWO_PI * 0.050


def make_params(n_max=2, g_eff=G, n_qubits=2):
    return SystemParams(
        omega0=W0, omega_c=WC, g_eff=g_eff, n_qubits=n_qubits, n_max=n_max
    )


def basis_vector(space, index):
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[index] = 1.0
    return amps


def evolve_segment(h, dt, psi):
    """exp(-i*H*dt) psi for one constant Hermitian H."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    propagator = _SegmentPropagator(np.asarray(h, dtype=np.complex128))
    if dt == 0.0:
        return psi
    return propagator.advance(psi[None, :], np.array([float(dt)]))[0]


def walk_oracle(params, schedule, t_final, sample_dt, initial=0):
    """Reference walk: step sample by sample, splitting every step at the switches.

    This is the exact propagator before the shared grid walk, with its own
    tolerance for samples on a switching instant.  Returns (times, amplitudes).
    """
    space = params.space()
    psi = basis_vector(space, initial)
    decompositions = [
        np.linalg.eigh(hamiltonian_matrix(replace(params, g_eff=g), np.arange(space.dim)))
        for g in (params.g_eff, 0.0)
    ]

    def advance(psi, kind, dt):
        if dt == 0.0:
            return psi
        values, vectors = decompositions[kind]
        return vectors @ (np.exp(-1j * values * dt) * (vectors.conj().T @ psi))

    edges = switching_grid(schedule, t_final)
    n_seg = len(edges) - 1
    times = sample_times(t_final, sample_dt)
    tol = 1e-12 * max(1.0, t_final)
    out = np.empty((len(times), space.dim), dtype=np.complex128)
    t_cur = 0.0
    k = 0
    for i, ts in enumerate(times):
        while k < n_seg - 1 and edges[k + 1] < ts - tol:
            psi = advance(psi, k % 2, float(edges[k + 1]) - t_cur)
            t_cur = float(edges[k + 1])
            k += 1
        psi = advance(psi, k % 2, float(ts) - t_cur)
        t_cur = float(ts)
        out[i] = psi
        while k < n_seg - 1 and abs(float(edges[k + 1]) - t_cur) <= tol:
            k += 1
    return times, out


def mp_walk(params, schedule, times, initial=0, dps=30):
    """Reference walk at ``dps`` digits over the start's sector, one row per time.

    ``mp.expm`` of the on Hamiltonian gives the on map, the period map is
    raised to each sample's period count by squaring, and one more
    exponential takes the row into the sample's segment.  The doubles it is
    given (Hamiltonian, energies, T/2 and each local time from ``locate``) are
    taken as exact, so what it measures is the walk's own rounding.
    """
    space = params.space()
    states = space.sector(initial)
    segments, taus = locate(switching_grid(schedule, float(times[-1])), times)
    with mpmath.workdps(dps):
        h_on = mpmath.matrix(hamiltonian_matrix(params, states).real.tolist())
        energies = [mpmath.mpf(e) for e in bare_energies(params, space)[states].tolist()]

        def on(tau):
            return mpmath.expm(-1j * mpmath.mpf(tau) * h_on)

        def free(tau):
            return mpmath.diag([mpmath.expj(-e * mpmath.mpf(tau)) for e in energies])

        on_half = on(schedule.half_period)
        squarings = [free(schedule.half_period) * on_half]  # period map^(2^i)
        for _ in range(int(segments.max() // 2).bit_length() - 1):
            squarings.append(squarings[-1] * squarings[-1])
        start = mpmath.matrix([[float(state == initial)] for state in states.tolist()])
        rows = []
        for k, tau in zip(segments.tolist(), taus.tolist()):
            psi = start
            for i, power in enumerate(squarings):
                if (k // 2) >> i & 1:
                    psi = power * psi
            psi = free(tau) * (on_half * psi) if k % 2 else on(tau) * psi
            rows.append([complex(x) for x in psi])
    return states, np.array(rows)


def max_oracle_gap(params, schedule, t_final, sample_dt, initial=0):
    traj = propagate(params, schedule, t_final, sample_dt, initial)
    times, amplitudes = walk_oracle(params, schedule, t_final, sample_dt, initial)
    assert np.array_equal(traj.times, times)
    return float(np.max(np.abs(traj.amplitudes - amplitudes)))


class TestEvolveSegment:
    def test_zero_duration_is_identity(self):
        params = make_params()
        h = hamiltonian_matrix(params, np.arange(params.space().dim))
        psi = basis_vector(params.space(), 0)
        out = evolve_segment(h, 0.0, psi)
        assert np.array_equal(out, psi)

    def test_diagonal_hamiltonian_pure_phases(self):
        params = make_params(n_max=1)
        h = hamiltonian_matrix(replace(params, g_eff=0.0), np.arange(params.space().dim))
        space = params.space()
        rng = np.random.default_rng(0)
        amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        amps /= np.linalg.norm(amps)
        dt = 0.37
        out = evolve_segment(h, dt, amps)
        expected = amps * np.exp(-1j * np.diag(h).real * dt)
        assert np.allclose(out, expected, atol=1e-12)

    def test_two_level_rabi_closed_form(self):
        # 2x2 coupling-only block: amplitudes (cos g t, -i sin g t)
        space = HilbertSpace(1, 0)
        g = 0.8
        h = np.array([[0.0, g], [g, 0.0]], dtype=complex)
        psi = basis_vector(space, 0)
        for dt in (0.0, 0.3, 1.9):
            out = evolve_segment(h, dt, psi)
            assert out[0] == pytest.approx(np.cos(g * dt), abs=1e-12)
            assert out[1] == pytest.approx(-1j * np.sin(g * dt), abs=1e-12)

    def test_norm_preserved(self):
        params = make_params()
        h = hamiltonian_matrix(params, np.arange(params.space().dim))
        psi = basis_vector(params.space(), 0)
        out = evolve_segment(h, 3.3, psi)
        assert norm(out) == pytest.approx(1.0, abs=1e-12)


class TestPropagate:
    def test_zero_coupling_stays_ground(self):
        params = make_params(g_eff=0.0)
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        traj = propagate(params, schedule, 5.0, 0.1)
        assert np.all(traj.excitation_probabilities(0) == 0.0)
        assert np.all(traj.photon_expectations() == 0.0)

    def test_norm_one_at_final_time(self):
        params = make_params()
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        traj = propagate(params, schedule, 10.0, 0.05)
        assert abs(traj.norms()[-1] - 1.0) <= 1e-9

    def test_unitarity_across_many_segments(self):
        params = make_params(n_max=1)
        schedule = CouplingSchedule.from_switching_frequency(100 * W0)
        t_final = 15.0
        assert len(switching_grid(schedule, t_final)) - 1 >= 10_000
        traj = propagate(params, schedule, t_final, 0.25)
        assert np.max(np.abs(traj.norms() - 1.0)) <= 1e-9

    def test_norm_drift_over_a_long_window(self):
        # the exact-long benchmark point: 43.5k segments next to 2*omega0;
        # every squared period map is made unitary again, so the norm holds
        params = make_params(n_max=3)
        schedule = CouplingSchedule.from_switching_frequency(2.0 * (1 - 1e-4) * W0)
        t_final = 2000.0
        assert len(switching_grid(schedule, t_final)) - 1 >= 40_000
        traj = propagate(params, schedule, t_final, 0.05)
        assert np.max(np.abs(traj.norms() - 1.0)) <= 1e-13

    def test_reversibility(self):
        # e^{-i(-H)dt} = e^{+iH dt} inverts each segment step
        params = make_params()
        schedule = CouplingSchedule.from_switching_frequency(10 * W0)
        t_final = 3.0
        traj = propagate(params, schedule, t_final, t_final)
        psi = traj.amplitudes[-1]
        edges = switching_grid(schedule, t_final)
        h_on = hamiltonian_matrix(params, np.arange(params.space().dim))
        h_off = hamiltonian_matrix(replace(params, g_eff=0.0), np.arange(params.space().dim))
        for k in reversed(range(len(edges) - 1)):
            h = h_on if k % 2 == 0 else h_off
            psi = evolve_segment(-h, float(edges[k + 1] - edges[k]), psi)
        start = np.zeros(params.space().dim, dtype=complex)
        start[0] = 1.0
        assert np.max(np.abs(psi - start)) <= 1e-8

    def test_sampling_grid_independence(self):
        params = make_params()
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        coarse = propagate(params, schedule, 2.0, 0.2)
        fine = propagate(params, schedule, 2.0, 0.1)
        assert np.allclose(coarse.times, fine.times[::2])
        assert np.max(np.abs(coarse.amplitudes - fine.amplitudes[::2])) <= 1e-12

    def test_energy_constant_within_segment(self):
        params = make_params()
        schedule = CouplingSchedule(t_period=4.0)
        traj = propagate(params, schedule, 1.9, 0.1)
        h_on = hamiltonian_matrix(params, np.arange(params.space().dim))
        energies = [
            float(np.real(traj.amplitudes[i].conj() @ h_on @ traj.amplitudes[i]))
            for i in range(len(traj.times))
        ]
        assert np.max(np.abs(np.array(energies) - energies[0])) <= 1e-10

    def test_times_strictly_increasing(self):
        params = make_params()
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        traj = propagate(params, schedule, 1.0, 0.013)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 1.0

    def test_invalid_grid_rejected(self):
        params = make_params()
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        with pytest.raises(ValueError):
            propagate(params, schedule, -1.0, 0.1)
        with pytest.raises(ValueError):
            propagate(params, schedule, 1.0, 0.0)

    @pytest.mark.parametrize("initial", [0, 1])
    def test_amplitudes_off_the_sector_are_exactly_zero(self, initial):
        # index 1, |ge,0>, is an odd start: the other half of the basis
        params = make_params()
        space = params.space()
        off = np.ones(space.dim, dtype=bool)
        off[space.sector(initial)] = False
        assert off.sum() == space.dim // 2
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        traj = propagate(params, schedule, 2.0, 0.01, initial)
        assert np.all(traj.amplitudes[:, off] == 0.0)

    def test_decomposes_the_sector_alone(self, monkeypatch):
        shapes = []

        class Recording(_SegmentPropagator):
            def __init__(self, h):
                shapes.append(h.shape)
                super().__init__(h)

        monkeypatch.setattr(propagator, "_SegmentPropagator", Recording)
        params = make_params(n_qubits=3)
        reachable = len(params.space().sector(0))
        propagate(params, CouplingSchedule.from_switching_frequency(20 * W0), 1.0, 0.1)
        assert shapes == [(reachable, reachable)]
        assert reachable == params.space().dim // 2

    def test_initial_outside_the_basis_rejected(self):
        params = make_params()
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        for initial in (-1, params.space().dim, 1.5, True):
            with pytest.raises(ValueError, match="initial"):
                propagate(params, schedule, 1.0, 0.1, initial)


class TestGridWalk:
    """propagate against the sample-by-sample walk it replaced."""

    @pytest.mark.parametrize("per_period", [2, 3, 4])
    def test_samples_on_switching_instants(self, per_period):
        # sample_dt = T/2 puts every sample on an edge, T/3 every third one
        params = make_params()
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        sample_dt = schedule.t_period / per_period
        assert max_oracle_gap(params, schedule, 1.0, sample_dt) <= 1e-12

    @pytest.mark.parametrize("ratio", [2.5, 20.0])
    def test_partial_last_segment(self, ratio):
        params = make_params()
        schedule = CouplingSchedule.from_switching_frequency(ratio * W0)
        t_final = 7.3 * schedule.half_period
        edges = switching_grid(schedule, t_final)
        assert edges[-1] - edges[-2] < 0.5 * schedule.half_period
        assert max_oracle_gap(params, schedule, t_final, t_final / 17) <= 1e-12

    @pytest.mark.parametrize("ratio", [2.5, 20.0])
    def test_excited_initial_state(self, ratio):
        params = make_params()
        space = params.space()
        initial = space.index_of((1, 1), 1)
        schedule = CouplingSchedule.from_switching_frequency(ratio * W0)
        assert max_oracle_gap(params, schedule, 2.0, 0.013, initial) <= 1e-12

    def test_zero_coupling(self):
        params = make_params(g_eff=0.0)
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        assert max_oracle_gap(params, schedule, 1.0, 0.03, 5) <= 1e-12

    def test_many_segments(self):
        params = make_params(n_max=3)
        schedule = CouplingSchedule.from_switching_frequency(2.0 * W0)
        t_final = 40.0
        assert len(switching_grid(schedule, t_final)) - 1 > 800
        assert max_oracle_gap(params, schedule, t_final, 0.05) <= 1e-12

    def test_batches_span_all_samples(self):
        # 10,001 samples of dim 12: several evaluation batches per segment kind
        params = make_params()
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        assert max_oracle_gap(params, schedule, 1.0, 1e-4) <= 1e-12

    @pytest.mark.parametrize("ratio", [2.5, 20.0])
    @pytest.mark.parametrize("n_qubits", [1, 3])
    def test_other_qubit_counts(self, n_qubits, ratio):
        # the cases above at one and three qubits
        params = make_params(n_qubits=n_qubits)
        schedule = CouplingSchedule.from_switching_frequency(ratio * W0)
        h = schedule.half_period
        excited = params.space().index_of((1,) * n_qubits, 1)
        cases = [
            (params, 1.0, h, 0),  # every sample on a switching instant
            (params, 7.3 * h, 7.3 * h / 17, 0),  # a partial last segment
            (params, 2.0, 0.013, excited),
            (replace(params, g_eff=0.0), 1.0, 0.03, 5),
        ]
        for case_params, t_final, sample_dt, initial in cases:
            gap = max_oracle_gap(case_params, schedule, t_final, sample_dt, initial)
            assert gap <= 1e-12

    @pytest.mark.parametrize("n_qubits", [1, 3])
    def test_many_segments_at_other_qubit_counts(self, n_qubits):
        params = make_params(n_max=3, n_qubits=n_qubits)
        schedule = CouplingSchedule.from_switching_frequency(2.0 * W0)
        assert max_oracle_gap(params, schedule, 40.0, 0.05) <= 1e-12

    @pytest.mark.parametrize(
        "n_qubits, n_max, ratio, t_final, per_ns",
        [
            pytest.param(*case, id="-".join(map(str, case[:4])))
            for case in [
                # 8,703 segments, where walk_oracle's own rounding reaches 1.1e-12
                (1, 3, 20.0, 40.0, False),
                (2, 3, 20.0, 40.0, False),
                (3, 2, 20.0, 40.0, False),
                # exact-long's seed-0 point, the A4 mirror probe: 43,508 segments
                (2, 3, 2.0 * (1 - 1e-4), 2000.0, False),
                # A4's own probe, inside the resonance window: 43,517 segments
                (2, 3, 2.0 * (1 + 1e-4), 2000.0, True),
            ]
        ],
    )
    def test_long_window_matches_30_digit_walk(self, n_qubits, n_max, ratio, t_final, per_ns):
        # propagate keeps within 1e-16 per segment of the 30-digit walk.  Near
        # the resonance the gap grows with time instead (6.49e-12 measured at
        # the probe, past 4.35e-12 per segment), as the rounding of the sector
        # Hamiltonian's eigenvalues does: its gate is eps ||H_on||_2 per ns.
        params = make_params(n_max=n_max, n_qubits=n_qubits)
        schedule = CouplingSchedule.from_switching_frequency(ratio * W0)
        segments = len(switching_grid(schedule, t_final)) - 1
        assert segments > 8_000
        traj = propagate(params, schedule, t_final, t_final / 16)
        assert len(traj.times) == 17
        states, reference = mp_walk(params, schedule, traj.times)
        gap = np.abs(traj.amplitudes[:, states] - reference).max()
        if per_ns:
            h_on = np.linalg.norm(hamiltonian_matrix(params, states), 2)
            assert gap <= np.finfo(float).eps * h_on * t_final
        else:
            assert gap <= 1e-16 * segments

    def test_rows_do_not_depend_on_the_batch_size(self, monkeypatch):
        # one sample per batch: every on-segment product has a single row
        params = make_params()
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        batched = propagate(params, schedule, 1.0, 0.005).amplitudes
        monkeypatch.setattr(propagator, "_BATCH_ELEMENTS", 1)
        single = propagate(params, schedule, 1.0, 0.005).amplitudes
        assert np.array_equal(batched, single)


class TestSampleTimes:
    def test_includes_endpoints(self):
        times = sample_times(10.0, 0.01)
        assert times[0] == 0.0
        assert times[-1] == 10.0
        assert len(times) == 1001

    def test_non_divisible_final_time(self):
        times = sample_times(1.05, 0.2)
        assert times[-1] == 1.05
        assert np.all(np.diff(times) > 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_arguments(self, value):
        with pytest.raises(ValueError, match=f"^t_final must be a finite number, got {value}$"):
            sample_times(value, 0.01)
        with pytest.raises(ValueError, match=f"^sample_dt must be a finite number, got {value}$"):
            sample_times(1.0, value)


class TestConvergenceCheck:
    def test_zero_coupling_zero_difference(self):
        params = make_params(g_eff=0.0, n_max=1)
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        sup = convergence_check(params, schedule, 2.0)
        assert sup == 0.0
        assert sup <= 1e-4

    def test_paper_parameters_converged_at_two_photons(self):
        params = make_params(n_max=2)
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        sup = convergence_check(params, schedule, 5.0)
        assert sup < 1e-3
        assert sup <= 1e-4

    def test_monotone_in_cutoff_for_weak_coupling(self):
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        sups = []
        for n_max in (1, 2, 3):
            params = make_params(n_max=n_max)
            sups.append(convergence_check(params, schedule, 3.0))
        assert sups[0] >= sups[1] >= sups[2]

    def test_rejects_zero_cutoff(self):
        params = make_params(n_max=0)
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        with pytest.raises(ValueError):
            convergence_check(params, schedule, 1.0)

    @pytest.mark.parametrize("qubit_index", [2, -1, 0.0])
    def test_rejects_a_bad_qubit_index_before_propagating(self, monkeypatch, qubit_index):
        monkeypatch.setattr(propagator, "propagate", None)  # a call would raise TypeError
        schedule = CouplingSchedule.from_switching_frequency(20 * W0)
        with pytest.raises(ValueError, match="^qubit_index must be "):
            convergence_check(make_params(), schedule, 1.0, qubit_index)
