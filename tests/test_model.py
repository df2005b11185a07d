import cmath
import math

import numpy as np
import pytest

from dlesim.hilbert import HilbertSpace
from dlesim.model import (
    TWO_PI,
    CouplingSchedule,
    LaplacePoleError,
    SystemParams,
    coupling_at,
    hamiltonian_matrix,
    laplace_coupling,
    locate,
    switching_grid,
)

W0 = TWO_PI * 5.439
WC = TWO_PI * 4.343
G = TWO_PI * 0.050


def make_params(n_qubits=2, n_max=1):
    return SystemParams(omega0=W0, omega_c=WC, g_eff=G, n_qubits=n_qubits, n_max=n_max)


class TestSystemParams:
    def test_rejects_nonpositive_frequencies(self):
        with pytest.raises(ValueError):
            SystemParams(omega0=0.0, omega_c=WC, g_eff=G, n_qubits=2, n_max=1)
        with pytest.raises(ValueError):
            SystemParams(omega0=W0, omega_c=-1.0, g_eff=G, n_qubits=2, n_max=1)

    def test_rejects_strong_coupling(self):
        with pytest.raises(ValueError):
            SystemParams(omega0=W0, omega_c=WC, g_eff=2 * WC, n_qubits=2, n_max=1)

    def test_state_energy(self):
        p = make_params()
        assert p.state_energy(1, 1) == pytest.approx(WC + W0)
        assert p.state_energy(0, 0) == 0.0


class TestCouplingSchedule:
    def test_period_frequency_roundtrip(self):
        sched = CouplingSchedule.from_switching_frequency(G, 20 * W0)
        assert sched.switching_frequency * sched.t_period == pytest.approx(
            TWO_PI, rel=1e-15
        )

    def test_square_wave_values(self):
        sched = CouplingSchedule(g0=G, t_period=2.0)
        assert coupling_at(sched, 0.0) == G
        assert coupling_at(sched, 0.75 * sched.t_period) == 0.0
        # right-continuity at the half-period switch
        assert coupling_at(sched, sched.half_period) == 0.0
        assert coupling_at(sched, sched.t_period) == G

    def test_periodicity(self):
        # sample away from the switching instants, where the discontinuity
        # makes float equality of t and t + T meaningless
        sched = CouplingSchedule(g0=G, t_period=0.7)
        for t in np.linspace(0.0, 3 * sched.t_period, 50):
            offset = math.fmod(float(t), sched.half_period)
            if min(offset, sched.half_period - offset) < 1e-9:
                continue
            assert coupling_at(sched, float(t)) == coupling_at(
                sched, float(t) + sched.t_period
            )

    def test_rejects_negative_time(self):
        sched = CouplingSchedule(g0=G, t_period=1.0)
        with pytest.raises(ValueError):
            coupling_at(sched, -0.1)


class TestLaplaceCoupling:
    def test_large_real_s_asymptote(self):
        # for sigma*T >> 1 only the first on half-period contributes: G -> g0/sigma
        sched = CouplingSchedule(g0=G, t_period=1.0)
        sigma = 60.0 / sched.t_period
        value = laplace_coupling(sched, sigma)
        assert value.real == pytest.approx(G / sigma, rel=1e-6)
        assert value.imag == 0.0

    def test_small_s_duty_cycle_average(self):
        # for sigma*T << 1 the transform approaches the mean coupling g0/2 over s
        sched = CouplingSchedule(g0=G, t_period=1.0)
        sigma = 1e-6 / sched.t_period
        value = laplace_coupling(sched, sigma)
        assert value.real == pytest.approx(G / (2 * sigma), rel=1e-5)

    def test_pole_family_detected(self):
        sched = CouplingSchedule(g0=G, t_period=1.0)
        with pytest.raises(LaplacePoleError):
            laplace_coupling(sched, 2j * math.pi / sched.t_period)
        with pytest.raises(LaplacePoleError):
            laplace_coupling(sched, 0.0)

    def test_matches_truncated_series(self):
        # partial sums of the defining series against the closed form
        sched = CouplingSchedule(g0=G, t_period=1.3)
        s = (1 + 1j) / sched.t_period
        ts = sched.t_period
        series = 1.0 + sum(
            cmath.exp(-k * ts * s)
            - 2 * cmath.exp(-(2 * k + 1) / 2 * ts * s)
            + cmath.exp(-(k + 1) * ts * s)
            for k in range(1000)
        )
        expected = sched.g0 / (2 * s) * series
        assert laplace_coupling(sched, s) == pytest.approx(expected, rel=1e-9)

    def test_series_equivalence_grid(self):
        sched = CouplingSchedule(g0=G, t_period=0.8)
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
            expected = sched.g0 / (2 * s) * series
            assert laplace_coupling(sched, s) == pytest.approx(expected, rel=1e-9)


class TestHamiltonian:
    def test_diagonal_when_uncoupled(self):
        p = make_params()
        h = hamiltonian_matrix(p, 0.0)
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
        space = HilbertSpace(2, 1)
        idx = space.index_of((0, 1), 1)
        assert h[idx, idx] == pytest.approx(WC + W0)

    def test_counter_rotating_element(self):
        p = make_params()
        space = HilbertSpace(2, 1)
        h = hamiltonian_matrix(p, 0.25)
        row = space.index_of((0, 1), 1)
        col = space.index_of((0, 0), 0)
        assert h[row, col] == pytest.approx(0.25 * math.sqrt(1))

    def test_rwa_element_sqrt_n(self):
        p = make_params(n_max=2)
        space = HilbertSpace(2, 2)
        h = hamiltonian_matrix(p, 0.25)
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
            h = hamiltonian_matrix(p, g)
            assert np.array_equal(h, h.conj().T)
            assert np.all(h.imag == 0.0)

    def test_block_structure_selection_rules(self):
        # off-diagonals connect (excitations, photons) differing by
        # (+-1, -+1) or (+-1, +-1) only
        p = make_params(n_qubits=3, n_max=2)
        space = HilbertSpace(3, 2)
        h = hamiltonian_matrix(p, 0.3)
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
        h = hamiltonian_matrix(p, 0.3)
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


class TestSwitchingGrid:
    def test_edges_cover_final_time(self):
        sched = CouplingSchedule(g0=G, t_period=1.0)
        edges = switching_grid(sched, 2.25)
        assert edges[0] == 0.0
        assert edges[-1] == 2.25
        assert np.all(np.diff(edges) > 0)
        assert np.allclose(edges[:-1], [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_exact_multiple(self):
        sched = CouplingSchedule(g0=G, t_period=1.0)
        edges = switching_grid(sched, 2.0)
        assert np.allclose(edges, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_single_segment_when_period_long(self):
        sched = CouplingSchedule(g0=G, t_period=50.0)
        edges = switching_grid(sched, 5.0)
        assert list(edges) == [0.0, 5.0]


class TestLocate:
    def test_edge_starts_next_segment(self):
        sched = CouplingSchedule(g0=G, t_period=1.0)
        edges = switching_grid(sched, 2.25)
        k, tau = locate(edges, np.array([0.0, 0.25, 0.5, 1.0, 1.75]))
        assert list(k) == [0, 0, 1, 2, 3]
        assert list(tau) == [0.0, 0.25, 0.0, 0.0, 0.25]

    def test_final_time_in_last_segment(self):
        sched = CouplingSchedule(g0=G, t_period=1.0)
        for t_final, last in ((2.25, 4), (2.0, 3)):
            edges = switching_grid(sched, t_final)
            k, tau = locate(edges, np.array([t_final]))
            assert k[0] == last == len(edges) - 2
            assert tau[0] == t_final - edges[last]

    @pytest.mark.parametrize("t", [-1e-9, -0.5, 2.25 + 1e-6, 3.0])
    def test_outside_window_rejected(self, t):
        edges = switching_grid(CouplingSchedule(g0=G, t_period=1.0), 2.25)
        with pytest.raises(ValueError, match="outside"):
            locate(edges, np.array([0.1, t]))
