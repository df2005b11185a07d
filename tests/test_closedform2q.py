import cmath
import functools
import math

import mpmath
import numpy as np
import pytest

from dlesim.closedform2q import (
    ResonanceError,
    alpha1_eg1,
    alpha1_ge1,
    alpha2_ee0,
    alpha2_gg0,
    closedform_state,
    divergence_locations,
    scan_divergence_locations,
)
from dlesim.engine import run_to_order
from dlesim.hilbert import qubit_excitation
from dlesim.model import TWO_PI, CouplingSchedule, SystemParams

W0 = TWO_PI * 5.439
WC = TWO_PI * 4.343
G = TWO_PI * 0.050
OMEGA_SUM = W0 + WC

# frozen 50-digit arbitrary-precision evaluations of the same expressions
GG0_RATIO20_T1 = complex(-8.8984338625353115953e-6, 8.1716349412097531415e-4)
EE0_RATIO10_T1 = complex(5.3593632939548974126e-5, -5.9950166208180918859e-5)
A1_RATIO20_T1 = complex(-1.6892107088072911747e-3, 2.4316505805699657092e-3)


def mp_alpha1(t, ratio):
    """50-digit evaluation, transcribed independently of the implementation."""
    with mpmath.workdps(50):
        w0 = 2 * mpmath.pi * mpmath.mpf("5.439")
        wc = 2 * mpmath.pi * mpmath.mpf("4.343")
        g0 = 2 * mpmath.pi * mpmath.mpf("0.050")
        w = w0 + wc
        ts = 2 * mpmath.pi / (ratio * w0)
        value = (
            g0
            / (2 * w)
            * (-1 + 2 * mpmath.exp(-1j * t * w) / (1 + mpmath.exp(1j * ts * w / 2)))
        )
        return complex(value)


def mp_alpha2_gg0(t, ratio):
    with mpmath.workdps(50):
        w0 = 2 * mpmath.pi * mpmath.mpf("5.439")
        wc = 2 * mpmath.pi * mpmath.mpf("4.343")
        g0 = 2 * mpmath.pi * mpmath.mpf("0.050")
        w = w0 + wc
        ts = 2 * mpmath.pi / (ratio * w0)
        phase = mpmath.exp(-1j * t * w)
        value = (
            g0**2
            * (
                1j * (2 * t + ts) * w
                - 2j * (1 + phase) * mpmath.tan(ts * w / 4)
                + 2 * phase
                - 2 * mpmath.sec(ts * w / 4) ** 2
            )
            / (4 * w**2)
        )
        return complex(value)


def mp_alpha2_ee0(t, ratio):
    with mpmath.workdps(50):
        w0 = 2 * mpmath.pi * mpmath.mpf("5.439")
        wc = 2 * mpmath.pi * mpmath.mpf("4.343")
        g0 = 2 * mpmath.pi * mpmath.mpf("0.050")
        w = w0 + wc
        ts = 2 * mpmath.pi / (ratio * w0)
        term1 = (
            2j
            * mpmath.exp(-1j * t * w)
            * (mpmath.tan(ts * w / 4) + 1j)
            / (w0**2 - wc**2)
        )
        term2 = (
            mpmath.exp(-2j * t * w0)
            * (
                2 * w0 * mpmath.tan(ts * (wc - w0) / 4) * (mpmath.tan(ts * w / 4) + 1j)
                - 2j * wc * mpmath.tan(ts * w0 / 2)
                + w0
                + wc
            )
            / (w0 * (w0 - wc) * (w0 + wc))
        )
        term3 = 1 / (w0**2 + w0 * wc)
        return complex(g0**2 * (term1 + term2 + term3) / 4)


def make_params(ratio=20.0, g_eff=G, omega0=W0, omega_c=WC, t_period=None):
    """(params, schedule) at N=2, n_max=1, with period 2*pi/(ratio*omega0)
    unless ``t_period`` is given."""
    params = SystemParams(omega0=omega0, omega_c=omega_c, g_eff=g_eff, n_qubits=2, n_max=1)
    if t_period is None:
        t_period = TWO_PI / (ratio * omega0)
    return params, CouplingSchedule(t_period=t_period)


def test_frozen_constants_match_high_precision_oracle():
    assert mp_alpha1(1.0, 20.0) == pytest.approx(A1_RATIO20_T1, rel=1e-15)
    assert mp_alpha2_gg0(1.0, 20.0) == pytest.approx(GG0_RATIO20_T1, rel=1e-15)
    assert mp_alpha2_ee0(1.0, 10.0) == pytest.approx(EE0_RATIO10_T1, rel=1e-15)


def test_implementation_tracks_oracle_on_a_grid():
    for ratio in (7.0, 20.0, 60.0):
        p = make_params(ratio=ratio)
        for t in (0.0, 0.31, 1.0, 2.7):
            assert alpha1_ge1(t, *p) == pytest.approx(mp_alpha1(t, ratio), rel=1e-11)
            assert alpha2_gg0(t, *p) == pytest.approx(
                mp_alpha2_gg0(t, ratio), rel=1e-11
            )
            assert alpha2_ee0(t, *p) == pytest.approx(
                mp_alpha2_ee0(t, ratio), rel=1e-10
            )


class TestAlpha1:
    def test_high_frequency_limit_is_time_averaged(self):
        # T -> 0 reduces to the constant-coupling solution at half amplitude
        p = make_params(t_period=1e-9 * TWO_PI / OMEGA_SUM)
        for t in (0.0, 0.4, 1.3):
            expected = G / (2 * OMEGA_SUM) * (cmath.exp(-1j * OMEGA_SUM * t) - 1)
            # the residual t=0 offset scales with the (tiny) remaining period
            assert alpha1_ge1(t, *p) == pytest.approx(expected, rel=1e-7, abs=1e-11)

    def test_twins_identical(self):
        p = make_params(ratio=7.3)
        for t in np.linspace(0, 2, 9):
            assert alpha1_ge1(float(t), *p) == alpha1_eg1(float(t), *p)

    def test_triangle_inequality_bound(self):
        params, schedule = make_params(ratio=9.1)
        denom = abs(1 + cmath.exp(0.5j * schedule.t_period * OMEGA_SUM))
        bound = G / (2 * OMEGA_SUM) * (1 + 2 / denom)
        for t in np.linspace(0, 3, 50):
            assert abs(alpha1_ge1(float(t), params, schedule)) <= bound * (1 + 1e-12)

    def test_nonzero_at_time_zero_for_finite_period(self):
        # the printed form drops the switching-pole residues, so it does not
        # vanish at t = 0 at finite period; the engine is the exact reference
        p = make_params(ratio=10.0)
        assert abs(alpha1_ge1(0.0, *p)) > 1e-5

    def test_frozen_spot_value(self):
        p = make_params(ratio=20.0)
        assert alpha1_ge1(1.0, *p) == pytest.approx(A1_RATIO20_T1, rel=1e-12)


class TestAlpha2Gg0:
    def test_secular_linear_growth(self):
        p = make_params(ratio=20.0)
        t0 = 50.0
        diff = alpha2_gg0(2 * t0, *p) - alpha2_gg0(t0, *p)
        secular = 1j * G**2 * t0 / (2 * OMEGA_SUM)
        assert abs(diff - secular) <= 0.01 * abs(secular)

    def test_quadratic_coupling_scaling(self):
        p1 = make_params(g_eff=G)
        p2 = make_params(g_eff=2 * G)
        for t in (0.3, 1.7):
            assert alpha2_gg0(t, *p2) == pytest.approx(4 * alpha2_gg0(t, *p1), rel=1e-12)

    def test_frozen_spot_value(self):
        p = make_params(ratio=20.0)
        assert alpha2_gg0(1.0, *p) == pytest.approx(GG0_RATIO20_T1, rel=1e-12)

    def test_vanishes_at_origin_in_fast_limit(self):
        p = make_params(t_period=1e-10 * TWO_PI / OMEGA_SUM)
        assert abs(alpha2_gg0(0.0, *p)) <= 1e-12 * G**2 / OMEGA_SUM**2


class TestAlpha2Ee0:
    def test_inverse_detuning_divergence_scaling(self):
        values = []
        for eps in (1e-2, 1e-3, 1e-4):
            varpi = 2 * W0 * (1 + eps)
            p = make_params(t_period=TWO_PI / varpi)
            values.append(abs(alpha2_ee0(1.0, *p)))
        for small, large in zip(values, values[1:]):
            assert 5.0 <= large / small <= 20.0

    def test_quadratic_coupling_scaling(self):
        p1 = make_params(g_eff=G)
        p2 = make_params(g_eff=2 * G)
        for t in (0.4, 2.2):
            assert alpha2_ee0(t, *p2) == pytest.approx(4 * alpha2_ee0(t, *p1), rel=1e-12)

    def test_frozen_spot_value(self):
        p = make_params(ratio=10.0)
        assert alpha2_ee0(1.0, *p) == pytest.approx(EE0_RATIO10_T1, rel=1e-12)

    def test_degenerate_frequencies_rejected(self):
        p = make_params(omega_c=W0, t_period=0.01)
        with pytest.raises(ValueError):
            alpha2_ee0(0.5, *p)


class TestGuards:
    @pytest.mark.parametrize("primary", [2 * W0, OMEGA_SUM])
    def test_resonance_refused_inside_band(self, primary):
        varpi = primary * (1 + 1e-8)
        p = make_params(t_period=TWO_PI / varpi)
        with pytest.raises(ResonanceError):
            alpha2_ee0(1.0, *p)

    def test_alias_poles_also_guarded(self):
        varpi = (2 * W0 / 3) * (1 + 1e-8)
        p = make_params(t_period=TWO_PI / varpi)
        with pytest.raises(ResonanceError):
            alpha2_ee0(1.0, *p)

    def test_evaluation_allowed_outside_band(self):
        varpi = 2 * W0 * (1 + 1e-4)
        p = make_params(t_period=TWO_PI / varpi)
        alpha2_ee0(1.0, *p)

    def test_sum_guard_only_for_first_order(self):
        # alpha1 carries only the sum-frequency denominator
        varpi = 2 * W0 * (1 + 1e-8)
        p = make_params(t_period=TWO_PI / varpi)
        alpha1_ge1(1.0, *p)
        with pytest.raises(ResonanceError):
            alpha1_ge1(1.0, *make_params(t_period=TWO_PI / (OMEGA_SUM * (1 + 1e-8))))


class TestClosedFormState:
    def test_one_photon_amplitudes_vanish_at_origin_fast_limit(self):
        p = make_params(t_period=1e-9 * TWO_PI / OMEGA_SUM)
        space = p[0].space()
        (row,) = closedform_state(0.0, *p)
        for bits in ((0, 1), (1, 0)):
            assert abs(row[space.index_of(bits, 1)]) <= 1e-9 * G

    def test_mirror_amplitudes_equal(self):
        p = make_params(ratio=8.0)
        space = p[0].space()
        rows = closedform_state(np.array([0.0, 0.9, 2.4]), *p)
        assert rows.shape == (3, space.dim)
        for row in rows:
            assert row[space.index_of((0, 1), 1)] == row[space.index_of((1, 0), 1)]

    def test_depends_only_on_effective_coupling(self):
        # any split of the coupling into bookkeeping-parameter times amplitude
        # with the same product gives the same state
        p1 = make_params(g_eff=G)
        (row1,) = closedform_state(1.1, *p1)
        (row2,) = closedform_state(1.1, *make_params(g_eff=G))
        assert np.array_equal(row1, row2)
        # homogeneity orders: alpha1 ~ g, alpha2 ~ g^2
        (row_double,) = closedform_state(1.1, *make_params(g_eff=2 * G))
        space = p1[0].space()
        ge1 = space.index_of((0, 1), 1)
        ee0 = space.index_of((1, 1), 0)
        assert row_double[ge1] == pytest.approx(2 * row1[ge1], rel=1e-12)
        assert row_double[ee0] == pytest.approx(4 * row1[ee0], rel=1e-12)

    def test_rows_match_scalar_coefficients(self):
        p = make_params(ratio=8.0)
        space = p[0].space()
        times = np.linspace(0.0, 3.0, 7)
        rows = closedform_state(times, *p)
        for t, row in zip(times, rows):
            t = float(t)
            expected = {
                ((0, 0), 0): 1.0 + alpha2_gg0(t, *p),
                ((1, 1), 0): alpha2_ee0(t, *p),
                ((0, 1), 1): alpha1_ge1(t, *p),
            }
            for (bits, photons), value in expected.items():
                # array and scalar exp may differ in the last bit
                assert abs(row[space.index_of(bits, photons)] - value) <= 1e-15


@functools.lru_cache(maxsize=None)
def gaps_against_engine(n_qubits, ratio):
    """A6's sup|diff|/max|alpha| of each closed-form amplitude against the
    engine, at N = n_qubits, n_max = 1, over 5 ns and 400 times: alpha1 over
    every |e_q,1>, gg0 at |g...g,0> and, where pairs exist, ee0 over every
    |e_q e_r,0>."""
    params = SystemParams(W0, WC, G, n_qubits, 1)
    schedule = CouplingSchedule.from_switching_frequency(ratio * W0)
    solution = run_to_order(params, schedule, 2, 5.0)
    space = params.space()
    excited, photons = space.excitation_counts, space.photon_counts
    times = np.linspace(0.0, 5.0, 400)
    closed = closedform_state(times, params, schedule)
    # the ground state's order-2 part, without its order-0 1 (exact placement
    # is checked in TestEveryN)
    closed[:, 0] = 0.5 * n_qubits * alpha2_gg0(times, params, schedule)
    classes = {
        "alpha1": (1, (excited == 1) & (photons == 1)),
        "gg0": (2, np.arange(space.dim) == 0),
        "ee0": (2, (excited == 2) & (photons == 0)),
    }
    gaps = {}
    for name, (order, mask) in classes.items():
        if mask.any():
            # every row of ``coefficient(order, ., t)``, all times at once
            engine = solution.amplitudes_at(times, order, min_order=order)[:, mask]
            gaps[name] = float(np.abs(engine - closed[:, mask]).max() / np.abs(engine).max())
    return gaps


class TestEveryN:
    """The N=2 forms, placed on the run's own basis by permutation symmetry."""

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
    def test_state_places_each_form_by_symmetry(self, n_qubits):
        params = SystemParams(W0, WC, G, n_qubits, 2)
        schedule = CouplingSchedule.from_switching_frequency(8.0 * W0)
        space = params.space()
        times = np.array([0.0, 0.9, 2.4])
        rows = closedform_state(times, params, schedule)
        assert rows.shape == (3, space.dim)
        expected = np.zeros_like(rows)
        expected[:, 0] = 1.0 + 0.5 * n_qubits * alpha2_gg0(times, params, schedule)
        for i in range(space.dim):
            excited, photons = space.excitation_counts[i], space.photon_counts[i]
            if (excited, photons) == (1, 1):
                expected[:, i] = alpha1_ge1(times, params, schedule)
            elif (excited, photons) == (2, 0):
                expected[:, i] = alpha2_ee0(times, params, schedule)
        assert np.array_equal(rows, expected)

    @pytest.mark.parametrize("ratio", [200.0, 20.0])
    @pytest.mark.parametrize("n_qubits", [1, 3, 4, 5])
    def test_engine_gaps_equal_two_qubits(self, n_qubits, ratio):
        gaps = gaps_against_engine(n_qubits, ratio)
        reference = gaps_against_engine(2, ratio)
        expected = {"alpha1", "gg0"} if n_qubits == 1 else {"alpha1", "gg0", "ee0"}
        assert set(gaps) == expected
        for name, gap in gaps.items():
            assert gap == pytest.approx(reference[name], rel=1e-9), name
            if ratio == 200.0:
                assert gap <= 0.05, name  # A6's bound


class TestBreakdownDiagnostic:
    def test_probability_exceeds_one_near_resonance(self):
        # the truncated state is not renormalized, so close to the
        # twice-qubit-frequency pole its excitation probability blows past 1;
        # 2e-5 relative detuning sits outside the 1e-6 guard band
        varpi = 2 * W0 * (1 + 2e-5)
        p = make_params(t_period=TWO_PI / varpi)
        rows = closedform_state(np.linspace(0.0, 2.0, 80), *p)
        assert qubit_excitation(rows, p[0].space(), 0).max() > 1.0


class TestDivergenceLocations:
    def test_paper_parameter_values(self):
        locs = sorted(divergence_locations(make_params()[0]))
        expected = sorted([2 * W0, OMEGA_SUM, W0 - WC])
        for got, want in zip(locs, expected):
            assert got == pytest.approx(want, rel=1e-12)
        assert locs[0] == pytest.approx(TWO_PI * 1.096, rel=1e-12)
        assert locs[1] == pytest.approx(TWO_PI * 9.782, rel=1e-12)
        assert locs[2] == pytest.approx(TWO_PI * 10.878, rel=1e-12)

    def test_degenerate_difference_flagged_at_zero(self):
        params, _ = make_params(omega_c=W0, t_period=0.01)
        assert 0.0 in divergence_locations(params)

    def test_independent_of_coupling_and_period(self):
        a = divergence_locations(make_params(ratio=5.0, g_eff=G)[0])
        b = divergence_locations(make_params(ratio=50.0, g_eff=3 * G)[0])
        assert a == b


class TestScan:
    def test_literal_window_finds_in_range_families(self):
        # over (0.5*w0, 25*w0) only the 2*w0 and sum families have zeros:
        # their primaries plus one /3 alias each; the difference family's
        # poles all sit below 0.5*w0
        params, _ = make_params()
        poles = scan_divergence_locations(params, 0.5 * W0, 25 * W0)
        roots = sorted(pole.varpi_s for pole in poles)
        expected_roots = sorted([2 * W0, 2 * W0 / 3, OMEGA_SUM, OMEGA_SUM / 3])
        assert len(roots) == 4
        for got, want in zip(roots, expected_roots):
            assert got == pytest.approx(want, rel=1e-9)
        primaries = {pole.family: pole.primary for pole in poles}
        assert primaries["twice qubit frequency"] == pytest.approx(2 * W0, rel=1e-9)
        assert primaries["sum frequency"] == pytest.approx(OMEGA_SUM, rel=1e-9)
        assert "difference frequency" not in primaries

    def test_extended_window_recovers_all_three_primaries(self):
        params, _ = make_params()
        poles = scan_divergence_locations(params, 0.05 * W0, 25 * W0)
        found = {}
        for pole in poles:
            found.setdefault(pole.family, []).append(pole.primary)
        for family, expected in [
            ("twice qubit frequency", 2 * W0),
            ("sum frequency", OMEGA_SUM),
            ("difference frequency", W0 - WC),
        ]:
            assert any(
                abs(primary - expected) <= 1e-9 * expected
                for primary in found[family]
            ), family

    def test_equal_frequencies_have_no_difference_poles(self):
        # at omega0 = omega_c the difference family's primary is 0: no poles
        params, _ = make_params(omega_c=W0)
        poles = scan_divergence_locations(params, 0.05 * W0, 25 * W0)
        assert poles
        assert {pole.family for pole in poles} <= {"twice qubit frequency", "sum frequency"}

    def test_alias_orders_recorded(self):
        params, _ = make_params()
        poles = scan_divergence_locations(params, 0.5 * W0, 25 * W0)
        orders = {
            (pole.family, pole.alias_order) for pole in poles
        }
        assert ("twice qubit frequency", 0) in orders
        assert ("twice qubit frequency", 1) in orders

    @pytest.mark.parametrize(
        "varpi_min, varpi_max, name",
        [
            (1.0, math.inf, "varpi_max"),
            (math.nan, 1.0, "varpi_min"),
            (True, 10.0, "varpi_min"),
            (0.0, 1.0, "varpi_min"),
            (2.0, 1.0, "varpi_max"),
            # windows whose grid steps past pi/2 in phase and could skip poles
            (1e-3, 1.0, "varpi_min"),
            (1e-300, 1e-299, "varpi_min"),
            (5e-324, 1.0, "varpi_min"),
        ],
    )
    def test_rejects_a_bad_bound_by_name(self, varpi_min, varpi_max, name):
        params, _ = make_params()
        with pytest.raises(ValueError, match=f"^{name} must be "):
            scan_divergence_locations(params, varpi_min, varpi_max)


class TestRandomDrawInvariants:
    def test_twin_equality_and_homogeneity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            w0 = rng.uniform(10, 60)
            wc = rng.uniform(10, 60)
            if abs(w0 - wc) < 1.0:
                continue
            ratio = rng.uniform(3.0, 40.0)
            g = rng.uniform(0.01, 0.5)
            p = make_params(ratio=ratio, g_eff=g, omega0=w0, omega_c=wc)
            p2 = make_params(ratio=ratio, g_eff=2 * g, omega0=w0, omega_c=wc)
            t = float(rng.uniform(0, 2))
            try:
                assert alpha1_ge1(t, *p) == alpha1_eg1(t, *p)
                assert alpha2_gg0(t, *p2) == pytest.approx(
                    4 * alpha2_gg0(t, *p), rel=1e-12
                )
                assert alpha2_ee0(t, *p2) == pytest.approx(
                    4 * alpha2_ee0(t, *p), rel=1e-12
                )
            except ResonanceError:
                continue
