"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.  Reference parameters throughout: omega0 = 2*pi*5.439,
omega_c = 2*pi*4.343, g_eff = 2*pi*0.050 (rad/ns).

One criterion (A4, exact-dynamics bound at the +1e-4 probe) is implemented
exactly as stated and is expected to fail: the exact two-photon resonance
of this model sits slightly above the bare divergence frequency (the
counter-rotating terms shift it by about +7.5e-5 relative), so the stated
probe lands on the exact line center where the exact excitation reaches
0.96 for every window and cutoff.  The companion test probes the mirror
detuning at the same 1e-4 relative offset, where the intended contrast
holds at the stated tolerances.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from dlesim.cli import RunConfig, cmd_compare
from dlesim.closedform2q import (
    alpha1_eg1,
    alpha1_ge1,
    alpha2_ee0,
    alpha2_gg0,
    scan_divergence_locations,
)
from dlesim.engine import run_to_order
from dlesim.exppoly import RATE_MERGE_TOL, ExpPoly
from dlesim.model import TWO_PI, CouplingSchedule, SystemParams
from dlesim.propagator import propagate

W0 = TWO_PI * 5.439
WC = TWO_PI * 4.343
G = TWO_PI * 0.050
OMEGA_SUM = W0 + WC


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def paper_params(n_max: int) -> SystemParams:
    return SystemParams(omega0=W0, omega_c=WC, g_eff=G, n_qubits=2, n_max=n_max)


def schedule_at_ratio(ratio: float) -> CouplingSchedule:
    return CouplingSchedule.from_switching_frequency(ratio * W0)


def sup_difference(ratio: float, t_final: float = 10.0, sample_dt: float = 0.01):
    """(sup_t |P_exact - P_pert|, max_t P_exact) over [0, t_final]."""
    params = paper_params(n_max=2)
    schedule = schedule_at_ratio(ratio)
    traj = propagate(params, schedule, t_final, sample_dt)
    p_exact = traj.excitation_probabilities(0)
    solution = run_to_order(params, schedule, 2, t_final)
    p_pert = np.array(
        [solution.excitation_probability(0, float(t)) for t in traj.times]
    )
    return float(np.abs(p_exact - p_pert).max()), float(p_exact.max())


@pytest.fixture(scope="module")
def agreement_by_ratio():
    start = time.perf_counter()
    results = {ratio: sup_difference(ratio) for ratio in (20.0, 10.0, 5.0)}
    results["elapsed"] = time.perf_counter() - start
    return results


def breakdown_run(eps: float, t_final: float = 500.0, sample_dt: float = 0.05):
    """(max_t P_pert, max_t P_exact) near the twice-qubit-frequency divergence."""
    varpi = 2 * W0 * (1 + eps)
    schedule = CouplingSchedule.from_switching_frequency(varpi)
    params = paper_params(n_max=2)
    traj = propagate(params, schedule, t_final, sample_dt)
    p_exact = traj.excitation_probabilities(0)
    solution = run_to_order(params, schedule, 2, t_final)
    p_pert = np.array(
        [solution.excitation_probability(0, float(t)) for t in traj.times]
    )
    return float(p_pert.max()), float(p_exact.max())


def test_a1_unitarity():
    start = time.perf_counter()
    traj = propagate(paper_params(n_max=3), schedule_at_ratio(20.0), 20.0, 0.05)
    elapsed = time.perf_counter() - start
    drift = float(np.max(np.abs(traj.norms() - 1.0)))
    check(
        "A1 unitarity",
        drift <= 1e-9 and elapsed < 1.0,
        f"norm drift {drift:.2e} (<= 1e-9), runtime {elapsed:.2f}s (< 1s)",
    )


def test_a2_high_switching_agreement(agreement_by_ratio):
    sup20, max20 = agreement_by_ratio[20.0]
    sup10, max10 = agreement_by_ratio[10.0]
    elapsed = agreement_by_ratio["elapsed"]
    ok = sup20 <= 0.15 * max20 and sup10 <= 0.25 * max10 and elapsed < 10.0
    check(
        "A2 perturbative/exact agreement",
        ok,
        f"ratio 20: sup {sup20:.2e} vs 0.15*max {0.15 * max20:.2e}; "
        f"ratio 10: sup {sup10:.2e} vs 0.25*max {0.25 * max10:.2e}; "
        f"runtime {elapsed:.1f}s (< 10s)",
    )


def test_a3_degradation_trend(agreement_by_ratio):
    sup20, _ = agreement_by_ratio[20.0]
    sup10, _ = agreement_by_ratio[10.0]
    sup5, _ = agreement_by_ratio[5.0]
    check(
        "A3 degradation trend",
        sup20 < sup10 < sup5,
        f"sup differences {sup20:.3e} (20) < {sup10:.3e} (10) < {sup5:.3e} (5)",
    )


def test_a4_breakdown_as_stated():
    """Known-red criterion: the exact bound cannot hold at the +1e-4 probe.

    The exact two-qubit two-photon resonance is blue-shifted from the bare
    divergence by the counter-rotating level shifts, so the exact dynamics
    also reaches ~0.96 at this switching frequency; see the mirror-probe
    test below for the attainable form of the same contrast.
    """
    max_pert, max_exact = breakdown_run(+1e-4)
    check(
        "A4 breakdown (probe above the divergence, as stated)",
        max_pert >= 0.9 and max_exact <= 0.5,
        f"max P_pert {max_pert:.3f} (>= 0.9), max P_exact {max_exact:.3f} (<= 0.5)",
    )


def test_a4_breakdown_mirror_probe():
    max_pert, max_exact = breakdown_run(-1e-4)
    check(
        "A4 breakdown (mirror probe, same 1e-4 detuning)",
        max_pert >= 0.9 and max_exact <= 0.5,
        f"max P_pert {max_pert:.3f} (>= 0.9), max P_exact {max_exact:.3f} (<= 0.5)",
    )


def test_a4_divergence_scaling():
    values = []
    for eps in (1e-2, 1e-3, 1e-4):
        varpi = 2 * W0 * (1 + eps)
        schedule = CouplingSchedule.from_switching_frequency(varpi)
        values.append(abs(alpha2_ee0(1.0, paper_params(n_max=1), schedule)))
    ratios = [large / small for small, large in zip(values, values[1:])]
    check(
        "A4 inverse-detuning scaling",
        all(5.0 <= r <= 20.0 for r in ratios),
        f"|alpha2_ee0| growth per decade {ratios[0]:.2f}, {ratios[1]:.2f} (in [5, 20])",
    )


def test_a5_divergence_locations():
    """Sign-change scan of the resonant denominators.

    The difference resonance sits at 0.2015*omega0 for these parameters, so
    the scan window extends below it (0.05*omega0); the stated lower edge of
    0.5*omega0 cannot bracket that family's sign changes.
    """
    poles = scan_divergence_locations(paper_params(n_max=1), 0.05 * W0, 25 * W0)
    expected = {
        "twice qubit frequency": 2 * W0,
        "sum frequency": OMEGA_SUM,
        "difference frequency": W0 - WC,
    }
    errors = {}
    for family, target in expected.items():
        primaries = [pl.primary for pl in poles if pl.family == family]
        errors[family] = min(
            abs(primary - target) / target for primary in primaries
        )
    check(
        "A5 divergence locations",
        all(err <= 1e-9 for err in errors.values()),
        "relative errors "
        + ", ".join(f"{fam}: {err:.1e}" for fam, err in errors.items()),
    )


def test_a6_engine_vs_closedform():
    ratio = 200.0
    schedule = schedule_at_ratio(ratio)
    params = paper_params(n_max=1)
    solution = run_to_order(params, schedule, 2, 5.0)
    space = solution.space
    times = np.linspace(0.0, 5.0, 400)
    cases = [
        ("ge,1", 1, space.index_of((0, 1), 1), alpha1_ge1),
        ("eg,1", 1, space.index_of((1, 0), 1), alpha1_eg1),
        ("gg,0 order 2", 2, space.index_of((0, 0), 0), alpha2_gg0),
        ("ee,0 order 2", 2, space.index_of((1, 1), 0), alpha2_ee0),
    ]
    details = []
    ok = True
    for name, order, idx, closed_form in cases:
        a_engine = np.array(
            [solution.coefficient(order, idx, float(t)) for t in times]
        )
        a_closed = np.array([closed_form(float(t), params, schedule) for t in times])
        sup = float(np.abs(a_engine - a_closed).max())
        scale = float(np.abs(a_engine).max())
        ok = ok and sup <= 0.05 * scale
        details.append(f"{name}: {sup / scale:.4f}")
    check(
        "A6 engine vs closed form at ratio 200",
        ok,
        "sup|diff|/max|alpha| " + ", ".join(details) + " (each <= 0.05)",
    )


def test_a7_constant_coupling_equivalence():
    t_final = 5.0
    params = paper_params(n_max=2)
    schedule = CouplingSchedule(t_period=2 * t_final)
    solution = run_to_order(params, schedule, 2, t_final)
    traj = propagate(params, schedule, t_final, 0.5)
    worst = 0.0
    ok = True
    for i, t in enumerate(traj.times):
        if t == 0.0:
            continue
        diff = float(np.abs(solution.amplitudes_at(float(t)) - traj.amplitudes[i]).max())
        bound = 10 * (G * float(t)) ** 3
        ok = ok and diff <= bound
        worst = max(worst, diff / bound)
    check(
        "A7 constant-coupling equivalence",
        ok,
        f"worst |d amplitude| / (10 (g t)^3) = {worst:.3e} (<= 1)",
    )


def test_a8_exppoly_calculus():
    rng = np.random.default_rng(2024)
    worst_int = 0.0
    ok = True
    for _ in range(100):
        n_terms = int(rng.integers(1, 9))
        terms = [
            (
                complex(rng.normal(), rng.normal()),
                int(rng.integers(0, 4)),
                complex(rng.uniform(-50, 50), rng.uniform(-50, 50)),
            )
            for _ in range(n_terms)
        ]
        poly = ExpPoly(terms)
        t = float(rng.uniform(0.1, 5.0))
        exact = poly.integrate_from(0.0).eval(t)
        re, _ = quad(lambda x: poly.eval(x).real, 0.0, t, limit=400)
        im, _ = quad(lambda x: poly.eval(x).imag, 0.0, t, limit=400)
        numeric = complex(re, im)
        err = abs(exact - numeric) / max(1.0, abs(numeric))
        worst_int = max(worst_int, err)
        ok = ok and err <= 1e-9
        # mul_exp round-trip in canonical form
        mu = complex(rng.normal() * 30, rng.normal() * 30)
        back = poly.mul_exp(mu).mul_exp(-mu)
        ok = ok and len(back) == len(poly)
        for (cb, kb, lb), (ca, ka, la) in zip(back.terms, poly.terms):
            ok = ok and kb == ka and cb == ca
            ok = ok and abs(lb - la) <= RATE_MERGE_TOL * max(1.0, abs(la))
    check(
        "A8 exponential-polynomial calculus",
        ok,
        f"worst quadrature mismatch {worst_int:.2e} (<= 1e-9), "
        "mul_exp round-trips canonical on 100 instances",
    )


def test_a9_selection_rules():
    solution = run_to_order(paper_params(n_max=1), schedule_at_ratio(20.0), 2, 1.0)
    space = solution.space
    order1 = {space.label(i) for i in solution.support(1)}
    order2 = {space.label(i) for i in solution.support(2)}
    ok = order1 == {"|ge,1>", "|eg,1>"} and order2 == {"|gg,0>", "|ee,0>"}
    check(
        "A9 selection rules",
        ok,
        f"order 1 support {sorted(order1)}, order 2 support {sorted(order2)}",
    )


def test_a10_compare_determinism(tmp_path):
    config = RunConfig(t_final_ns=5.0, sample_dt_ns=0.01)
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    cmd_compare(config, str(out1))
    cmd_compare(config, str(out2))
    identical = out1.read_bytes() == out2.read_bytes()
    check(
        "A10 determinism",
        identical,
        f"two identical-config runs byte-identical: {identical}",
    )
