import cmath

import numpy as np
import pytest
from scipy.integrate import quad

from dlesim.exppoly import RATE_MERGE_TOL, ExpPoly, linear_combination


def random_exppoly(rng, max_terms=8, max_power=3, rate_scale=50.0):
    n_terms = int(rng.integers(1, max_terms + 1))
    terms = []
    for _ in range(n_terms):
        c = complex(rng.normal(), rng.normal())
        k = int(rng.integers(0, max_power + 1))
        lam = complex(rng.uniform(-1, 1) * rate_scale, rng.uniform(-1, 1) * rate_scale)
        terms.append((c, k, lam))
    return ExpPoly(terms)


def quad_integral(poly, t):
    """Adaptive quadrature of poly over [0, t], real and imaginary parts."""
    re, _ = quad(lambda x: poly.eval(x).real, 0.0, t, limit=400)
    im, _ = quad(lambda x: poly.eval(x).imag, 0.0, t, limit=400)
    return complex(re, im)


class TestAdd:
    def test_cancellation_gives_zero(self):
        a = ExpPoly.exponential(1.0, 2.0j)
        b = ExpPoly.exponential(-1.0, 2.0j)
        assert a.add(b).is_zero()

    def test_distinct_powers_kept(self):
        a = ExpPoly(((1.0, 1, 0j),))
        b = ExpPoly(((1.0, 2, 0j),))
        assert len(a.add(b)) == 2

    def test_zero_identity(self):
        rng = np.random.default_rng(0)
        a = random_exppoly(rng)
        assert a.add(ExpPoly.zero()) == a

    def test_near_equal_rates_merge(self):
        a = ExpPoly.exponential(1.0, 1.0 + 0j)
        b = ExpPoly.exponential(1.0, 1.0 + 1e-14 + 0j)
        merged = a.add(b)
        assert len(merged) == 1
        assert merged.terms[0][0] == pytest.approx(2.0)


class TestMulExp:
    def test_constant_becomes_exponential(self):
        omega = 3.7
        p = ExpPoly.constant(1.0).mul_exp(1j * omega)
        t = 0.9
        assert p.eval(t) == pytest.approx(cmath.exp(1j * omega * t))

    def test_inverse_phase_gives_constant(self):
        omega = 2.2
        p = ExpPoly.exponential(1.0, -1j * omega).mul_exp(1j * omega)
        assert len(p) == 1
        assert p.terms[0][1] == 0
        assert abs(p.terms[0][2]) < 1e-12
        assert p.eval(1.3) == pytest.approx(1.0)

    def test_shifts_evaluation(self):
        lam, mu = 0.4 - 1.1j, 0.9 + 0.3j
        p = ExpPoly([(1.0, 1, lam)]).mul_exp(mu)
        assert p.eval(1.0) == pytest.approx(cmath.exp(lam + mu))

    def test_roundtrip_canonical(self):
        # rates survive within the merge tolerance; powers and coefficients
        # are untouched by construction
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_exppoly(rng)
            mu = complex(rng.normal() * 20, rng.normal() * 20)
            b = a.mul_exp(mu).mul_exp(-mu)
            assert len(b) == len(a)
            for (cb, kb, lb), (ca, ka, la) in zip(b.terms, a.terms):
                assert kb == ka
                assert cb == ca
                assert abs(lb - la) <= RATE_MERGE_TOL * max(1.0, abs(la))


class TestIntegrateFrom:
    def test_pure_exponential(self):
        lam = 1.5 - 2.0j
        c = 0.7 + 0.1j
        F = ExpPoly.exponential(c, lam).integrate_from(0.0)
        for t in (0.0, 0.3, 1.7):
            assert F.eval(t) == pytest.approx(c / lam * (cmath.exp(lam * t) - 1))

    def test_constant_from_t0(self):
        F = ExpPoly.constant(1.0).integrate_from(0.8)
        assert F.eval(0.8) == pytest.approx(0.0, abs=1e-15)
        assert F.eval(2.0) == pytest.approx(1.2)

    def test_t_exp_by_parts(self):
        lam = 0.9 + 1.4j
        F = ExpPoly([(1.0, 1, lam)]).integrate_from(0.0)
        for t in (0.25, 1.0):
            expected = cmath.exp(lam * t) * (t / lam - 1 / lam**2) + 1 / lam**2
            assert F.eval(t) == pytest.approx(expected)

    def test_derivative_inverts_integration(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = random_exppoly(rng)
            back = a.integrate_from(0.0).derivative()
            for t in rng.uniform(0, 3, size=4):
                va, vb = a.eval(float(t)), back.eval(float(t))
                assert vb == pytest.approx(va, rel=1e-9, abs=1e-9)

    def test_zero_rate_is_ordinary_branch(self):
        F = ExpPoly([(2.0, 2, 0j)]).integrate_from(0.0)
        assert F.eval(1.5) == pytest.approx(2.0 * 1.5**3 / 3)

    def test_linearity_termwise(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_exppoly(rng, max_terms=4)
            b = random_exppoly(rng, max_terms=4)
            lhs = a.add(b).integrate_from(0.0)
            rhs = a.integrate_from(0.0).add(b.integrate_from(0.0))
            for t in rng.uniform(0, 2, size=3):
                assert lhs.eval(float(t)) == pytest.approx(
                    rhs.eval(float(t)), rel=1e-9, abs=1e-12
                )

    def test_against_quadrature(self):
        # the independent oracle: adaptive quadrature of eval over [0, t]
        rng = np.random.default_rng(42)
        for _ in range(30):
            a = random_exppoly(rng, max_terms=8, max_power=3, rate_scale=50.0)
            F = a.integrate_from(0.0)
            t = float(rng.uniform(0.1, 5.0))
            exact = F.eval(t)
            numeric = quad_integral(a, t)
            scale = max(1.0, abs(numeric))
            assert abs(exact - numeric) <= 1e-9 * scale

    def test_term_growth_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            a = random_exppoly(rng)
            k_max = max(k for _, k, _ in a.terms)
            F = a.integrate_from(0.0)
            assert len(F) <= len(a) * (k_max + 1) + 1


class TestEval:
    def test_euler_identity(self):
        p = ExpPoly.exponential(1.0, 1j * cmath.pi)
        assert p.eval(1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_everywhere(self):
        z = ExpPoly.zero()
        for t in (0.0, 1.0, 100.0):
            assert z.eval(t) == 0j

    def test_matches_quadrature_of_derivative(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = random_exppoly(rng, max_terms=4, rate_scale=10.0)
            t = float(rng.uniform(0.1, 3.0))
            # eval(t) = eval(0) + int_0^t d/dx eval(x) dx
            recon = a.eval(0.0) + quad_integral(a.derivative(), t)
            scale = max(1.0, abs(a.eval(t)))
            assert abs(a.eval(t) - recon) <= 1e-10 * scale


class TestCanonicalForm:
    def test_prune_small_coefficients(self):
        p = ExpPoly([(1.0, 0, 0j), (1e-17, 0, 1j)])
        assert len(p) == 1

    def test_immutable(self):
        p = ExpPoly.constant(1.0)
        with pytest.raises(AttributeError):
            p.terms = ()

    def test_linear_combination_matches_manual(self):
        rng = np.random.default_rng(4)
        a = random_exppoly(rng, max_terms=3)
        b = random_exppoly(rng, max_terms=3)
        combo = linear_combination([(2.0, a), (-1j, b)])
        manual = a.scale(2.0).add(b.scale(-1j))
        for t in (0.1, 0.9):
            assert combo.eval(t) == pytest.approx(manual.eval(t), rel=1e-12)
