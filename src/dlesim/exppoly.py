"""Exact algebra of exponential polynomials sum_i c_i * t^k_i * exp(lam_i * t).

This function class is closed under addition, multiplication by a pure
exponential, and integration, which is everything the order-by-order
perturbative recursion needs.  Integration is exact (repeated integration
by parts), so the only numerical error anywhere is double-precision
roundoff in the coefficients.

Canonical form: no two terms share (power, rate); rates closer than the
merge tolerance are identified; negligibly small coefficients are pruned.
Near-resonant rate differences above the merge tolerance are kept exact so
that small denominators (and the physical divergences they signal) remain
observable.
"""

from __future__ import annotations

import cmath
from typing import Iterable, Sequence

RATE_MERGE_TOL = 1e-12
PRUNE_REL_TOL = 1e-15


class ExpPoly:
    """Immutable finite sum of terms c * t^k * exp(lam*t)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[complex, int, complex]] = ()):
        object.__setattr__(self, "terms", _canonicalize(terms))

    def __setattr__(self, name, value):
        raise AttributeError("ExpPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExpPoly":
        return _ZERO

    @classmethod
    def constant(cls, c: complex) -> "ExpPoly":
        return cls(((complex(c), 0, 0j),))

    @classmethod
    def exponential(cls, c: complex, rate: complex) -> "ExpPoly":
        """c * exp(rate * t)."""
        return cls(((complex(c), 0, complex(rate)),))

    @classmethod
    def monomial(cls, c: complex, power: int) -> "ExpPoly":
        """c * t^power."""
        return cls(((complex(c), int(power), 0j),))

    # -- algebra ------------------------------------------------------------

    def add(self, other: "ExpPoly") -> "ExpPoly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        return ExpPoly(self.terms + other.terms)

    __add__ = add

    def scale(self, factor: complex) -> "ExpPoly":
        factor = complex(factor)
        if factor == 0:
            return _ZERO
        return ExpPoly(tuple((c * factor, k, lam) for c, k, lam in self.terms))

    def mul_exp(self, mu: complex) -> "ExpPoly":
        """Multiply by exp(mu*t): every rate shifts by mu, coefficients untouched."""
        mu = complex(mu)
        if mu == 0:
            return self
        return ExpPoly(tuple((c, k, lam + mu) for c, k, lam in self.terms))

    def integrate_from(self, t0: float) -> "ExpPoly":
        """Exact antiderivative F with F(t0) = 0 and dF/dt equal to self.

        Terms with rate 0 (within the merge tolerance) integrate to
        t^(k+1)/(k+1); all others integrate by parts into a degree-k
        polynomial times the same exponential plus a constant.
        """
        new_terms: list[tuple[complex, int, complex]] = []
        for c, k, lam in self.terms:
            if abs(lam) <= RATE_MERGE_TOL:
                new_terms.append((c / (k + 1), k + 1, 0j))
            else:
                # int t^k e^(lam t) dt
                #   = e^(lam t) * sum_{m=0..k} (-1)^m (k!/(k-m)!) t^(k-m) / lam^(m+1)
                coeff = c / lam
                for m in range(k + 1):
                    new_terms.append((coeff, k - m, lam))
                    coeff = -coeff * (k - m) / lam
        antiderivative = ExpPoly(new_terms)
        offset = antiderivative.eval(t0)
        if offset != 0:
            antiderivative = antiderivative.add(ExpPoly.constant(-offset))
        return antiderivative

    def derivative(self) -> "ExpPoly":
        """Termwise exact derivative (used to cross-check integration)."""
        new_terms = []
        for c, k, lam in self.terms:
            if lam != 0:
                new_terms.append((c * lam, k, lam))
            if k > 0:
                new_terms.append((c * k, k - 1, lam))
        return ExpPoly(new_terms)

    # -- evaluation ---------------------------------------------------------

    def eval(self, t: float) -> complex:
        total = 0j
        for c, k, lam in self.terms:
            value = c if k == 0 else c * t**k
            if lam != 0:
                value *= cmath.exp(lam * t)
            total += value
        return total

    __call__ = eval

    # -- introspection ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExpPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        if not self.terms:
            return "ExpPoly(0)"
        bits = [f"({c:.6g})*t^{k}*exp(({lam:.6g})t)" for c, k, lam in self.terms]
        return "ExpPoly(" + " + ".join(bits) + ")"


def linear_combination(parts: Sequence[tuple[complex, ExpPoly]]) -> ExpPoly:
    """sum of weight * poly, canonicalized in one pass."""
    terms: list[tuple[complex, int, complex]] = []
    for weight, poly in parts:
        w = complex(weight)
        if w == 0:
            continue
        terms.extend((c * w, k, lam) for c, k, lam in poly.terms)
    return ExpPoly(terms)


def _canonicalize(
    terms: Iterable[tuple[complex, int, complex]],
) -> tuple[tuple[complex, int, complex], ...]:
    """Merge near-equal rates, accumulate matching (power, rate) pairs, prune."""
    rates: list[complex] = []
    accum: dict[tuple[int, int], complex] = {}
    for c, k, lam in terms:
        c = complex(c)
        if c == 0:
            continue
        lam = complex(lam)
        rate_index = -1
        for i, rep in enumerate(rates):
            if abs(lam - rep) < RATE_MERGE_TOL * max(1.0, abs(rep)):
                rate_index = i
                break
        if rate_index < 0:
            if abs(lam) < RATE_MERGE_TOL:
                lam = 0j
            rates.append(lam)
            rate_index = len(rates) - 1
        key = (int(k), rate_index)
        accum[key] = accum.get(key, 0j) + c
    if not accum:
        return ()
    cutoff = PRUNE_REL_TOL * max(abs(c) for c in accum.values())
    kept = [
        (c, k, rates[ri])
        for (k, ri), c in accum.items()
        if abs(c) >= cutoff and c != 0
    ]
    kept.sort(key=lambda term: (term[1], term[2].real, term[2].imag))
    return tuple(kept)


_ZERO = ExpPoly()
