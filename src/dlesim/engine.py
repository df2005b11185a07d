"""Order-by-order perturbative solution as a two-segment transfer map.

The order-j coefficient vectors obey the hierarchy

    i dx_j/dt = E x_j + g(t) V x_{j-1},    x_j(0) = 0 for j >= 1,

with E the bare energies, V the unit coupling and g(t) = g_eff s(t).
An off segment is the free phase exp(-i E tau) at every order, and an on
segment maps the start vectors of orders 0..j to
``x_j(tau) = sum_{m<=j} Phi_m(tau) x_{j-m}(0)``, the block-triangular
form of Van Loan (IEEE TAC 23(3), 1978).  The stacked row (x_0 ... x_J)
walks the grid through ``model.SegmentWalk``.

The order-m response Phi_m(tau) to a unit start vector is built once, over
a single on segment, so the build does not depend on the number of
segments.  Every entry is a sum of residues at the bare energies,
c * tau^k * exp(-i eps_a tau), so one order is one table over
(power, level, target, source), made from the previous one by one matrix
product with V's block among the reachable states and by integrating
every (power, level) slice in closed form; Phi_0 is the free phase.
``ExpPoly`` computes the same responses entry by entry and is the tests'
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .exppoly import RATE_MERGE_TOL, ExpPoly
from .exppoly import linear_combination  # noqa: F401  (wrapped by bench/tracer.py)
from .hilbert import check_number, qubit_excitation
from .model import (
    CouplingSchedule,
    SegmentWalk,
    SystemParams,
    bare_energies,
    row_products,
    switching_grid,
)

# Complex numbers in one evaluation batch (samples x terms x states): 4 MB.
_BATCH_ELEMENTS = 1 << 18


@dataclass(frozen=True, eq=False)
class Levels:
    """The subsystem reachable from the initial state, shared by every order.

    ``states`` are the start's ``HilbertSpace.sector``, ``start`` is the
    initial state's position among them and ``energies`` their bare energies.
    ``values`` are the distinct energies, merged as ExpPoly merges rates
    (``RATE_MERGE_TOL``), and ``of_state[i]`` is the level of ``states[i]``.
    ``coupling`` is V among the states, ``space.block(states)``, (R, R).
    ``inverse[a, i]`` is 1/mu with mu = i (E_i - eps_a), and 0 where
    ``same[a, i]``: state i sits on level a.
    """

    states: np.ndarray
    start: int
    energies: np.ndarray
    values: np.ndarray
    of_state: np.ndarray
    coupling: np.ndarray
    same: np.ndarray
    inverse: np.ndarray

    @classmethod
    def of(cls, params: SystemParams, start: int) -> "Levels":
        """The sector of basis state ``start`` in ``params``' basis."""
        space = params.space()
        states = space.sector(start)
        energies = bare_energies(params, space)[states]
        order = np.argsort(energies, kind="stable")
        ranked = energies[order]
        gap = RATE_MERGE_TOL * np.maximum(1.0, np.abs(ranked[:-1]))
        opens = np.flatnonzero(np.diff(ranked) >= gap) + 1
        values = ranked[np.r_[0, opens]]
        of_state = np.empty(len(states), dtype=np.intp)
        of_state[order] = np.searchsorted(opens, np.arange(len(ranked)), side="right")
        same = of_state == np.arange(len(values))[:, None]
        inverse = np.where(same, 0.0, 1.0 / np.where(same, 1.0, 1j * (energies - values[:, None])))
        block = space.block(states)
        position = int(np.searchsorted(states, start))
        return cls(states, position, energies, values, of_state, block, same, inverse)


class OrderTable:
    """One perturbative order: its on-segment response Phi_order.

    Phi_order[i, n](tau) is the order's coefficient of ``levels.states[i]``
    after a time tau inside an on segment that started with unit amplitude
    on ``levels.states[n]``; this order and every later one apply it to the
    start vectors of lower orders.  It is a residue table over (power, level):
    Phi_order(tau) = sum_u tau^powers[u] * exp(rates[u] * tau) * C_u, where
    ``rates[u] = -i * levels.values[term_levels[u]]`` and
    ``coeffs[u, n, i] = C_u[i, n]``.  Built from a dense table
    ``[k, a, n, i]`` over every power and level; only nonzero slices are kept.
    The order's support is a read of the table's start column.
    """

    def __init__(self, order: int, table: np.ndarray, levels: Levels):
        n_powers, n_levels, n_states = table.shape[:3]
        slices = table.reshape(n_powers * n_levels, n_states, n_states)
        kept = np.flatnonzero(slices.any(axis=(1, 2)))
        self.order = order
        self.levels = levels
        self.term_levels = kept % n_levels
        self.powers = (kept // n_levels).astype(float)
        self.rates = -1j * levels.values[self.term_levels]
        self.coeffs = slices[kept]

    @property
    def n_terms(self) -> int:
        return len(self.powers)

    @property
    def support(self) -> tuple[int, ...]:
        """Sorted indices of the states this order reaches from the initial
        state: the nonzero rows of Phi_order's start column."""
        reached = self.coeffs[:, self.levels.start].any(axis=0)
        return tuple(self.levels.states[reached].tolist())

    def _basis(self, tau: np.ndarray) -> np.ndarray:
        """(S, U) values tau^k * exp(rate * tau) of the grouped terms."""
        return tau[:, None] ** self.powers * np.exp(np.outer(tau, self.rates))

    def apply(self, tau: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Rows Phi(tau[s]) @ vectors[s], shape (S, R), for start vectors (S, R)."""
        basis = self._basis(tau)
        products = basis[:, :, None] * vectors[:, None, :]
        flat = self.coeffs.reshape(-1, self.coeffs.shape[2])
        return row_products(products.reshape(len(tau), -1), flat)

    def matrix(self, tau: float) -> np.ndarray:
        """Phi(tau) as an (R, R) matrix over the reachable states."""
        basis = self._basis(np.array([float(tau)]))[0]
        return np.tensordot(basis, self.coeffs, 1).T

    @cached_property
    def coefficients(self) -> dict[int, tuple[ExpPoly, ...]]:
        """Phi as ExpPoly entries: ``coefficients[state][n]``, nonzero rows only."""
        keys = list(zip(self.powers.astype(int).tolist(), self.rates.tolist()))
        table = self.coeffs.transpose(2, 1, 0)
        return {
            int(self.levels.states[i]): tuple(
                ExpPoly((c, *key) for c, key in zip(entry, keys))
                for entry in table[i].tolist()
            )
            for i in np.flatnonzero(table.any(axis=(1, 2))).tolist()
        }


class PerturbativeSolution:
    """On-segment responses for orders 0..j and the grid walk they drive.

    Every order is over the one reachable subsystem ``levels``, order 0's.
    Immutable once built (the grid walk is made at first use).
    """

    def __init__(
        self,
        params: SystemParams,
        schedule: CouplingSchedule,
        t_final: float,
        tables: tuple[OrderTable, ...],
    ):
        check_number("t_final", t_final, above=0)
        self.params = params
        self.schedule = schedule
        self.space = params.space()
        self.t_final = t_final
        self.levels = tables[0].levels
        self.tables = tables

    @property
    def order(self) -> int:
        return len(self.tables) - 1

    @property
    def dropped_couplings(self) -> tuple[int, ...]:
        """Per order, how many beyond-cutoff photon-raising couplings were dropped:
        none at order 0, and N for each state of order j-1 at the cutoff."""
        space = self.space
        photons = (space.photon_counts[list(t.support)] for t in self.tables[:-1])
        return (0, *(space.n_qubits * int((p == space.n_max).sum()) for p in photons))

    def retimed(
        self, schedule: CouplingSchedule, t_final: float
    ) -> "PerturbativeSolution":
        """The same order tables on the grid of another period or window.

        The responses depend on ``params`` alone, not on the period.
        """
        return PerturbativeSolution(self.params, schedule, t_final, self.tables)

    def support(self, order: int) -> tuple[int, ...]:
        return self.tables[check_number("order", order, int, within=(0, self.order))].support

    @cached_property
    def walk(self) -> SegmentWalk:
        """Walk of the row (x_0 ... x_J); its on map has blocks Phi_{j-i}(T/2)^T, j >= i."""
        blocks = [table.matrix(self.schedule.half_period).T for table in self.tables]
        zero = np.zeros_like(blocks[0])
        orders = range(len(blocks))
        on_map = np.block([[blocks[j - i] if j >= i else zero for j in orders] for i in orders])
        first = (np.arange(len(on_map)) == self.levels.start).astype(np.complex128)
        energies = np.tile(self.levels.energies, len(self.tables))
        edges = switching_grid(self.schedule, self.t_final)
        return SegmentWalk(self.schedule, edges, first, on_map, energies)

    def coefficient(self, order: int, state_index: int, t: float) -> complex:
        """alpha^(order) of one basis state at time t: a checked scalar view of
        the range read of that order alone, so exactly 0 off its support."""
        order = check_number("order", order, int, within=(0, self.order))
        state_index = self.space.check_index(state_index, "state_index")
        return complex(self.amplitudes_at(float(t), order, min_order=order)[state_index])

    def amplitudes_at(
        self, times: Union[float, np.ndarray], max_order: Optional[int] = None, *, min_order: int = 0
    ) -> np.ndarray:
        """Summed coefficients of orders min_order..max_order (default 0..all):
        (dim,) for a scalar time, one row per time (S, dim) for an array.  Read
        alone (min_order = max_order = j), order j is exactly 0 off its support."""
        hi = self.order if max_order is None else max_order
        hi = check_number("max_order", hi, int, within=(0, self.order))
        lo = check_number("min_order", min_order, int, within=(0, hi))
        times = np.asarray(times, dtype=float)
        states = self.levels.states
        free_rates = -1j * self.levels.energies

        def inside(on, t, x, step):
            x = x.reshape(len(t), len(self.tables), len(states))
            block = np.exp(np.outer(t, free_rates)) * x[:, lo : hi + 1].sum(axis=1)
            for m in range(1, hi + 1):
                table = self.tables[m]
                if table.n_terms and step.any():
                    vectors = x[step, max(lo - m, 0) : hi - m + 1].sum(axis=1)
                    block[step] += table.apply(t[step], vectors)
            return block

        widest = max((t.n_terms for t in self.tables[1 : hi + 1]), default=0)
        batch = max(1, _BATCH_ELEMENTS // max(1, widest * len(states)))
        out = self.walk.sample(times.reshape(-1), batch, inside, states, self.space.dim)
        return out[0] if times.ndim == 0 else out

    def excitation_probability(
        self, qubit_index: int, t: Union[float, np.ndarray]
    ) -> Union[float, np.ndarray]:
        return pert_excitation_probability(self, qubit_index, t)


def zeroth_order(
    params: SystemParams,
    schedule: CouplingSchedule,
    t_final: float,
    initial: int = 0,
) -> PerturbativeSolution:
    """Order-0 solution: basis state ``initial`` evolving under its bare energy only.

    For the default ground-state start the coefficient is the constant 1;
    a nonzero-energy initial state carries its free phase exp(-i*E*t).
    The order-0 response is that free phase on every reachable state.
    """
    levels = Levels.of(params, initial)
    # [power 0, level a, n, i]: 1 where n = i and state i sits on level a
    table = levels.same[None, :, None, :] * np.eye(len(levels.states), dtype=np.complex128)
    return PerturbativeSolution(params, schedule, t_final, (OrderTable(0, table, levels),))


def _next_response(prev: OrderTable, g_eff: float) -> np.ndarray:
    """Phi_j from Phi_{j-1}: i dPhi_j/dtau = E Phi_j + g_eff V Phi_{j-1}, Phi_j(0) = 0.

    The drive B = V Phi_{j-1} is one matrix product of every (power, level)
    slice with V's block among the reachable states.  A drive term
    d tau^k exp(-i eps_a tau) on target i, whose own level is b, integrates
    in closed form.  With mu = i (E_i - eps_a):

    * a == b: tau^k -> tau^(k+1) / (k+1), the secular term;
    * a != b: tau^(k-m) exp(-i eps_a tau) gets (-1)^m k!/(k-m)! / mu^(m+1) d
      for m = 0..k, and the constant that makes Phi_j(0) = 0 goes to
      (power 0, level b).

    Returns the dense table ``[k, a, n, i]`` of Phi_j over every power and level.
    """
    levels = prev.levels
    n_states = len(levels.states)
    n_powers = int(prev.powers.max(initial=-1)) + 1
    table = np.zeros(
        (n_powers + 1, len(levels.values), n_states, n_states), dtype=np.complex128
    )
    drive = prev.coeffs @ levels.coupling.T  # B_u = V C_u, stored as coeffs are
    same, inverse = levels.same, levels.inverse
    constant = np.zeros((n_states, n_states), dtype=np.complex128)
    for k in range(n_powers):
        # the drive slices d tau^k exp(-i eps_a tau), one per level a; the
        # slices are sorted by power, so they are one contiguous run
        lo, hi = np.searchsorted(prev.powers, (k, k + 1))
        a, d = prev.term_levels[lo:hi], drive[lo:hi]
        table[k + 1, a] = d * (same[a, None] / (k + 1))
        term = d * inverse[a, None]
        table[k, a] += term
        for m in range(1, k + 1):
            term *= -(k - m + 1) * inverse[a, None]
            table[k - m, a] += term
        constant -= term.sum(axis=0)
    diagonal = np.arange(n_states)
    table[0, levels.of_state, :, diagonal] += constant.T
    table *= -1j * g_eff
    return table


def next_order(prev: PerturbativeSolution) -> OrderTable:
    """Build order j = prev.order + 1 from the orders already in prev.

    The order is its response Phi_j, made from Phi_{j-1}; its support is
    read from Phi_j, so at g_eff = 0 it is empty.
    """
    table = _next_response(prev.tables[-1], prev.params.g_eff)
    return OrderTable(prev.order + 1, table, prev.levels)


def run_to_order(
    params: SystemParams,
    schedule: CouplingSchedule,
    j_max: int,
    t_final: float,
    initial: int = 0,
) -> PerturbativeSolution:
    """Iterate the recursion up to order j_max over the grid covering [0, t_final]."""
    j_max = check_number("j_max", j_max, int, at_least=0)
    solution = zeroth_order(params, schedule, t_final, initial)
    for _ in range(j_max):
        tables = solution.tables + (next_order(solution),)
        solution = PerturbativeSolution(params, schedule, t_final, tables)
    return solution


def pert_excitation_probability(
    solution: PerturbativeSolution,
    qubit_index: int,
    t: Union[float, np.ndarray],
) -> Union[float, np.ndarray]:
    """Excitation probability of one qubit from the truncated expansion.

    A float for a scalar t, an array for an array of times.  The expansion
    parameter is absorbed into g_eff, and the truncated state is
    deliberately not renormalized: probabilities exceeding the weak-drive
    scale near a resonance are the breakdown diagnostic, not an error.
    """
    return qubit_excitation(solution.amplitudes_at(t), solution.space, qubit_index)
