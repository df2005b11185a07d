"""Order-by-order perturbative solution as a two-segment transfer map.

The order-j coefficient vectors obey the hierarchy

    i dx_j/dt = E x_j + g(t) V x_{j-1},    x_j(0) = 0 for j >= 1,

with E the bare energies, V the unit coupling and g(t) the square wave.
The coupling is constant on every half-period, so every segment of one
kind acts the same way wherever it sits on the grid:

* an off segment is the diagonal phase exp(-i E tau) at every order;
* an on segment maps the start vectors of orders 0..j to
  ``x_j(tau) = sum_{m<=j} Phi_m(tau) x_{j-m}(0)``.  This is the
  block lower-triangular structure of Van Loan (IEEE TAC 23(3), 1978).

The order-m response Phi_m(tau) to a unit start vector is built once,
over a single on segment, by exact exponential-polynomial algebra.  Each
entry is the previous order's response multiplied by the interaction
phase, integrated in closed form and scaled by the coupling.  Phi_0 is the
free phase.  The start vectors of orders 0..J, stacked into one row, then
advance period by period through ``model.period_starts``, and samples are
evaluated in batches over Phi's (power, rate) terms.  The number of
ExpPoly operations depends on the dimension and the order, not on the
number of segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .exppoly import RATE_MERGE_TOL, ExpPoly, linear_combination
from .hilbert import BasisState, qubit_excitation
from .model import (
    CouplingSchedule,
    SystemParams,
    bare_energies,
    locate,
    period_starts,
    switching_grid,
)

# Complex numbers in one evaluation batch (samples x terms x states): 4 MB.
_BATCH_ELEMENTS = 1 << 18


def _reachable(coupling: np.ndarray, start: int) -> np.ndarray:
    """Sorted indices of the states connected to ``start`` by couplings."""
    linked = coupling != 0
    seen = np.zeros(len(coupling), dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = linked[frontier].any(axis=0) & ~seen
        seen |= frontier
    return np.flatnonzero(seen)


class SegmentResponse:
    """Order-m response Phi_m(tau) over one on segment, on the reachable states.

    ``rows[i][n]`` is the ExpPoly Phi_m[i, states[n]](tau): the order-m
    coefficient of state i after a time tau inside an on segment that
    started with unit amplitude on ``states[n]``.  Only nonzero rows are
    kept.  For evaluation the terms are grouped by (power, rate):
    Phi_m(tau) = sum_u tau^powers[u] * exp(rates[u] * tau) * C_u, with
    ``coeffs[u * R + n, i] = C_u[i, n]`` over the R reachable states.
    """

    def __init__(self, rows: dict[int, tuple[ExpPoly, ...]], states: np.ndarray):
        self.rows = rows
        self.states = states
        position = {int(s): i for i, s in enumerate(states)}
        keys: list[tuple[int, complex]] = []
        lookup: dict[tuple[int, complex], int] = {}
        entries = []
        for target, row in rows.items():
            for n, poly in enumerate(row):
                for c, k, lam in poly.terms:
                    u = lookup.get((k, lam))
                    if u is None:
                        u = _merged_index(keys, k, lam)
                        lookup[(k, lam)] = u
                    entries.append((u, n, position[target], c))
        n_states = len(states)
        coeffs = np.zeros((len(keys), n_states, n_states), dtype=np.complex128)
        for u, n, i, c in entries:
            coeffs[u, n, i] += c
        self.powers = np.array([k for k, _ in keys], dtype=float)
        self.rates = np.array([lam for _, lam in keys], dtype=np.complex128)
        self.coeffs = coeffs.reshape(len(keys) * n_states, n_states)

    @property
    def n_terms(self) -> int:
        return len(self.powers)

    def _basis(self, tau: np.ndarray) -> np.ndarray:
        """(S, U) values tau^k * exp(rate * tau) of the grouped terms."""
        return tau[:, None] ** self.powers * np.exp(np.outer(tau, self.rates))

    def apply(self, tau: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Rows Phi_m(tau[s]) @ vectors[s], shape (S, R), for start vectors (S, R)."""
        basis = self._basis(tau)
        products = basis[:, :, None] * vectors[:, None, :]
        return products.reshape(len(tau), -1) @ self.coeffs

    def matrix(self, tau: float) -> np.ndarray:
        """Phi_m(tau) as an (R, R) matrix over the reachable states."""
        basis = self._basis(np.array([float(tau)]))[0]
        n_states = len(self.states)
        return np.tensordot(basis, self.coeffs.reshape(-1, n_states, n_states), 1).T


def _merged_index(keys: list[tuple[int, complex]], power: int, rate: complex) -> int:
    """Index of (power, rate) in ``keys``, identifying rates as ExpPoly does."""
    for u, (k, lam) in enumerate(keys):
        if k == power and abs(rate - lam) < RATE_MERGE_TOL * max(1.0, abs(lam)):
            return u
    keys.append((power, rate))
    return len(keys) - 1


@dataclass(frozen=True, eq=False)
class OrderTable:
    """One perturbative order: support and on-segment response.

    ``response`` is Phi_order, which this order and every later one apply
    to the start vectors of lower orders.
    """

    order: int
    states: tuple[int, ...]
    response: SegmentResponse
    dropped_couplings: int

    def support(self) -> tuple[int, ...]:
        return self.states

    @property
    def coefficients(self) -> dict[int, tuple[ExpPoly, ...]]:
        """ExpPoly rows of the order's on-segment response, by state index."""
        return self.response.rows


class PerturbativeSolution:
    """On-segment responses for orders 0..j and the period starts they give.

    Immutable once built (the period starts are computed at first use).
    """

    def __init__(
        self,
        params: SystemParams,
        schedule: CouplingSchedule,
        edges: np.ndarray,
        tables: tuple[OrderTable, ...],
    ):
        self.params = params
        self.schedule = schedule
        self.space = params.space()
        self.edges = edges
        self.tables = tables
        self.energies = bare_energies(params, self.space)

    @property
    def order(self) -> int:
        return len(self.tables) - 1

    @property
    def n_segments(self) -> int:
        return len(self.edges) - 1

    @property
    def states(self) -> np.ndarray:
        """Indices of the states reachable from the initial state."""
        return self.tables[0].response.states

    @property
    def dropped_couplings(self) -> tuple[int, ...]:
        """Per order, how many beyond-cutoff photon-raising couplings were dropped."""
        return tuple(table.dropped_couplings for table in self.tables)

    def extended(self, table: OrderTable) -> "PerturbativeSolution":
        if table.order != self.order + 1:
            raise ValueError(
                f"expected order {self.order + 1} table, got order {table.order}"
            )
        return PerturbativeSolution(
            self.params, self.schedule, self.edges, self.tables + (table,)
        )

    def retimed(
        self, schedule: CouplingSchedule, t_final: float
    ) -> "PerturbativeSolution":
        """The same order tables on the grid of another period or window.

        The responses depend on the energies, V and g0, not on the period.
        """
        if schedule.g0 != self.schedule.g0:
            raise ValueError(
                f"the tables were built for g0={self.schedule.g0}, got g0={schedule.g0}"
            )
        edges = switching_grid(schedule, t_final)
        return PerturbativeSolution(self.params, schedule, edges, self.tables)

    def support(self, order: int) -> tuple[int, ...]:
        return self.tables[order].support()

    @cached_property
    def _scan(self) -> tuple[np.ndarray, np.ndarray]:
        """On map and period starts, (periods, (J+1)*R), of the row (x_0 ... x_J).

        Over the R reachable states the on map is block upper-triangular with
        blocks Phi_{j-i}(T/2)^T; the period map follows it with the free phase.
        """
        states = self.states
        h = self.schedule.half_period
        blocks = [table.response.matrix(h).T for table in self.tables]
        zero = np.zeros_like(blocks[0])
        orders = range(len(blocks))
        layout = [[blocks[j - i] if j >= i else zero for j in orders] for i in orders]
        on_map = np.block(layout)
        phase = np.tile(np.exp(-1j * self.energies[states] * h), len(self.tables))
        first = np.zeros(len(on_map), dtype=np.complex128)
        first[np.searchsorted(states, self.support(0))] = 1.0
        count = (self.n_segments - 1) // 2 + 1
        return on_map, period_starts(first, on_map * phase, count)

    def _evaluate(self, times: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Sum of the coefficients of orders lo..hi, shape (len(times), dim)."""
        segments, tau = locate(self.edges, times)
        on_map, starts = self._scan
        states = self.states
        free_rates = -1j * self.energies[states]
        out = np.zeros((len(times), self.space.dim), dtype=np.complex128)
        widest = max((t.response.n_terms for t in self.tables[1 : hi + 1]), default=0)
        batch = max(1, _BATCH_ELEMENTS // max(1, widest * len(states)))
        for first in range(0, len(times), batch):
            part = slice(first, first + batch)
            k, t = segments[part], tau[part]
            x = starts[k // 2]
            on = self.schedule.is_on(k)
            x[~on] = x[~on] @ on_map
            x = x.reshape(len(k), len(self.tables), len(states))
            block = np.exp(np.outer(t, free_rates)) * x[:, lo : hi + 1].sum(axis=1)
            if on.any():
                for m in range(1, hi + 1):
                    response = self.tables[m].response
                    if response.n_terms:
                        vectors = x[on, max(lo - m, 0) : hi - m + 1].sum(axis=1)
                        block[on] += response.apply(t[on], vectors)
            out[part, states] = block
        return out

    def coefficient(self, order: int, state_index: int, t: float) -> complex:
        """alpha^(order) for one basis state at time t."""
        if state_index not in self.support(order):
            return 0j
        return complex(self._evaluate(np.array([float(t)]), order, order)[0, state_index])

    def amplitudes_at(
        self, times: np.ndarray, max_order: Optional[int] = None
    ) -> np.ndarray:
        """Summed coefficients of orders 0..max_order, one row per time: (S, dim)."""
        if max_order is None or max_order > self.order:
            max_order = self.order
        return self._evaluate(np.asarray(times, dtype=float).reshape(-1), 0, max_order)

    def amplitudes(self, t: float, max_order: Optional[int] = None) -> np.ndarray:
        """Summed coefficients of orders 0..max_order at time t, one per basis state."""
        return self.amplitudes_at(np.array([float(t)]), max_order)[0]

    def excitation_probability(
        self, qubit_index: int, t: Union[float, np.ndarray]
    ) -> Union[float, np.ndarray]:
        return pert_excitation_probability(self, qubit_index, t)

    def norm(self, t: float) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes(t)) ** 2)))


def zeroth_order(
    params: SystemParams,
    schedule: CouplingSchedule,
    t_final: float,
    initial: Optional[BasisState] = None,
) -> PerturbativeSolution:
    """Order-0 solution: the initial state evolving under its bare energy only.

    For the default ground-state start the coefficient is the constant 1;
    a nonzero-energy initial state carries its free phase exp(-i*E*t).
    The order-0 response is that free phase on every reachable state.
    """
    space = params.space()
    if initial is None:
        initial_index = space.ground_index()
    else:
        initial_index = space.index_of_state(initial)
    edges = switching_grid(schedule, t_final)
    states = _reachable(space.coupling, initial_index)
    energies = bare_energies(params, space)
    rows = {}
    for n, state in enumerate(states):
        row = [ExpPoly.zero()] * len(states)
        row[n] = ExpPoly.exponential(1.0, -1j * float(energies[state]))
        rows[int(state)] = tuple(row)
    table = OrderTable(0, (initial_index,), SegmentResponse(rows, states), 0)
    return PerturbativeSolution(params, schedule, edges, (table,))


def _next_response(
    prev: SegmentResponse, coupling: np.ndarray, energies: np.ndarray, g0: float
) -> SegmentResponse:
    """Phi_j from Phi_{j-1}: i dPhi_j/dtau = E Phi_j + g0 V Phi_{j-1}, Phi_j(0) = 0."""
    rows: dict[int, tuple[ExpPoly, ...]] = {}
    if g0 == 0.0:
        return SegmentResponse(rows, prev.states)
    for target in prev.states:
        target = int(target)
        linked = np.flatnonzero(coupling[target]).tolist()
        sources = [(coupling[target, s], prev.rows[s]) for s in linked if s in prev.rows]
        if not sources:
            continue
        energy = float(energies[target])
        row = []
        for n in range(len(prev.states)):
            rhs = linear_combination([(w, polys[n]) for w, polys in sources])
            if rhs.is_zero():
                row.append(rhs)
                continue
            driven = rhs.mul_exp(1j * energy).integrate_from(0.0).scale(-1j * g0)
            row.append(driven.mul_exp(-1j * energy))
        if any(not poly.is_zero() for poly in row):
            rows[target] = tuple(row)
    return SegmentResponse(rows, prev.states)


def next_order(prev: PerturbativeSolution) -> OrderTable:
    """Build order j = prev.order + 1 from the orders already in prev.

    The on-segment response Phi_j comes from Phi_{j-1}; the support is every
    state coupled to the previous order's support.  Couplings that would
    raise the photon number beyond the cutoff are dropped and counted.
    """
    space = prev.space
    g0 = prev.schedule.g0
    prev_support = list(prev.support(prev.order))

    dropped = space.n_qubits * sum(
        1 for index in prev_support if space.photon_counts[index] == space.n_max
    )
    support: tuple[int, ...] = ()
    if g0 != 0.0:
        coupled = space.coupling[:, prev_support].any(axis=1)
        support = tuple(np.flatnonzero(coupled).tolist())
    response = _next_response(prev.tables[-1].response, space.coupling, prev.energies, g0)
    return OrderTable(prev.order + 1, support, response, dropped)


def run_to_order(
    params: SystemParams,
    schedule: CouplingSchedule,
    j_max: int,
    t_final: float,
    initial: Optional[BasisState] = None,
) -> PerturbativeSolution:
    """Iterate the recursion up to order j_max over the grid covering [0, t_final]."""
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    solution = zeroth_order(params, schedule, t_final, initial)
    for _ in range(j_max):
        solution = solution.extended(next_order(solution))
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
    times = np.asarray(t, dtype=float)
    amps = solution.amplitudes_at(times.reshape(-1))
    probabilities = qubit_excitation(amps, solution.space, qubit_index)
    return float(probabilities[0]) if times.ndim == 0 else probabilities
