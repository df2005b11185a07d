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
free phase.  The segment-start vectors of each order then advance as numpy
arrays, and samples are evaluated in batches over Phi's (power, rate)
terms.  The number of ExpPoly operations depends on the dimension and the
order, not on the number of segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .exppoly import RATE_MERGE_TOL, ExpPoly, linear_combination
from .hilbert import BasisState, HilbertSpace, qubit_excitation
from .model import (
    CouplingSchedule,
    SystemParams,
    coupling_terms,
    locate,
    switching_grid,
)

# Complex numbers in one evaluation batch (samples x terms x states): 4 MB.
_BATCH_ELEMENTS = 1 << 18


def interaction_adjacency(space: HilbertSpace) -> list[list[tuple[int, float]]]:
    """For each basis state, the (source index, weight) pairs coupled to it."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(space.dim)]
    for row, col, weight in coupling_terms(space):
        adj[row].append((col, weight))
        adj[col].append((row, weight))
    return adj


def _bare_energies(params: SystemParams, space: HilbertSpace) -> np.ndarray:
    """omega_c * photons + omega0 * excited qubits, per basis state."""
    return np.asarray(
        params.omega_c * space.photon_counts + params.omega0 * space.excitation_counts,
        dtype=float,
    )


def _reachable(adjacency: list[list[tuple[int, float]]], start: int) -> np.ndarray:
    """Sorted indices of the states connected to ``start`` by couplings."""
    seen = {start}
    frontier = [start]
    while frontier:
        frontier = [j for i in frontier for j, _ in adjacency[i] if j not in seen]
        seen.update(frontier)
    return np.array(sorted(seen))


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
    """One perturbative order: segment-start vectors, support and response.

    ``starts[k]`` is the order's coefficient vector at the start of segment
    k, shape (n_segments, dim).  ``response`` is Phi_order, which this order
    and every later one apply to the start vectors of lower orders.
    """

    order: int
    starts: np.ndarray
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
    """Segment-start vectors and on-segment responses for orders 0..j.

    Immutable once built; evaluation is pure and safe to run concurrently.
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
        self.energies = _bare_energies(params, self.space)

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

    def support(self, order: int) -> tuple[int, ...]:
        return self.tables[order].support()

    def _starts(self, segments: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Sum of the start vectors of orders max(lo, 0)..hi, on the reachable states."""
        rows = np.ix_(segments, self.states)
        total = np.zeros((len(segments), len(self.states)), dtype=np.complex128)
        for table in self.tables[max(lo, 0) : hi + 1]:
            total += table.starts[rows]
        return total

    def _evaluate(self, times: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Sum of the coefficients of orders lo..hi, shape (len(times), dim)."""
        segments, tau = locate(self.edges, times)
        states = self.states
        free_rates = -1j * self.energies[states]
        out = np.zeros((len(times), self.space.dim), dtype=np.complex128)
        widest = max((t.response.n_terms for t in self.tables[1 : hi + 1]), default=0)
        batch = max(1, _BATCH_ELEMENTS // max(1, widest * len(states)))
        for first in range(0, len(times), batch):
            part = slice(first, first + batch)
            k, t = segments[part], tau[part]
            block = np.exp(np.outer(t, free_rates)) * self._starts(k, lo, hi)
            on = self.schedule.is_on(k)
            if on.any():
                for m in range(1, hi + 1):
                    response = self.tables[m].response
                    if response.n_terms:
                        vectors = self._starts(k[on], lo - m, hi - m)
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
    states = _reachable(interaction_adjacency(space), initial_index)
    energies = _bare_energies(params, space)
    rows = {}
    for n, state in enumerate(states):
        row = [ExpPoly.zero()] * len(states)
        row[n] = ExpPoly.exponential(1.0, -1j * float(energies[state]))
        rows[int(state)] = tuple(row)
    starts = np.zeros((len(edges) - 1, space.dim), dtype=np.complex128)
    starts[:, initial_index] = np.exp(-1j * energies[initial_index] * edges[:-1])
    starts.setflags(write=False)
    table = OrderTable(0, starts, (initial_index,), SegmentResponse(rows, states), 0)
    return PerturbativeSolution(params, schedule, edges, (table,))


def _next_response(
    prev: SegmentResponse,
    adjacency: list[list[tuple[int, float]]],
    energies: np.ndarray,
    g0: float,
) -> SegmentResponse:
    """Phi_j from Phi_{j-1}: i dPhi_j/dtau = E Phi_j + g0 V Phi_{j-1}, Phi_j(0) = 0."""
    rows: dict[int, tuple[ExpPoly, ...]] = {}
    if g0 == 0.0:
        return SegmentResponse(rows, prev.states)
    for target in prev.states:
        target = int(target)
        sources = [(w, prev.rows[s]) for s, w in adjacency[target] if s in prev.rows]
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

    The on-segment response Phi_j comes from Phi_{j-1}.  The start vectors
    then advance across the grid: an off segment multiplies by the free
    phase, an on segment adds ``sum_{1<=m<=j} Phi_m(T/2) x_{j-m}`` to it,
    with x_j(0) = 0.  Couplings that would raise the photon number beyond
    the cutoff are dropped and counted.
    """
    space = prev.space
    j = prev.order + 1
    g0 = prev.schedule.g0
    adjacency = interaction_adjacency(space)
    prev_support = prev.support(j - 1)

    dropped = space.n_qubits * sum(
        1 for index in prev_support if space.photon_counts[index] == space.n_max
    )
    support: tuple[int, ...] = ()
    if g0 != 0.0:
        support = tuple(sorted({t for i in prev_support for t, _ in adjacency[i]}))
    response = _next_response(prev.tables[-1].response, adjacency, prev.energies, g0)

    states = prev.states
    n_seg = prev.n_segments
    h = prev.schedule.half_period
    # on segments that are followed by another segment
    on = np.flatnonzero(prev.schedule.is_on(np.arange(n_seg - 1)))
    drive = np.zeros((n_seg - 1, len(states)), dtype=np.complex128)
    responses = [table.response for table in prev.tables[1:]] + [response]
    for m, phi in enumerate(responses, start=1):
        if phi.n_terms and len(on):
            lower = prev.tables[j - m].starts[np.ix_(on, states)]
            drive[on] += lower @ phi.matrix(h).T
    starts = np.zeros((n_seg, space.dim), dtype=np.complex128)
    starts[1:, states] = _phase_scan(drive, -1j * prev.energies[states] * h)
    starts.setflags(write=False)
    return OrderTable(j, starts, support, response, dropped)


def _phase_scan(drive: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """y[k] = sum_{l<=k} exp(rates * (k - l)) * drive[l], by doubling.

    This is x[k+1] = exp(rates) * x[k] + drive[k] with x[0] = 0, solved in
    log2(len(drive)) vectorised steps instead of one step per segment.
    """
    total = drive.copy()
    shift = 1
    while shift < len(total):
        total[shift:] += np.exp(rates * shift) * total[:-shift]
        shift *= 2
    return total


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
