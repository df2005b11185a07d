import math

import numpy as np
import pytest

from dlesim.hilbert import (
    BasisState,
    HilbertSpace,
    StateVector,
    basis_vector,
    enumerate_basis,
    ground_state,
    norm,
    photon_expectation,
    qubit_excitation,
)


def test_single_qubit_vacuum():
    states = enumerate_basis(1, 0)
    assert len(states) == 2
    assert states[0] == BasisState((0,), 0)
    assert states[1] == BasisState((1,), 0)


def test_two_qubit_one_photon_eight_states():
    states = enumerate_basis(2, 1)
    assert len(states) == 8
    labels = [s.label() for s in states]
    assert labels[0] == "|gg,0>"
    assert labels[-1] == "|ee,1>"
    # photons-major, bit-integer-minor
    assert labels == [
        "|gg,0>",
        "|ge,0>",
        "|eg,0>",
        "|ee,0>",
        "|gg,1>",
        "|ge,1>",
        "|eg,1>",
        "|ee,1>",
    ]


def test_three_qubit_count():
    assert len(enumerate_basis(3, 2)) == 24


def test_rejects_zero_qubits():
    with pytest.raises(ValueError):
        enumerate_basis(0, 1)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4])
def test_no_duplicates_and_size(n_qubits, n_max):
    states = enumerate_basis(n_qubits, n_max)
    assert len(set(states)) == len(states) == 2**n_qubits * (n_max + 1)


def test_index_of_inverts_enumeration():
    for n_qubits, n_max in [(1, 0), (2, 1), (3, 3), (4, 2)]:
        space = HilbertSpace(n_qubits, n_max)
        for k, state in enumerate(space.states):
            assert space.index_of(state.qubit_bits, state.photons) == k


def test_index_of_examples():
    space = HilbertSpace(2, 1)
    assert space.index_of((0, 0), 0) == 0
    assert space.index_of((1, 1), 1) == 7
    assert space.index_of((0, 1), 1) == 5


def test_index_of_rejects_bad_input():
    space = HilbertSpace(2, 1)
    with pytest.raises(ValueError):
        space.index_of((0, 0, 0), 0)
    with pytest.raises(ValueError):
        space.index_of((0, 0), 2)
    with pytest.raises(ValueError, match=r"got \(2, 0\)"):
        space.index_of((2, 0), 0)
    with pytest.raises(ValueError, match="got 0.5"):
        space.index_of((0, 0), 0.5)


def test_ground_state_probabilities():
    space = HilbertSpace(2, 1)
    psi = ground_state(space)
    assert qubit_excitation(psi.amplitudes, space, 0) == 0.0
    assert qubit_excitation(psi.amplitudes, space, 1) == 0.0
    assert photon_expectation(psi.amplitudes, space) == 0.0


def test_fully_excited():
    space = HilbertSpace(2, 1)
    psi = basis_vector(space, space.index_of((1, 1), 0))
    assert qubit_excitation(psi.amplitudes, space, 1) == 1.0


def test_equal_superposition_half():
    space = HilbertSpace(2, 1)
    amps = np.full(8, 1 / np.sqrt(8), dtype=complex)
    psi = StateVector(amps, space)
    # brute force: sum weights of states whose bit 0 is set
    expected = sum(
        abs(a) ** 2
        for a, s in zip(psi.amplitudes, space.states)
        if s.qubit_bits[0] == 1
    )
    assert expected == pytest.approx(0.5, abs=1e-12)
    assert qubit_excitation(psi.amplitudes, space, 0) == pytest.approx(
        expected, abs=1e-15
    )


def test_excited_one_photon_expectation():
    space = HilbertSpace(2, 1)
    psi = basis_vector(space, space.index_of((0, 1), 1))
    assert photon_expectation(psi.amplitudes, space) == pytest.approx(1.0)


def test_mixed_photon_expectation():
    space = HilbertSpace(2, 1)
    amps = np.zeros(8, dtype=complex)
    amps[space.index_of((0, 0), 0)] = 1 / np.sqrt(2)
    amps[space.index_of((0, 1), 1)] = 1 / np.sqrt(2)
    psi = StateVector(amps, space)
    assert photon_expectation(psi.amplitudes, space) == pytest.approx(0.5)


def test_excitation_bounded_by_norm():
    rng = np.random.default_rng(7)
    space = HilbertSpace(3, 2)
    for _ in range(20):
        amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        psi = StateVector(amps, space)
        norm_sq = psi.norm() ** 2
        for q in range(space.n_qubits):
            assert qubit_excitation(psi.amplitudes, space, q) <= norm_sq + 1e-12


def test_qubit_index_out_of_range():
    psi = ground_state(HilbertSpace(2, 1))
    with pytest.raises(ValueError):
        qubit_excitation(psi.amplitudes, psi.space, 2)


def test_statevector_shape_mismatch():
    with pytest.raises(ValueError):
        StateVector(np.zeros(3, dtype=complex), HilbertSpace(2, 1))


def test_amplitudes_are_read_only():
    psi = ground_state(HilbertSpace(2, 1))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def coupling_terms(space):
    """Reference unit coupling as (row, col, weight) triples, one per pair.

    Enumerated from the qubit-raising side: for each state with qubit l in g,
    raising the qubit while removing a photon carries weight sqrt(n) and
    while adding one sqrt(n+1).  The Hermitian partners are the transposes.
    """
    terms = []
    for col, state in enumerate(space.states):
        n = state.photons
        for q in range(space.n_qubits):
            if state.qubit_bits[q] == 1:
                continue
            raised = list(state.qubit_bits)
            raised[q] = 1
            raised = tuple(raised)
            if n >= 1:
                row = space.index_of(raised, n - 1)
                terms.append((row, col, math.sqrt(n)))
            if n + 1 <= space.n_max:
                row = space.index_of(raised, n + 1)
                terms.append((row, col, math.sqrt(n + 1)))
    return terms


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4])
def test_coupling_matches_reference_terms(n_qubits, n_max):
    space = HilbertSpace(n_qubits, n_max)
    expected = np.zeros((space.dim, space.dim))
    for row, col, weight in coupling_terms(space):
        assert expected[row, col] == 0.0
        expected[row, col] = expected[col, row] = weight
    assert space.coupling.dtype == np.float64
    assert np.array_equal(space.coupling, expected)
    with pytest.raises(ValueError):
        space.coupling[0, 0] = 1.0


def test_batched_observables_match_rows():
    rng = np.random.default_rng(3)
    space = HilbertSpace(3, 2)
    amps = rng.normal(size=(5, space.dim)) + 1j * rng.normal(size=(5, space.dim))
    photons = photon_expectation(amps, space)
    assert photons.shape == (5,)
    for q in range(space.n_qubits):
        batched = qubit_excitation(amps, space, q)
        for row, value in zip(amps, batched):
            assert qubit_excitation(row, space, q) == value
    for row, value in zip(amps, photons):
        assert photon_expectation(row, space) == value


@pytest.mark.parametrize("n_qubits, n_max", [(2, 2), (3, 4), (6, 2)])
def test_observables_do_not_depend_on_the_batch(n_qubits, n_max):
    # dims 12, 40 and 192: every row is reduced on its own, to the bit
    space = HilbertSpace(n_qubits, n_max)
    rng = np.random.default_rng(n_qubits)
    amps = rng.normal(size=(10, space.dim)) + 1j * rng.normal(size=(10, space.dim))
    observables = [lambda a: photon_expectation(a, space), norm] + [
        lambda a, q=q: qubit_excitation(a, space, q) for q in range(n_qubits)
    ]
    for f in observables:
        whole = f(amps)
        assert whole.tobytes() == np.array([f(row) for row in amps]).tobytes()
        chunks = np.concatenate([f(amps[i : i + 3]) for i in range(0, len(amps), 3)])
        assert whole.tobytes() == chunks.tobytes()
