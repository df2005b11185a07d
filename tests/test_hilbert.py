import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dlesim.hilbert import HilbertSpace, expectation, norm, qubit_excitation


def configurations(space):
    """(qubit bits, photons) of every basis state, read off the space's arrays."""
    return list(zip(map(tuple, space.bit_table.tolist()), space.photon_counts.tolist()))


def basis_vector(space, index):
    amps = np.zeros(space.dim, dtype=complex)
    amps[index] = 1.0
    return amps


def test_single_qubit_vacuum():
    space = HilbertSpace(1, 0)
    assert space.dim == 2
    assert configurations(space) == [((0,), 0), ((1,), 0)]


def test_two_qubit_one_photon_eight_states():
    space = HilbertSpace(2, 1)
    assert space.dim == 8
    labels = [space.label(k) for k in range(space.dim)]
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
    space = HilbertSpace(3, 2)
    assert space.dim == len(configurations(space)) == 24


def test_rejects_zero_qubits():
    with pytest.raises(ValueError, match="n_qubits"):
        HilbertSpace(0, 1)


def test_rejects_bool_sizes():
    with pytest.raises(ValueError, match="^n_qubits must be an integer, got True$"):
        HilbertSpace(True, 2)
    with pytest.raises(ValueError, match="^n_max must be an integer, got True$"):
        HilbertSpace(2, True)


@pytest.mark.parametrize("n_max", [1.5, -1])
def test_rejects_bad_cutoff(n_max):
    with pytest.raises(ValueError, match="n_max"):
        HilbertSpace(2, n_max)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4])
def test_no_duplicates_and_size(n_qubits, n_max):
    space = HilbertSpace(n_qubits, n_max)
    states = configurations(space)
    assert len(set(states)) == len(states) == space.dim == 2**n_qubits * (n_max + 1)
    assert space.bit_table.dtype == np.uint8
    assert space.photon_counts.dtype == space.excitation_counts.dtype == np.int64
    assert np.array_equal(space.excitation_counts, space.bit_table.sum(axis=1))


def test_index_of_inverts_enumeration():
    for n_qubits, n_max in [(1, 0), (2, 1), (3, 3), (4, 2)]:
        space = HilbertSpace(n_qubits, n_max)
        for k, (bits, photons) in enumerate(configurations(space)):
            assert space.index_of(bits, photons) == k
            # numpy integers, as the arrays hold them, are bits and counts too
            assert space.index_of(space.bit_table[k], space.photon_counts[k]) == k
            assert space.label(k) == "|" + "".join("ge"[b] for b in bits) + f",{photons}>"


@pytest.mark.parametrize("index", [-1, 12, True, 1.0])
def test_label_rejects_what_is_not_a_basis_index(index):
    # dim is 12 at N=2, n_max=2; -1 would otherwise wrap to the last state
    with pytest.raises(ValueError, match="index"):
        HilbertSpace(2, 2).label(index)


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
    # a bool photon count is rejected, as check_index rejects a bool index
    with pytest.raises(ValueError, match="photons"):
        space.index_of((0, 0), True)


NOT_BITS = {
    "True": True,
    "False": False,
    "numpy-bool": np.True_,
    "float-one": 1.0,
    "float-zero": 0.0,
    "numpy-float": np.float64(1.0),
    "fraction": Fraction(1),
}


@pytest.mark.parametrize("bit", NOT_BITS.values(), ids=NOT_BITS.keys())
def test_index_of_rejects_a_bit_that_is_not_an_integer(bit):
    # a bool or a float equal to 0 or 1 is no bit, as a bool photon count is no count
    with pytest.raises(ValueError, match=r"^need 2 qubit bits of 0 or 1, got "):
        HilbertSpace(2, 1).index_of((bit, 0), 1)


@pytest.mark.parametrize("start", [-1, 12, 1.5, True])
def test_sector_rejects_a_start_outside_the_basis(start):
    with pytest.raises(ValueError, match="^initial must be "):
        HilbertSpace(2, 2).sector(start)


def test_ground_state_probabilities():
    space = HilbertSpace(2, 1)
    psi = basis_vector(space, 0)
    assert qubit_excitation(psi, space, 0) == 0.0
    assert qubit_excitation(psi, space, 1) == 0.0
    assert expectation(psi, space.photon_counts) == 0.0


def test_fully_excited():
    space = HilbertSpace(2, 1)
    psi = basis_vector(space, space.index_of((1, 1), 0))
    assert qubit_excitation(psi, space, 1) == 1.0


def test_equal_superposition_half():
    space = HilbertSpace(2, 1)
    psi = np.full(8, 1 / np.sqrt(8), dtype=complex)
    # brute force: sum weights of states whose bit 0 is set
    expected = sum(
        abs(a) ** 2
        for a, (bits, _) in zip(psi, configurations(space))
        if bits[0] == 1
    )
    assert expected == pytest.approx(0.5, abs=1e-12)
    assert qubit_excitation(psi, space, 0) == pytest.approx(
        expected, abs=1e-15
    )


def test_excited_one_photon_expectation():
    space = HilbertSpace(2, 1)
    psi = basis_vector(space, space.index_of((0, 1), 1))
    assert expectation(psi, space.photon_counts) == pytest.approx(1.0)


def test_mixed_photon_expectation():
    space = HilbertSpace(2, 1)
    psi = np.zeros(8, dtype=complex)
    psi[space.index_of((0, 0), 0)] = 1 / np.sqrt(2)
    psi[space.index_of((0, 1), 1)] = 1 / np.sqrt(2)
    assert expectation(psi, space.photon_counts) == pytest.approx(0.5)


def test_excitation_bounded_by_norm():
    rng = np.random.default_rng(7)
    space = HilbertSpace(3, 2)
    for _ in range(20):
        psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        norm_sq = float(norm(psi)) ** 2
        for q in range(space.n_qubits):
            assert qubit_excitation(psi, space, q) <= norm_sq + 1e-12


def test_qubit_index_out_of_range():
    space = HilbertSpace(2, 1)
    with pytest.raises(ValueError):
        qubit_excitation(basis_vector(space, 0), space, 2)
    # a bool or a float is not a qubit index either
    for qubit_index in (True, 1.0):
        with pytest.raises(ValueError, match="qubit_index"):
            qubit_excitation(basis_vector(space, 0), space, qubit_index)


def coupling_terms(space):
    """Reference unit coupling as (row, col, weight) triples, one per pair.

    Enumerated from the qubit-raising side: for each state with qubit l in g,
    raising the qubit while removing a photon carries weight sqrt(n) and
    while adding one sqrt(n+1).  The Hermitian partners are the transposes.
    """
    terms = []
    states = [
        (bits, n)
        for n in range(space.n_max + 1)
        for bits in itertools.product((0, 1), repeat=space.n_qubits)
    ]
    for col, (bits, n) in enumerate(states):
        for q in range(space.n_qubits):
            if bits[q] == 1:
                continue
            raised = list(bits)
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
    full = space.block(np.arange(space.dim))
    assert full.dtype == np.float64
    assert np.array_equal(full, expected)
    for array in space.edges:
        with pytest.raises(ValueError):
            array[:1] = 0
    for start in (0, 1):  # both parity sectors
        states = space.sector(start)
        assert np.array_equal(space.block(states), expected[np.ix_(states, states)])


def test_sector_and_its_block_stay_small():
    # N=10, n_max=2: dim 3,072 and a sector of 1,536; a dense dim x dim
    # coupling alone would take 75 MB
    tracemalloc.start()
    try:
        space = HilbertSpace(10, 2)
        space.block(space.sector(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25e6


def test_batched_observables_match_rows():
    rng = np.random.default_rng(3)
    space = HilbertSpace(3, 2)
    amps = rng.normal(size=(5, space.dim)) + 1j * rng.normal(size=(5, space.dim))
    photons = expectation(amps, space.photon_counts)
    assert photons.shape == (5,)
    for q in range(space.n_qubits):
        batched = qubit_excitation(amps, space, q)
        for row, value in zip(amps, batched):
            assert qubit_excitation(row, space, q) == value
    for row, value in zip(amps, photons):
        assert expectation(row, space.photon_counts) == value


@pytest.mark.parametrize("n_qubits, n_max", [(2, 2), (3, 4), (6, 2)])
def test_observables_do_not_depend_on_the_batch(n_qubits, n_max):
    # dims 12, 40 and 192: every row is reduced on its own, to the bit
    space = HilbertSpace(n_qubits, n_max)
    rng = np.random.default_rng(n_qubits)
    amps = rng.normal(size=(10, space.dim)) + 1j * rng.normal(size=(10, space.dim))
    observables = [lambda a: expectation(a, space.photon_counts), norm] + [
        lambda a, q=q: qubit_excitation(a, space, q) for q in range(n_qubits)
    ]
    for f in observables:
        whole = f(amps)
        assert whole.tobytes() == np.array([f(row) for row in amps]).tobytes()
        chunks = np.concatenate([f(amps[i : i + 3]) for i in range(0, len(amps), 3)])
        assert whole.tobytes() == chunks.tobytes()
