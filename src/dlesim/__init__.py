"""Dynamics of N qubits coupled to a resonator with switched coupling.

Three independent pipelines compute the same excitation probabilities from
the same (SystemParams, CouplingSchedule) pair: exact piecewise-constant
propagation, a general order-by-order perturbation engine over residue
tables (with ExpPoly, the exact exponential-polynomial algebra, as its
oracle), and closed-form second-order solutions for the two-qubit case.
"""

import os

# Every matrix here is a few hundred wide at most, so a second BLAS thread
# only spins.  OpenBLAS reads this once, when numpy loads: keep it first.
# A count the user chose under any of OpenBLAS's three names wins.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(name in os.environ for name in _THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .closedform2q import (
    ResonanceError,
    alpha1_eg1,
    alpha1_ge1,
    alpha2_ee0,
    alpha2_gg0,
    closedform_state,
    divergence_locations,
    scan_divergence_locations,
)
from .engine import (
    PerturbativeSolution,
    next_order,
    pert_excitation_probability,
    run_to_order,
    zeroth_order,
)
from .exppoly import ExpPoly, linear_combination
from .hilbert import HilbertSpace, photon_expectation, qubit_excitation
from .model import (
    CouplingSchedule,
    LaplacePoleError,
    SystemParams,
    hamiltonian_matrix,
    laplace_coupling,
    switching_grid,
)
from .propagator import Trajectory, convergence_check, propagate

__all__ = [
    "CouplingSchedule",
    "ExpPoly",
    "HilbertSpace",
    "LaplacePoleError",
    "PerturbativeSolution",
    "ResonanceError",
    "SystemParams",
    "Trajectory",
    "alpha1_eg1",
    "alpha1_ge1",
    "alpha2_ee0",
    "alpha2_gg0",
    "closedform_state",
    "convergence_check",
    "divergence_locations",
    "hamiltonian_matrix",
    "laplace_coupling",
    "linear_combination",
    "next_order",
    "pert_excitation_probability",
    "photon_expectation",
    "propagate",
    "qubit_excitation",
    "run_to_order",
    "scan_divergence_locations",
    "switching_grid",
    "zeroth_order",
]

__version__ = "0.1.0"
