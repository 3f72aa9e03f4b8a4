"""Exact bipartite entanglement dynamics of equivalent-neighbor spin-1/2
XY (spin van der Waals / Lipkin-Meshkov-Glick) systems.

Two independent pipelines compute the same observables: a closed-form one
(exact rational mixing coefficients, integer oscillation frequencies) and a
brute-force one (sector Hamiltonians held as lowering tables, H = S+S- - M,
the product start state propagated exactly in its Krylov subspace by one
real Lanczos pass, and Schmidt spectra from the block-diagonal reduced
density, one batched step per chunk of sample times).  The
:mod:`spinvdw.oracle` module compares them; the CLI exposes both.
"""

from .backend import KERNEL_BACKEND
from .combinatorics import (
    BCoefficientTable,
    b_coefficient,
    b_table,
    binomial,
    schmidt_multiplicities,
)
from .entanglement import (
    CriticalTimes,
    NormalizationError,
    ScanRow,
    SingularTimeError,
    critical_times_m1,
    entropy,
    entropy_grid,
    entropy_rate_m1,
    magic_number_scan,
    max_entropy_at_t2,
    schmidt_spectrum,
)
from .evolution import AmplitudeVector, amplitudes_at
from .model import InputError, ModelSpec
from .oracle import (
    BudgetExceededError,
    KrylovEvolution,
    SectorBasis,
    SectorHamiltonian,
    SectorState,
    VerificationReport,
    build_sector_hamiltonian,
    krylov_evolution,
    propagate,
    schmidt_eigenvalues,
    sector_basis,
    verify_closed_form,
    von_neumann_entropy,
)

__version__ = "0.1.0"
