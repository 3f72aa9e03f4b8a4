"""Brute-force verification path: dense excitation-sector Hamiltonians,
exact propagation by eigendecomposition, reduced density matrices.

Everything here is rebuilt from the Hamiltonian itself, independently of
the closed-form modules, so that :func:`verify_closed_form` can compare the
two pipelines as equals.  Conventions: standard raising/lowering operators
(sigma^x +- i sigma^y)/2 and one hop term per unordered site pair with
strength equal to the coupling; this is the unique reading under which the
single-excitation spectrum gap is N times the coupling, as the closed forms
require.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelSpec

# Dense-solver budgets: C(14, 7) = 3432 sector states, 2^8 full-space states.
SECTOR_SITE_BUDGET = 14
FULL_SPACE_SITE_BUDGET = 8


class BudgetExceededError(ValueError):
    """A request exceeded the dense-solver size budget."""


@dataclass(frozen=True)
class SectorBasis:
    """Fixed-excitation-number basis; site j maps to bit j, patterns ascending."""

    n_total: int
    excitation_count: int
    # both follow from (n_total, excitation_count), so equality skips them
    states: tuple[int, ...] = field(compare=False)
    index: dict[int, int] = field(compare=False)


@dataclass(eq=False)
class SectorHamiltonian:
    """Hop matrix on a sector basis, in units of the coupling."""

    basis: SectorBasis
    matrix: np.ndarray
    _eigensystem: tuple | None = field(default=None, repr=False)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (eigenvalues, eigenvectors) of the real symmetric matrix."""
        if self._eigensystem is None:
            self._eigensystem = np.linalg.eigh(self.matrix)
        return self._eigensystem


@dataclass(frozen=True, eq=False)
class SectorState:
    basis: SectorBasis
    amplitudes: np.ndarray


@dataclass(frozen=True, eq=False)
class ReducedDensity:
    """Reduced density matrix of the first ``partition_size`` sites."""

    partition_size: int
    matrix: np.ndarray
    eigenvalues: np.ndarray  # descending


def sector_basis(n_total: int, excitation_count: int) -> SectorBasis:
    if not 0 <= excitation_count <= n_total:
        raise ValueError(
            f"excitation count must lie in 0..{n_total}, got {excitation_count}"
        )
    patterns = sorted(
        sum(1 << site for site in sites)
        for sites in itertools.combinations(range(n_total), excitation_count)
    )
    return SectorBasis(
        n_total,
        excitation_count,
        tuple(patterns),
        {pattern: i for i, pattern in enumerate(patterns)},
    )


def build_sector_hamiltonian(n_total: int, excitations: int) -> SectorHamiltonian:
    """XY hop Hamiltonian restricted to a fixed excitation sector.

    Matrix element 1 (in units of the coupling) between any two basis states
    that differ by moving a single excitation between two sites; excitation
    number is conserved, the diagonal is zero.
    """
    if n_total > SECTOR_SITE_BUDGET:
        raise BudgetExceededError(
            f"n_total = {n_total} exceeds the dense sector budget of {SECTOR_SITE_BUDGET}"
        )
    basis = sector_basis(n_total, excitations)
    dim = len(basis.states)
    matrix = np.zeros((dim, dim))
    for row, pattern in enumerate(basis.states):
        occupied = [s for s in range(n_total) if pattern >> s & 1]
        empty = [s for s in range(n_total) if not pattern >> s & 1]
        for i in occupied:
            for j in empty:
                matrix[row, basis.index[pattern ^ (1 << i) ^ (1 << j)]] = 1.0
    return SectorHamiltonian(basis, matrix)


def initial_sector_state(n_total: int, m_excited: int) -> SectorState:
    """Product state with the first ``m_excited`` sites excited."""
    basis = sector_basis(n_total, m_excited)
    amplitudes = np.zeros(len(basis.states), dtype=complex)
    amplitudes[basis.index[(1 << m_excited) - 1]] = 1.0
    return SectorState(basis, amplitudes)


def _real_times_complex(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``matrix @ vector`` for a real matrix and a complex vector.

    The real and imaginary parts go through one real product as the two rows
    of a 2 x d matrix, so the matrix is never copied to complex.  Rows, not
    columns: at d = 1716 on one OpenBLAS thread (Xeon) this took 2.8 ms and
    the skinny d x 2 product 9.3 ms.
    """
    real, imag = np.stack([vector.real, vector.imag]) @ matrix.T
    return real + 1j * imag


def propagate(h: SectorHamiltonian, initial: SectorState, tau: float) -> SectorState:
    """exp(-i H tau) applied through the spectral decomposition.

    The eigenvectors of the real symmetric hop matrix are real, so both
    products with the eigenvector matrix stay real; only the length-d
    vectors carry the complex phases.
    """
    if h.basis != initial.basis:
        raise ValueError("state and Hamiltonian use different bases")
    eigenvalues, eigenvectors = h.eigensystem()
    rotated = _real_times_complex(eigenvectors.T, initial.amplitudes)
    phased = np.exp(-1j * eigenvalues * float(tau)) * rotated
    return SectorState(h.basis, _real_times_complex(eigenvectors, phased))


def _partial_density(state: SectorState, boundary: int, keep_first: bool) -> np.ndarray:
    """Density matrix of the first ``boundary`` sites (``keep_first``) or of
    the remaining sites (otherwise), built directly from the sector state.

    The amplitudes are scattered into the (kept x traced) coefficient matrix
    C, whose rows are the kept-side patterns, and rho = C C^dagger.
    """
    n_total = state.basis.n_total
    kept_sites = boundary if keep_first else n_total - boundary
    patterns = np.array(state.basis.states, dtype=np.int64)
    kept, traced = patterns & ((1 << boundary) - 1), patterns >> boundary
    if not keep_first:
        kept, traced = traced, kept
    coefficients = np.zeros((1 << kept_sites, 1 << (n_total - kept_sites)), dtype=complex)
    coefficients[kept, traced] = state.amplitudes
    return coefficients @ coefficients.conj().T


def reduced_density(state: SectorState, partition_size: int) -> ReducedDensity:
    """Trace out everything but the first ``partition_size`` sites."""
    n_total = state.basis.n_total
    if not 1 <= partition_size <= n_total - 1:
        raise ValueError(
            f"partition size must lie in 1..{n_total - 1}, got {partition_size}"
        )
    rho = _partial_density(state, partition_size, keep_first=True)
    trace = float(np.trace(rho).real)
    if not abs(trace - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError(f"reduced density has trace {trace!r}")
    eigenvalues = np.linalg.eigvalsh(rho)[::-1]
    return ReducedDensity(partition_size, rho, eigenvalues)


def schmidt_eigenvalues(state: SectorState, partition_size: int) -> np.ndarray:
    """Eigenvalues (descending) of the reduced density over the first
    ``partition_size`` sites, computed on the smaller side of the cut.

    For a pure state both sides share the nonzero spectrum, so tracing to
    the smaller subsystem is free accuracy and memory.
    """
    n_total = state.basis.n_total
    if partition_size in (0, n_total):
        return np.array([1.0])
    keep_first = partition_size <= n_total - partition_size
    rho = _partial_density(state, partition_size, keep_first)
    return np.linalg.eigvalsh(rho)[::-1]


def von_neumann_entropy(rho) -> float:
    """Base-2 entropy of a reduced density matrix or eigenvalue list, in ebits.

    Rounding noise in [-1e-9, 0] is clipped to zero; anything more negative
    is rejected as a broken density matrix.  A NaN eigenvalue gives NaN.
    """
    if isinstance(rho, ReducedDensity):
        eigenvalues = rho.eigenvalues
    else:
        eigenvalues = np.asarray(rho, dtype=float)
    if np.isnan(eigenvalues).any():
        return math.nan
    if eigenvalues.size and float(eigenvalues.min()) < -1e-9:
        raise ValueError(
            f"density matrix has a negative eigenvalue: {float(eigenvalues.min())!r}"
        )
    total = 0.0
    for lam in eigenvalues:
        if lam > 1e-300:
            total -= lam * math.log2(lam)
    return max(0.0, total)


@dataclass(frozen=True)
class VerificationReport:
    """Worst deviations between the closed forms and the dense pipeline."""

    spec: ModelSpec
    sample_count: int
    max_spectrum_deviation: float
    max_entropy_deviation: float
    tolerance: float = 1e-9

    @property
    def passed(self) -> bool:
        return (
            self.max_spectrum_deviation < self.tolerance
            and self.max_entropy_deviation < self.tolerance
        )


def verify_closed_form(spec: ModelSpec, tau_samples) -> VerificationReport:
    """Compare closed-form Schmidt spectra and entropies against the dense
    pipeline at each sample time.

    The closed-form spectrum is zero-padded to the reduced-density dimension
    and both are compared in descending order.  Raises ValueError unless the
    samples are finite and non-empty; a NaN deviation fails the report.
    """
    from .combinatorics import b_table
    from .entanglement import entropy, schmidt_spectrum
    from .evolution import amplitudes_at

    taus = np.atleast_1d(np.asarray(tau_samples, dtype=float))
    if taus.size == 0 or not np.isfinite(taus).all():
        raise ValueError("tau samples must be finite and non-empty")
    h = build_sector_hamiltonian(spec.n_total, spec.m_excited)
    psi0 = initial_sector_state(spec.n_total, spec.m_excited)
    table = b_table(spec)
    padded = max(2**spec.m_prime, spec.m_prime + 1)
    spectrum_deviations = []
    entropy_deviations = []
    for tau in taus:
        spectrum = schmidt_spectrum(amplitudes_at(spec, table, float(tau)))
        closed = np.zeros(padded)
        closed[: spectrum.probabilities.size] = np.sort(spectrum.probabilities)[::-1]
        evolved = propagate(h, psi0, float(tau))
        oracle_eig = schmidt_eigenvalues(evolved, spec.m_excited)
        dense = np.zeros(padded)
        dense[: oracle_eig.size] = oracle_eig
        spectrum_deviations.append(np.max(np.abs(closed - dense)))
        entropy_deviations.append(abs(entropy(spectrum) - von_neumann_entropy(oracle_eig)))
    # np.max propagates NaN, where the builtin max would drop it
    return VerificationReport(
        spec, taus.size, float(np.max(spectrum_deviations)), float(np.max(entropy_deviations))
    )


def full_space_hamiltonian(n_total: int) -> np.ndarray:
    """Hop Hamiltonian on the full 2^N space from explicit Pauli tensor
    products (site j maps to bit j), in units of the coupling."""
    if n_total > FULL_SPACE_SITE_BUDGET:
        raise BudgetExceededError(
            f"n_total = {n_total} exceeds the full-space budget of {FULL_SPACE_SITE_BUDGET}"
        )
    dim = 1 << n_total
    raising = np.array([[0.0, 0.0], [1.0, 0.0]])  # |1><0| with |0> first
    lowering = raising.T
    identity = np.eye(2)
    hamiltonian = np.zeros((dim, dim))
    for a, b in itertools.combinations(range(n_total), 2):
        for op_a, op_b in ((raising, lowering), (lowering, raising)):
            term = np.array([[1.0]])
            for site in range(n_total - 1, -1, -1):
                factor = op_a if site == a else op_b if site == b else identity
                term = np.kron(term, factor)
            hamiltonian += term
    return hamiltonian


def full_space_propagate(n_total: int, m_excited: int, tau: float) -> np.ndarray:
    """Evolve the initial product state on the full 2^N space."""
    dim = 1 << n_total
    eigenvalues, eigenvectors = np.linalg.eigh(full_space_hamiltonian(n_total))
    psi0 = np.zeros(dim, dtype=complex)
    psi0[(1 << m_excited) - 1] = 1.0
    rotated = _real_times_complex(eigenvectors.T, psi0)
    phased = np.exp(-1j * eigenvalues * float(tau)) * rotated
    return _real_times_complex(eigenvectors, phased)


def full_space_crosscheck(n_total: int, m_excited: int, tau: float) -> float:
    """Validate the sector restriction against the full 2^N propagation.

    Returns the maximum amplitude deviation between the full-space evolution
    of the initial product state and the sector propagation embedded back
    into the full space.
    """
    full = full_space_propagate(n_total, m_excited, tau)
    sector = propagate(
        build_sector_hamiltonian(n_total, m_excited),
        initial_sector_state(n_total, m_excited),
        float(tau),
    )
    embedded = np.zeros(full.size, dtype=complex)
    for pattern, amplitude in zip(sector.basis.states, sector.amplitudes):
        embedded[pattern] = amplitude
    return float(np.max(np.abs(full - embedded)))
