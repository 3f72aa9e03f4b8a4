"""Brute-force verification path: dense excitation-sector Hamiltonians,
exact propagation in the start state's Krylov subspace, and Schmidt spectra
from the block-diagonal reduced density.

Propagation runs real Lanczos on the dense sector matrix, once from the
real and once from the imaginary part of the start state (a zero part is
skipped), until the residual vanishes, so each cyclic subspace is invariant
and exp(-i H tau) acts on it exactly through one small tridiagonal
eigendecomposition.  The subspace is found from the matrix and the start
vector alone: nothing sizes it from the model.  One call evolves to every
time of a 1-d tau array at once.

The reduced density of a sector state is block diagonal in the kept side's
excitation count, because the Hamiltonian conserves excitation number.
:func:`schmidt_eigenvalues` diagonalizes it block by block, for a whole stack
of states per call, without forming the 2^M x 2^(N-M) coefficient matrix;
it uses no permutation symmetry of the sites.

Everything here is rebuilt from the Hamiltonian itself, independently of
the closed-form modules, so that :func:`verify_closed_form` can compare the
two pipelines as equals.  Conventions: standard raising/lowering operators
(sigma^x +- i sigma^y)/2 and one hop term per unordered site pair with
strength equal to the coupling; this is the unique reading under which the
single-excitation spectrum gap is N times the coupling, as the closed forms
require.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .model import ModelSpec

# Dense-solver budgets: C(14, 7) = 3432 sector states, 2^8 full-space states.
SECTOR_SITE_BUDGET = 14
FULL_SPACE_SITE_BUDGET = 8
# Lanczos stops once its residual falls below this fraction of the matrix's
# largest absolute row sum, a bound on the spectral radius.
KRYLOV_BREAKDOWN = 1e-13


class BudgetExceededError(ValueError):
    """A request exceeded the dense-solver size budget."""


@dataclass(frozen=True)
class SectorBasis:
    """Fixed-excitation-number basis; site j maps to bit j, patterns ascending."""

    n_total: int
    excitation_count: int
    # follows from (n_total, excitation_count), so equality skips it
    states: tuple[int, ...] = field(compare=False)


@dataclass(frozen=True, eq=False)
class SectorHamiltonian:
    """Hop matrix on a sector basis, in units of the coupling."""

    basis: SectorBasis
    matrix: np.ndarray

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of the real symmetric matrix."""
        return np.linalg.eigh(self.matrix)


@dataclass(frozen=True, eq=False)
class SectorState:
    """Amplitudes over the basis patterns: shape (d,), or (T, d) for T times."""

    basis: SectorBasis
    amplitudes: np.ndarray


def sector_basis(n_total: int, excitation_count: int) -> SectorBasis:
    if not 0 <= excitation_count <= n_total:
        raise ValueError(
            f"excitation count must lie in 0..{n_total}, got {excitation_count}"
        )
    patterns = sorted(
        sum(1 << site for site in sites)
        for sites in itertools.combinations(range(n_total), excitation_count)
    )
    return SectorBasis(n_total, excitation_count, tuple(patterns))


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
    patterns = np.array(basis.states, dtype=np.int64)
    # the N(N-1) ordered site pairs (i, j): an excitation hops from i to j
    pairs = np.array(list(itertools.permutations(range(n_total), 2)), dtype=np.int64)
    i, j = pairs.reshape(-1, 2).T
    occupied = (patterns[:, None] >> np.arange(n_total) & 1).astype(bool)
    row, pair = np.nonzero(occupied[:, i] & ~occupied[:, j])
    hopped = patterns[row] ^ (1 << i[pair]) ^ (1 << j[pair])
    matrix = np.zeros((patterns.size, patterns.size))
    matrix[row, np.searchsorted(patterns, hopped)] = 1.0
    return SectorHamiltonian(basis, matrix)


def initial_sector_state(n_total: int, m_excited: int) -> SectorState:
    """Product state with the first ``m_excited`` sites excited."""
    basis = sector_basis(n_total, m_excited)
    amplitudes = np.zeros(len(basis.states), dtype=complex)
    amplitudes[0] = 1.0  # (1 << m_excited) - 1 is the smallest pattern
    return SectorState(basis, amplitudes)


def _krylov_spectrum(matrix: np.ndarray, start: np.ndarray) -> tuple:
    """Lanczos basis Q (one vector per row) of the cyclic subspace of the
    real unit vector ``start``, and the eigendecomposition T = S diag(Theta) S^T
    of the tridiagonal projection of the real symmetric ``matrix`` onto it.

    Each new vector is orthogonalized twice against all earlier ones
    (classical Gram-Schmidt).  The loop ends when the residual norm beta
    drops below ``KRYLOV_BREAKDOWN`` times the largest absolute row sum, so
    the subspace is invariant to rounding, or when it spans the whole space.
    """
    dim = matrix.shape[0]
    # row by row, so no d x d temporary
    threshold = KRYLOV_BREAKDOWN * float(max(np.abs(row).sum() for row in matrix))
    vectors, alphas, betas = [start], [], []
    while True:
        subspace = np.array(vectors)
        residual = matrix @ vectors[-1]
        overlap = np.zeros(len(vectors))
        for _ in range(2):
            step = subspace @ residual
            residual = residual - step @ subspace
            overlap += step
        alphas.append(overlap[-1])
        beta = float(np.linalg.norm(residual))
        if len(vectors) == dim or beta <= threshold:
            break
        betas.append(beta)
        vectors.append(residual / beta)
    theta, rotation = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
    return subspace, theta, rotation


def propagate(h: SectorHamiltonian, initial: SectorState, tau) -> SectorState:
    """exp(-i H tau) applied in the Krylov subspace of the start state.

    ``tau`` is a scalar or a 1-d array of times; the amplitudes have shape
    ``tau.shape + (d,)``.  H is real, so U(a + ib) = Ua + iUb: each nonzero
    part x of the start state takes one real :func:`_krylov_spectrum` pass,
    and psi(tau) sums |x| (exp(-i tau Theta) * S[0, :]) S^T Q over the parts,
    times i for the imaginary one.  Every time then costs O(d k) for a
    k-vector subspace.  A zero start state evolves to the zero state.
    Raises ValueError for a non-finite tau or a start state with a
    non-finite amplitude.
    """
    if h.basis != initial.basis:
        raise ValueError("state and Hamiltonian use different bases")
    taus = np.asarray(tau, dtype=float)
    if not np.isfinite(taus).all():
        raise ValueError(f"tau must be finite, got {tau!r}")
    amplitudes = np.asarray(initial.amplitudes, dtype=complex)
    if not np.isfinite(amplitudes).all():
        raise ValueError("start state has a non-finite amplitude")
    evolved = np.zeros(taus.shape + amplitudes.shape, dtype=complex)
    for unit, part in ((1.0, amplitudes.real), (1j, amplitudes.imag)):
        norm = float(np.linalg.norm(part))
        if norm == 0.0:
            continue
        vectors, theta, rotation = _krylov_spectrum(h.matrix, part / norm)
        phased = np.exp(-1j * np.multiply.outer(taus, theta)) * rotation[0]
        evolved += (unit * norm * (phased @ rotation.T)) @ vectors
    return SectorState(h.basis, evolved)


def schmidt_eigenvalues(state: SectorState, partition_size: int) -> np.ndarray:
    """Eigenvalues (descending) of the reduced density over the first
    ``partition_size`` sites, computed on the smaller side of the cut.

    ``state`` holds one amplitude vector, shape (d,), or a stack, (T, d);
    the result has shape (r,) or (T, r), with one eigenvalue per kept-side
    pattern that occurs in the sector (kept patterns that never occur only
    add zeros).  Excitation number is conserved, so rho is block diagonal in
    the kept side's excitation count k: block k is C_k C_k^dagger, where C_k
    holds the amplitudes whose kept half has k excitations, rows indexed by
    the kept pattern and columns by the traced one.  The split and the block
    index maps are built once per call; each block then takes one batched
    product and one batched ``eigvalsh``.  For a pure state both sides share
    the nonzero spectrum, so tracing to the smaller subsystem is free
    accuracy and memory.  Raises ValueError for a non-finite amplitude.
    """
    basis = state.basis
    n_total = basis.n_total
    if not 0 <= partition_size <= n_total:
        raise ValueError(
            f"partition size must lie in 0..{n_total}, got {partition_size}"
        )
    amplitudes = np.asarray(state.amplitudes, dtype=complex)
    if amplitudes.ndim not in (1, 2) or amplitudes.shape[-1] != len(basis.states):
        raise ValueError(
            f"amplitudes of shape {amplitudes.shape} do not fit a basis of "
            f"{len(basis.states)} states"
        )
    if not np.isfinite(amplitudes).all():
        raise ValueError("sector state has a non-finite amplitude")
    patterns = np.array(basis.states, dtype=np.int64)
    kept, traced = patterns & ((1 << partition_size) - 1), patterns >> partition_size
    kept_sites = min(partition_size, n_total - partition_size)
    if partition_size > kept_sites:
        kept, traced = traced, kept
    kept_count = (kept[:, None] >> np.arange(kept_sites) & 1).sum(axis=1)
    spectra = []
    # the occurring counts, by bincount: a bare np.unique imports numpy.ma
    for k in np.flatnonzero(np.bincount(kept_count)):
        members = np.flatnonzero(kept_count == k)
        rows, row = np.unique(kept[members], return_inverse=True)
        cols, col = np.unique(traced[members], return_inverse=True)
        block = np.zeros(amplitudes.shape[:-1] + (rows.size, cols.size), dtype=complex)
        block[..., row, col] = amplitudes[..., members]
        spectra.append(np.linalg.eigvalsh(block @ block.conj().swapaxes(-1, -2)))
    return np.sort(np.concatenate(spectra, axis=-1), axis=-1)[..., ::-1]


def von_neumann_entropy(eigenvalues):
    """Base-2 entropy of a density-matrix spectrum, in ebits, along the last
    axis: a Python float for one spectrum, an array for a stack of them.

    Rounding noise in [-1e-9, 0] is clipped to zero; anything more negative
    in a finite spectrum is rejected as a broken density matrix.  A spectrum
    with a NaN or infinite eigenvalue gives NaN.
    """
    values = np.asarray(eigenvalues, dtype=float)
    finite = np.isfinite(values).all(axis=-1)
    values = np.where(finite[..., None], values, 1.0)
    lowest = values.min(axis=-1, initial=0.0)
    if (lowest < -1e-9).any():
        raise ValueError(
            f"density matrix has a negative eigenvalue: {float(lowest.min())!r}"
        )
    positive = np.where(values > 1e-300, values, 1.0)  # log2(1) = 0 drops the rest
    total = -(positive * np.log2(positive)).sum(axis=-1)
    # clips rounding below zero, -0.0 included; NaN marks a non-finite row
    total = np.where(finite, np.where(total > 0.0, total, 0.0), np.nan)
    return float(total) if total.ndim == 0 else total


@dataclass(frozen=True)
class VerificationReport:
    """Worst deviations between the closed forms and the dense pipeline."""

    spec: ModelSpec
    sample_count: int
    max_spectrum_deviation: float
    max_entropy_deviation: float
    tolerance = 1e-9  # no annotation: a class constant, not a field

    @property
    def passed(self) -> bool:
        return (
            self.max_spectrum_deviation < self.tolerance
            and self.max_entropy_deviation < self.tolerance
        )


def verify_closed_form(spec: ModelSpec, tau_samples) -> VerificationReport:
    """Compare closed-form Schmidt spectra and entropies against the dense
    pipeline at each sample time.

    Both closed-form paths are checked: the reference path
    (:func:`amplitudes_at`, one time at a time) and the kernel path
    (:func:`entropy_grid`, all samples in one call).  The oracle evolves,
    reduces and scores every sample in one :func:`propagate`, one
    :func:`schmidt_eigenvalues` and one :func:`von_neumann_entropy` call.
    Each closed-form spectrum is zero-padded to the oracle's spectrum length
    and compared with it in descending order.  Raises ValueError unless the
    samples are finite and non-empty; a NaN deviation fails the report.
    """
    from .entanglement import entropy, entropy_grid, exact_table, schmidt_spectrum
    from .evolution import amplitudes_at

    taus = np.atleast_1d(np.asarray(tau_samples, dtype=float))
    if taus.size == 0 or not np.isfinite(taus).all():
        raise ValueError("tau samples must be finite and non-empty")
    # the d x d hop matrix is freed before the Schmidt step's temporaries
    evolved = propagate(
        build_sector_hamiltonian(spec.n_total, spec.m_excited),
        initial_sector_state(spec.n_total, spec.m_excited),
        taus,
    )
    oracle_eig = schmidt_eigenvalues(evolved, spec.m_excited)
    dense_entropies = von_neumann_entropy(oracle_eig)
    dense = np.zeros((taus.size, max(oracle_eig.shape[1], spec.m_prime + 1)))
    dense[:, : oracle_eig.shape[1]] = oracle_eig
    # built once: the kernel path below reads the same table
    table = exact_table(spec)
    spectra = [schmidt_spectrum(amplitudes_at(spec, table, tau)) for tau in taus]
    reference_probs = np.array([spectrum.probabilities for spectrum in spectra])
    reference_entropies = np.array([entropy(spectrum) for spectrum in spectra])
    kernel_probs, kernel_entropies = entropy_grid(spec, taus)
    spectrum_deviations = []
    entropy_deviations = []
    for probs, entropies in (
        (reference_probs, reference_entropies),
        (kernel_probs, kernel_entropies),
    ):
        closed = np.zeros_like(dense)
        closed[:, : probs.shape[1]] = np.sort(probs, axis=1)[:, ::-1]
        spectrum_deviations.append(np.max(np.abs(closed - dense)))
        entropy_deviations.append(np.max(np.abs(entropies - dense_entropies)))
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
    hop = np.zeros((dim, dim))
    for a, b in itertools.combinations(range(n_total), 2):
        # sites N-1..0 from the left: sigma^- on b, sigma^+ on a, identity
        # blocks on the runs of sites between
        factors = (
            np.eye(1 << (n_total - 1 - b)), raising.T, np.eye(1 << (b - a - 1)),
            raising, np.eye(1 << a),
        )
        hop += functools.reduce(np.kron, factors)
    # the reverse hop sigma^+ on b, sigma^- on a is the transpose
    return hop + hop.T


def full_space_propagate(n_total: int, m_excited: int, tau) -> np.ndarray:
    """Evolve the initial product state on the full 2^N space.

    ``tau`` is a scalar or a 1-d array of times; one ``eigh`` of the 2^N
    Hamiltonian serves them all, and the amplitudes have shape
    ``tau.shape + (2^N,)``.  Raises ValueError for a non-finite tau.
    """
    taus = np.asarray(tau, dtype=float)
    if not np.isfinite(taus).all():
        raise ValueError(f"tau must be finite, got {tau!r}")
    eigenvalues, eigenvectors = np.linalg.eigh(full_space_hamiltonian(n_total))
    # the start pattern (1 << M) - 1 picks one row of the eigenvector matrix
    rotated = eigenvectors[(1 << m_excited) - 1]
    phased = np.exp(-1j * np.multiply.outer(taus, eigenvalues)) * rotated
    return phased @ eigenvectors.T


def full_space_crosscheck(n_total: int, m_excited: int, tau) -> float:
    """Validate the sector restriction against the full 2^N propagation.

    ``tau`` is a scalar or a 1-d array of times.  Returns the maximum
    amplitude deviation, over all times, between the full-space evolution of
    the initial product state and the sector propagation embedded back into
    the full space.
    """
    full = full_space_propagate(n_total, m_excited, tau)
    sector = propagate(
        build_sector_hamiltonian(n_total, m_excited),
        initial_sector_state(n_total, m_excited),
        tau,
    )
    embedded = np.zeros_like(full)
    embedded[..., list(sector.basis.states)] = sector.amplitudes
    return float(np.max(np.abs(full - embedded)))
