"""Brute-force verification path: excitation-sector Hamiltonians as hop
tables, exact propagation in the start state's Krylov subspace, and Schmidt
spectra from the block-diagonal reduced density.

A sector Hamiltonian is held matrix-free, as a table with one row per basis
state listing the states one hop away; the hop matrix is 0/1, so H v sums
the neighbours' entries of v, in O(d M(N-M)) time and memory where a dense
d x d matrix would take O(d^2).  Propagation runs real Lanczos on that
product, once from the real and once from the imaginary part of the start
state (a zero part is skipped), until the residual vanishes, so each cyclic
subspace is invariant and exp(-i H tau) acts on it exactly through one small
tridiagonal eigendecomposition.  The subspace is found from the Hamiltonian
and the start vector alone: nothing sizes it from the model.  One call
evolves to every time of a 1-d tau array at once.

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

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelSpec

# Hop-table budget: C(18, 9) = 48620 sector states.  The worst sector,
# (18,9), verifies 64 samples in 1.1-1.8 s at 191 MiB peak RSS (one fresh
# process, 2-vCPU Xeon, numpy 2.4.6); the whole `verify --n-max 18` takes
# 5.1 s and 217 MiB.  Beyond 18 the (d, M, N-M) int64 hopped-pattern
# temporary of the table build (148 MB at (20,10)) calls for a site-by-site
# build.
SECTOR_SITE_BUDGET = 18
# Lanczos stops once its residual falls below this fraction of the
# Hamiltonian's Frobenius norm, a bound on the spectral radius.
KRYLOV_BREAKDOWN = 1e-13


class BudgetExceededError(ValueError):
    """A request exceeded a solver's size budget."""


@dataclass(frozen=True)
class SectorBasis:
    """Fixed-excitation-number basis; site j maps to bit j, patterns ascending."""

    n_total: int
    excitation_count: int
    # follows from (n_total, excitation_count), so equality skips it
    states: tuple[int, ...] = field(compare=False)


@dataclass(frozen=True, eq=False)
class SectorHamiltonian:
    """Hop Hamiltonian on a sector basis, in units of the coupling.

    ``neighbours`` has shape (d, M(N-M)): row s holds the indices of the
    states one hop away from basis state s, so the 0/1 hop matrix has a one
    at (s, t) for each t in row s.
    """

    basis: SectorBasis
    neighbours: np.ndarray

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """H v for a length-d vector: each state sums its neighbours' entries."""
        return vector[self.neighbours].sum(axis=1)

    @property
    def matrix(self) -> np.ndarray:
        """The dense d x d hop matrix, built from the table on each access."""
        dim = self.neighbours.shape[0]
        dense = np.zeros((dim, dim))
        dense[np.arange(dim)[:, None], self.neighbours] = 1.0
        return dense

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
    if n_total > 63:
        raise BudgetExceededError(f"n_total = {n_total} exceeds the 63 sites of an int64 pattern")
    # patterns[k]: the ascending k-excitation patterns of the sites seen so
    # far; those with the new top site set all follow those without it
    patterns = [np.zeros(1, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * excitation_count
    for site in range(n_total):
        for k in range(min(site + 1, excitation_count), 0, -1):
            patterns[k] = np.concatenate((patterns[k], patterns[k - 1] | (1 << site)))
    return SectorBasis(n_total, excitation_count, tuple(patterns[excitation_count].tolist()))


def build_sector_hamiltonian(n_total: int, excitations: int) -> SectorHamiltonian:
    """XY hop Hamiltonian restricted to a fixed excitation sector.

    Matrix element 1 (in units of the coupling) between any two basis states
    that differ by moving a single excitation between two sites; excitation
    number is conserved, the diagonal is zero.  Each state has M occupied
    and N-M empty sites, so M(N-M) neighbours: row s of the read-only int32
    table lists them, ordered by the occupied site, then the empty one.
    """
    if n_total > SECTOR_SITE_BUDGET:
        raise BudgetExceededError(
            f"n_total = {n_total} exceeds the sector budget of {SECTOR_SITE_BUDGET}"
        )
    basis = sector_basis(n_total, excitations)
    patterns = np.array(basis.states, dtype=np.int64)
    occupied = (patterns[:, None] >> np.arange(n_total) & 1).astype(bool)
    # nonzero runs row by row: each state's M occupied, then N-M empty sites
    filled = np.nonzero(occupied)[1].reshape(patterns.size, excitations)
    empty = np.nonzero(~occupied)[1].reshape(patterns.size, n_total - excitations)
    # an excitation hops from each occupied site i to each empty site j
    hopped = patterns[:, None, None] ^ (1 << filled)[:, :, None] ^ (1 << empty)[:, None, :]
    neighbours = np.searchsorted(patterns, hopped.reshape(patterns.size, -1)).astype(np.int32)
    neighbours.flags.writeable = False
    return SectorHamiltonian(basis, neighbours)


def initial_sector_state(basis: SectorBasis) -> SectorState:
    """Product state with the first ``basis.excitation_count`` sites excited."""
    amplitudes = np.zeros(len(basis.states), dtype=complex)
    amplitudes[0] = 1.0  # (1 << count) - 1 is the smallest pattern
    return SectorState(basis, amplitudes)


def _krylov_spectrum(product, frobenius: float, start: np.ndarray) -> tuple:
    """Lanczos basis Q (one vector per row) of the cyclic subspace of the
    real unit vector ``start``, and the eigendecomposition T = S diag(Theta) S^T
    of the tridiagonal projection onto it of the real symmetric H that
    ``product`` applies (v -> H v) and whose Frobenius norm is ``frobenius``.

    Each new vector is orthogonalized twice against all earlier ones
    (classical Gram-Schmidt).  The loop ends when the residual norm beta
    drops below ``KRYLOV_BREAKDOWN`` times ``frobenius``, so the subspace is
    invariant to rounding, or when it spans the whole space.
    """
    dim = start.size
    threshold = KRYLOV_BREAKDOWN * frobenius
    vectors, alphas, betas = [start], [], []
    while True:
        subspace = np.array(vectors)
        residual = product(vectors[-1])
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
    times i for the imaginary one.  Each Lanczos step applies the hop table;
    the 0/1 hop matrix's Frobenius norm is the square root of the table's
    size.  Every time then costs O(d k) for a k-vector subspace.  A zero
    start state evolves to the zero state.  Raises ValueError for a
    non-finite tau or a start state with a non-finite amplitude.
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
    frobenius = math.sqrt(h.neighbours.size)
    for unit, part in ((1.0, amplitudes.real), (1j, amplitudes.imag)):
        norm = float(np.linalg.norm(part))
        if norm == 0.0:
            continue
        vectors, theta, rotation = _krylov_spectrum(h.apply, frobenius, part / norm)
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
    """Worst deviations between the closed forms and the sector pipeline."""

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
    """Compare closed-form Schmidt spectra and entropies against the sector
    pipeline at each sample time.

    Both closed-form paths are checked, each with all samples in one call:
    the complex reference path (:func:`amplitudes_at`, :func:`schmidt_spectrum`,
    :func:`entropy`) and the real, blocked kernel path (:func:`entropy_grid`).
    The oracle builds the sector basis once, for the hop table and the
    start state, and evolves, reduces and scores every sample in one
    :func:`propagate`, one :func:`schmidt_eigenvalues` and one
    :func:`von_neumann_entropy` call; it never forms a d x d matrix.
    Each closed-form spectrum is zero-padded to the oracle's spectrum length
    and compared with it in descending order.  Raises ValueError unless the
    samples are finite and non-empty; a NaN deviation fails the report.
    """
    from .entanglement import entropy, entropy_grid, exact_table, schmidt_spectrum
    from .evolution import amplitudes_at

    taus = np.atleast_1d(np.asarray(tau_samples, dtype=float))
    if taus.size == 0 or not np.isfinite(taus).all():
        raise ValueError("tau samples must be finite and non-empty")
    hamiltonian = build_sector_hamiltonian(spec.n_total, spec.m_excited)
    evolved = propagate(hamiltonian, initial_sector_state(hamiltonian.basis), taus)
    oracle_eig = schmidt_eigenvalues(evolved, spec.m_excited)
    oracle_entropies = von_neumann_entropy(oracle_eig)
    padded = np.zeros((taus.size, max(oracle_eig.shape[1], spec.m_prime + 1)))
    padded[:, : oracle_eig.shape[1]] = oracle_eig
    # built once: the kernel path below reads the same table
    reference = schmidt_spectrum(amplitudes_at(spec, exact_table(spec), taus))
    kernel_probs, kernel_entropies = entropy_grid(spec, taus)
    spectrum_deviations = []
    entropy_deviations = []
    for probs, entropies in (
        (reference.probabilities, entropy(reference)),
        (kernel_probs, kernel_entropies),
    ):
        closed = np.zeros_like(padded)
        closed[:, : probs.shape[1]] = np.sort(probs, axis=1)[:, ::-1]
        spectrum_deviations.append(np.max(np.abs(closed - padded)))
        entropy_deviations.append(np.max(np.abs(entropies - oracle_entropies)))
    # np.max propagates NaN, where the builtin max would drop it
    return VerificationReport(
        spec, taus.size, float(np.max(spectrum_deviations)), float(np.max(entropy_deviations))
    )
