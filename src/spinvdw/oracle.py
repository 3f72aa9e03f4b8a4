"""Brute-force verification path: excitation-sector Hamiltonians as
lowering tables, exact propagation in the start state's Krylov subspace, and
Schmidt spectra from the block-diagonal reduced density.

With one hop term per unordered site pair, H = sum_{i != j} s+_i s-_j equals
S+S- - sum_i s+_i s-_i, which is S+S- - M on the sector with M excitations
(Lipkin, Meshkov & Glick, Nucl. Phys. 62, 188 (1965)).  The identity is
exact on the whole sector and projects onto nothing.  A sector Hamiltonian
is therefore held matrix-free as a lowering table, with one row per basis
state listing the (M-1)-sector states that emptying one of its M occupied
sites gives: S- v scatters each entry of v onto its row, S+ gathers the
rows back, one table column at a time, so H v takes O(d M) time and O(d)
memory besides the table, where a dense d x d matrix would take O(d^2).
:func:`krylov_evolution` runs real Lanczos on that product from the
paper's start state, the product state with the first M sites excited,
which is the real unit vector of the smallest pattern, until the residual
vanishes, so its cyclic subspace is invariant and exp(-i H tau) acts on it
exactly through one small tridiagonal eigendecomposition.  The subspace is
found from the Hamiltonian and the start vector alone: nothing sizes it
from the model.  The caller holds the resulting :class:`KrylovEvolution`,
and each :func:`propagate` call evaluates it at every time of a 1-d tau
array at once, without a Lanczos step.

The reduced density of a sector state is block diagonal in the traced
side's excitation count, because the Hamiltonian conserves excitation
number.  Each block of amplitudes is a slice of the basis order: the
patterns ascend and the traced sites hold the high bits, so the states with
j traced excitations fill their block row by row, one traced pattern per
row and one kept pattern per column, with no sort or scatter.
:func:`schmidt_eigenvalues` forms each block's Gram matrix on the smaller
side of the cut, transposing the block (a view) where the kept side is the
smaller one, and diagonalizes it block by block, for a whole stack of
states per call, without forming the 2^M x 2^(N-M) coefficient matrix; it
uses no permutation symmetry of the sites.  The block index maps of the
last sector and partition size are memoized, so repeated calls on one
sector build them once.

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
import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelSpec

# Sector budget: C(24, 12) = 2704156 sector states.  The worst sector,
# (24,12), verifies 8 samples in 26-28 s and 64 samples in 104 s, at 555-574 MiB
# peak RSS by the process's allocation history (one fresh process, 2-vCPU
# Xeon, numpy 2.4.6, one BLAS thread).  Lanczos sets nearly all of it, 548 MiB
# in a 555 MiB run: the 130 MB table, the M'+1 = 13 rows it writes of its
# 16-row basis (281 MB resident of the 346 MB allocated, as rows never
# written take no pages) and the product's few d-length vectors of 22 MB
# each; the first chunk's Schmidt maps and reduction add up to 7 MiB.
# With the budget raised, (26,13) verified 2 samples in 85 s at a peak of
# 2151 MiB on the same host, so verify's 64 samples would take about 18
# minutes there.
SECTOR_SITE_BUDGET = 24
# Lanczos stops once its residual falls below this fraction of the
# Hamiltonian's Frobenius norm, a bound on the spectral radius.
KRYLOV_BREAKDOWN = 1e-13
# verify_closed_form evolves, reduces and scores max(1, CHUNK_BYTES // (16 d))
# samples at a time, so the evolved complex amplitudes it holds take at most
# this many bytes whatever the sample count (one sample's d amplitudes, where
# they take more).  Measured at 256 KiB, 512 KiB and 1 MiB: `verify --n-max 13`
# peaked at 33.0, 33.8 and 35.0 MiB RSS, in 0.11 s each, and (18,9) took
# 0.67-0.83 s at 42.7 MiB at each, so the smallest budget costs no time.
CHUNK_BYTES = 1 << 18


class BudgetExceededError(ValueError):
    """A request exceeded a solver's size budget."""


@dataclass(frozen=True)
class SectorBasis:
    """Fixed-excitation-number basis; site j maps to bit j.  ``patterns``
    is the read-only, ascending int64 array of the sector's bit patterns."""

    n_total: int
    excitation_count: int
    # follows from (n_total, excitation_count), so equality and hash skip it
    patterns: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class SectorHamiltonian:
    """H = S+S- - M on a sector basis, in units of the coupling.

    ``lowering`` has shape (d, M): row s holds the (M-1)-sector indices of
    basis state s with each of its occupied sites emptied, lowest site
    first.  As the 0/1 matrix L with a one at (lowering[s, c], s), L is S-
    from the sector to the (M-1) sector, and H = L^T L - M.
    """

    basis: SectorBasis
    lowering: np.ndarray

    @property
    def frobenius(self) -> float:
        """Frobenius norm of H: each of its d rows holds M(N-M) unit entries."""
        n_total, count = self.basis.n_total, self.basis.excitation_count
        return math.sqrt(self.basis.patterns.size * count * (n_total - count))

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """H v for a length-d vector: L v by scattering v down the table
        (``bincount``), L^T L v by gathering it back, less M v.  Both walk
        the table one column at a time, so each temporary holds O(d)
        entries, not the d M of the whole table."""
        count = self.lowering.shape[1]
        columns = self.lowering.T
        # one entry per (M-1)-sector state; with M = 0 there is none
        lowered = np.zeros(math.comb(self.basis.n_total, count - 1) if count else 0)
        for column in columns:
            lowered += np.bincount(column, vector, minlength=lowered.size)
        product = np.zeros_like(vector)
        for column in columns:
            product += lowered[column]
        return product - count * vector

    @property
    def matrix(self) -> np.ndarray:
        """The dense d x d matrix of :meth:`apply`, built on each access one
        column at a time, as the product with each unit vector: d products
        of O(d M) each, so tests check the product that propagation runs."""
        dim = self.lowering.shape[0]
        dense = np.empty((dim, dim))
        unit = np.zeros(dim)
        for column in range(dim):
            unit[column] = 1.0
            dense[:, column] = self.apply(unit)
            unit[column] = 0.0
        return dense

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of the real symmetric matrix."""
        return np.linalg.eigh(self.matrix)


@dataclass(frozen=True, eq=False)
class SectorState:
    """Amplitudes over the basis patterns: shape (d,), or (T, d) for T times."""

    basis: SectorBasis
    amplitudes: np.ndarray


@dataclass(frozen=True, eq=False)
class KrylovEvolution:
    """The product start state's evolution under a sector Hamiltonian,
    ready to evaluate at any time: the Lanczos basis ``vectors`` (Q) and
    the tridiagonal eigendecomposition ``theta``, ``rotation`` (Theta, S)
    of :func:`_krylov_spectrum`."""

    basis: SectorBasis
    vectors: np.ndarray
    theta: np.ndarray
    rotation: np.ndarray


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
    patterns[excitation_count].flags.writeable = False
    return SectorBasis(n_total, excitation_count, patterns[excitation_count])


def build_sector_hamiltonian(n_total: int, excitations: int) -> SectorHamiltonian:
    """XY hop Hamiltonian restricted to a fixed excitation sector, as S+S- - M.

    Matrix element 1 (in units of the coupling) between any two basis states
    that differ by moving a single excitation between two sites; excitation
    number is conserved, the diagonal is zero.  Two such states share one
    (M-1)-sector state, and each state has M of them, so L^T L has those
    ones off the diagonal and M on it.  The read-only int32 table is built
    with M ``searchsorted`` calls into the (M-1)-sector basis, each emptying
    the lowest occupied site not yet emptied.
    """
    if n_total > SECTOR_SITE_BUDGET:
        raise BudgetExceededError(
            f"n_total = {n_total} exceeds the sector budget of {SECTOR_SITE_BUDGET}"
        )
    basis = sector_basis(n_total, excitations)
    lowering = np.empty((basis.patterns.size, excitations), dtype=np.int32)
    if excitations:
        lowered = sector_basis(n_total, excitations - 1).patterns
        rest = basis.patterns
        for column in range(excitations):
            lowest = rest & -rest
            rest = rest ^ lowest
            lowering[:, column] = np.searchsorted(lowered, basis.patterns ^ lowest)
    lowering.flags.writeable = False
    return SectorHamiltonian(basis, lowering)


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
    # the vectors fill the rows of one array, whose capacity doubles when full
    basis = np.empty((min(dim, 16), dim))
    basis[0] = start
    count, alphas, betas = 1, [], []
    while True:
        subspace = basis[:count]
        residual = product(subspace[-1])
        overlap = np.zeros(count)
        for _ in range(2):
            step = subspace @ residual
            residual = residual - step @ subspace
            overlap += step
        alphas.append(overlap[-1])
        beta = float(np.linalg.norm(residual))
        if count == dim or beta <= threshold:
            break
        betas.append(beta)
        if count == len(basis):
            grown = np.empty((min(dim, 2 * count), dim))
            grown[:count] = basis
            basis = grown
        basis[count] = residual / beta
        count += 1
    theta, rotation = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
    return subspace, theta, rotation


def krylov_evolution(h: SectorHamiltonian) -> KrylovEvolution:
    """Lanczos from the product state with the first M sites excited, for
    :func:`propagate` to evaluate.

    That state is the real unit vector e_0 of the basis, whose smallest
    pattern is (1 << M) - 1, so one real :func:`_krylov_spectrum` pass
    covers it, and each Lanczos step applies the lowering table twice.
    """
    start = np.zeros(h.basis.patterns.size)
    start[0] = 1.0
    return KrylovEvolution(h.basis, *_krylov_spectrum(h.apply, h.frobenius, start))


def propagate(evolution: KrylovEvolution, tau) -> SectorState:
    """exp(-i H tau) applied to the start state of ``evolution``.

    ``tau`` is a scalar or a 1-d array of times; the amplitudes have shape
    ``tau.shape + (d,)``.  psi(tau) is (exp(-i tau Theta) * S[0, :]) S^T Q,
    from :func:`krylov_evolution`, and runs no Lanczos step.  Every time
    costs O(d k) for a k-vector subspace: the complex weights meet the real
    Q in two real products.  Raises ValueError for a non-finite tau.
    """
    taus = np.asarray(tau, dtype=float)
    if not np.isfinite(taus).all():
        raise ValueError(f"tau must be finite, got {tau!r}")
    phased = np.exp(-1j * np.multiply.outer(taus, evolution.theta)) * evolution.rotation[0]
    weights = phased @ evolution.rotation.T
    evolved = np.zeros(taus.shape + evolution.basis.patterns.shape, dtype=complex)
    evolved.real += weights.real @ evolution.vectors
    evolved.imag += weights.imag @ evolution.vectors
    return SectorState(evolution.basis, evolved)


@functools.lru_cache(maxsize=1)
def _schmidt_blocks(basis: SectorBasis, partition_size: int) -> tuple:
    """(members, shape) per occurring count j of excitations on the traced
    side, the sites from ``partition_size`` up: the amplitudes at
    ``members`` reshaped to ``shape`` form block j, rows indexed by the
    traced pattern and columns by the kept one, both ascending.

    The patterns ascend and the traced sites hold the high bits, so the
    states with j traced excitations sort by traced pattern first and by
    kept pattern second.  Every traced pattern with j excitations meets
    every kept one with M - j, so those states, in basis order, are the
    block in row-major order: C(N - p, j) rows of C(p, M - j) columns.

    Memoized for the last (basis, partition size) key.  A basis hashes by
    (n_total, excitation_count), from which its patterns follow, so
    separately built bases of one sector share the maps.  The last sector's
    maps, d int64 values, stay alive after :func:`verify_closed_form`
    returns."""
    traced_sites, count = basis.n_total - partition_size, basis.excitation_count
    traced = basis.patterns >> partition_size
    # one site at a time: a (d, sites) bit table would take 8 d sites bytes
    traced_count = np.zeros_like(traced)
    for site in range(traced_sites):
        traced_count += traced >> site & 1
    blocks = []
    for j in range(max(0, count - partition_size), min(traced_sites, count) + 1):
        shape = (math.comb(traced_sites, j), math.comb(partition_size, count - j))
        blocks.append((np.flatnonzero(traced_count == j), shape))
    return tuple(blocks)


def schmidt_eigenvalues(state: SectorState, partition_size: int) -> np.ndarray:
    """Eigenvalues (descending) of the reduced density over the first
    ``partition_size`` sites, computed on the smaller side of the cut.

    ``state`` holds one amplitude vector, shape (d,), or a stack, (T, d);
    the result has shape (r,) or (T, r), with one eigenvalue per pattern of
    the smaller side that occurs in the sector (patterns that never occur
    only add zeros).  Excitation number is conserved, so rho is block
    diagonal in the traced side's excitation count j.  Block j of the
    amplitudes, C_j, is a slice of the basis order reshaped
    (:func:`_schmidt_blocks`): rows indexed by the traced pattern, columns
    by the kept one.  C_j C_j^dagger and C_j^dagger C_j share their nonzero
    spectrum, so each block forms the Gram matrix on the smaller side of
    the cut, which is free accuracy and memory: where the first p sites are
    the smaller side (2 p <= N), C_j is transposed first, as a view.  Each
    block then takes one gather, one batched product and one batched
    ``eigvalsh``.  Raises ValueError for a non-finite amplitude.
    """
    basis = state.basis
    n_total = basis.n_total
    if not 0 <= partition_size <= n_total:
        raise ValueError(
            f"partition size must lie in 0..{n_total}, got {partition_size}"
        )
    amplitudes = np.asarray(state.amplitudes, dtype=complex)
    if amplitudes.ndim not in (1, 2) or amplitudes.shape[-1] != basis.patterns.size:
        raise ValueError(
            f"amplitudes of shape {amplitudes.shape} do not fit a basis of "
            f"{basis.patterns.size} states"
        )
    if not np.isfinite(amplitudes).all():
        raise ValueError("sector state has a non-finite amplitude")
    spectra = []
    for members, shape in _schmidt_blocks(basis, partition_size):
        block = amplitudes[..., members].reshape(amplitudes.shape[:-1] + shape)
        if 2 * partition_size <= n_total:
            block = block.swapaxes(-1, -2)
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
    The oracle builds the sector basis once, for the lowering table, and
    never forms a d x d matrix.  It evolves the product state with the first
    M sites excited, and reduces and scores the samples a chunk at a time,
    max(1, ``CHUNK_BYTES`` // (16 d)) samples per :func:`propagate`,
    :func:`schmidt_eigenvalues` and :func:`von_neumann_entropy` call, so its
    evolved amplitudes stay within that budget whatever the sample count.
    One real Lanczos pass runs per sector, in :func:`krylov_evolution`
    before the first chunk, and the Schmidt index maps are built in the
    first :func:`schmidt_eigenvalues` call only.  Both closed forms are
    stacked and compared with each chunk at once, in descending order: the
    oracle's first M'+1 eigenvalues with their M'+1 probabilities, and the
    rest of its 2^M' with zero.  A NaN deviation fails the report.

    The closed forms run first, so samples that are not a non-empty 1-d
    array of finite times raise ValueError before any sector is built:
    :func:`amplitudes_at` rejects non-finite and 2-d samples and
    :func:`entropy_grid` empty ones.

    From N = 16 on, the deviations measure the oracle's own error, not the
    closed form's: with one BLAS thread they read 2.2e-14 at (16,8),
    1.6e-13 at (20,10) and, with the budget raised, 1.15e-11 at (26,13),
    where the kernel is within 2.3e-15 of a 40-digit reference.  The error
    grows linearly in tau, because the Lanczos Ritz values miss the exact
    frequencies by 1e-14 to 1e-13.  ``KRYLOV_BREAKDOWN`` does not cause it:
    Lanczos never stops early, so tightening that threshold would not
    reduce the error.
    """
    from .entanglement import entropy, entropy_grid, exact_table, schmidt_spectrum
    from .evolution import amplitudes_at

    taus = np.atleast_1d(np.asarray(tau_samples, dtype=float))
    # built once: the kernel path below reads the same table
    reference = schmidt_spectrum(amplitudes_at(spec, exact_table(spec), taus))
    kernel_probs, kernel_entropies = entropy_grid(spec, taus)
    # both closed forms at once: descending spectra (2, T, M'+1), entropies (2, T)
    closed_spectra = np.stack([reference, kernel_probs])
    closed_spectra.sort(axis=-1)
    closed_spectra = closed_spectra[..., ::-1]
    closed_entropies = np.stack([entropy(reference), kernel_entropies])
    hamiltonian = build_sector_hamiltonian(spec.n_total, spec.m_excited)
    evolution = krylov_evolution(hamiltonian)
    step = max(1, CHUNK_BYTES // (16 * hamiltonian.basis.patterns.size))
    width = spec.m_prime + 1
    # np.max propagates NaN, where the builtin max would drop it
    spectrum_deviation = entropy_deviation = 0.0
    for first in range(0, taus.size, step):
        chunk = slice(first, first + step)
        oracle_eig = schmidt_eigenvalues(propagate(evolution, taus[chunk]), spec.m_excited)
        spectrum_deviation = np.max((
            spectrum_deviation,
            np.abs(closed_spectra[:, chunk] - oracle_eig[:, :width]).max(),
            np.abs(oracle_eig[:, width:]).max(initial=0.0),
        ))
        entropy_deviation = np.max((
            entropy_deviation,
            np.abs(closed_entropies[:, chunk] - von_neumann_entropy(oracle_eig)).max(),
        ))
    return VerificationReport(
        spec, taus.size, float(spectrum_deviation), float(entropy_deviation)
    )
