"""References for the tests: the hop Hamiltonian on the full 2^N space
from explicit Pauli tensor products, exact propagation of the initial
product state on the whole space, the check that the sector restriction
loses nothing, the d x d sector hop matrix built directly from site pairs,
and the sector hop table, which lists each state's M(N-M) neighbours.

No production path needs a dense matrix or a hop table; the tests hold the
sector lowering table (H = S+S- - M), its product and its propagation to
these.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from spinvdw.oracle import (
    BudgetExceededError,
    build_sector_hamiltonian,
    krylov_evolution,
    propagate,
    sector_basis,
)

# 2^8 full-space states
FULL_SPACE_SITE_BUDGET = 8


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


def dense_sector_matrix(n_total: int, excitations: int) -> np.ndarray:
    """The d x d sector hop matrix, filled from every ordered site pair whose
    first site is occupied and second empty, independently of the hop table."""
    patterns = sector_basis(n_total, excitations).patterns
    # the N(N-1) ordered site pairs (i, j): an excitation hops from i to j
    pairs = np.array(list(itertools.permutations(range(n_total), 2)), dtype=np.int64)
    i, j = pairs.reshape(-1, 2).T
    occupied = (patterns[:, None] >> np.arange(n_total) & 1).astype(bool)
    row, pair = np.nonzero(occupied[:, i] & ~occupied[:, j])
    hopped = patterns[row] ^ (1 << i[pair]) ^ (1 << j[pair])
    matrix = np.zeros((patterns.size, patterns.size))
    matrix[row, np.searchsorted(patterns, hopped)] = 1.0
    return matrix


def hop_table(n_total: int, excitations: int) -> np.ndarray:
    """The (d, M(N-M)) sector hop table: row s lists the states one hop from
    basis state s, ordered by the occupied site, then the empty one, so the
    hop matrix's product is ``vector[table].sum(axis=1)``.  Built at once from
    the (d, M, N-M) int64 array of hopped patterns, independently of the
    lowering table."""
    patterns = sector_basis(n_total, excitations).patterns
    occupied = (patterns[:, None] >> np.arange(n_total) & 1).astype(bool)
    # nonzero runs row by row: each state's M occupied, then N-M empty sites
    filled = np.nonzero(occupied)[1].reshape(patterns.size, excitations)
    empty = np.nonzero(~occupied)[1].reshape(patterns.size, n_total - excitations)
    # an excitation hops from each occupied site i to each empty site j
    hopped = patterns[:, None, None] ^ (1 << filled)[:, :, None] ^ (1 << empty)[:, None, :]
    return np.searchsorted(patterns, hopped.reshape(patterns.size, -1))


def full_space_propagate(n_total: int, m_excited: int, tau) -> np.ndarray:
    """Evolve the initial product state on the full 2^N space.

    ``tau`` is a scalar or a 1-d array of times; one ``eigh`` of the 2^N
    Hamiltonian serves them all; the amplitudes have shape ``tau.shape + (2^N,)``.
    Raises ValueError for a non-finite tau or an ``m_excited`` outside 0..n_total.
    """
    if not 0 <= m_excited <= n_total:
        raise ValueError(f"m_excited must lie in 0..{n_total}, got {m_excited}")
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
    hamiltonian = build_sector_hamiltonian(n_total, m_excited)
    evolution = krylov_evolution(hamiltonian)
    sector = propagate(evolution, tau)
    embedded = np.zeros_like(full)
    embedded[..., sector.basis.patterns] = sector.amplitudes
    return float(np.max(np.abs(full - embedded)))
