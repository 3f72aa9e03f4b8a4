from __future__ import annotations

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinvdw import combinatorics, entanglement, evolution, oracle
from spinvdw.combinatorics import BCoefficientTable, b_table
from spinvdw.model import InputError, ModelSpec
from spinvdw.oracle import (
    CHUNK_BYTES,
    SECTOR_SITE_BUDGET,
    BudgetExceededError,
    SectorHamiltonian,
    SectorState,
    build_sector_hamiltonian,
    krylov_evolution,
    propagate,
    schmidt_eigenvalues,
    sector_basis,
    verify_closed_form,
    von_neumann_entropy,
)

from full_space import (
    dense_sector_matrix,
    full_space_crosscheck,
    full_space_hamiltonian,
    full_space_propagate,
    hop_table,
)


class TestSectorBasis:
    def test_dimension_and_order(self):
        basis = sector_basis(4, 2)
        assert basis.patterns.tolist() == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]

    def test_vacuum(self):
        assert sector_basis(3, 0).patterns.tolist() == [0]

    @pytest.mark.parametrize("count", [6, -1])
    def test_excitation_count_outside_the_sites_rejected(self, count):
        with pytest.raises(ValueError, match="must lie in 0..5"):
            sector_basis(5, count)

    def test_int64_pattern_width_is_the_limit(self):
        assert sector_basis(63, 1).patterns[-1] == 1 << 62
        with pytest.raises(BudgetExceededError, match="63 sites"):
            sector_basis(64, 1)

    def test_matches_sorted_combinations(self):
        for n in range(15):
            for k in range(n + 1):
                reference = sorted(
                    sum(1 << site for site in sites) for sites in combinations(range(n), k)
                )
                patterns = sector_basis(n, k).patterns
                assert patterns.tolist() == reference
                assert patterns.dtype == np.int64 and not patterns.flags.writeable


class TestSectorHamiltonian:
    def test_two_site_swap(self):
        h = build_sector_hamiltonian(2, 1)
        assert np.array_equal(h.matrix, [[0.0, 1.0], [1.0, 0.0]])

    def test_three_site_single_excitation(self):
        h = build_sector_hamiltonian(3, 1)
        expected = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(h.matrix, expected)

    def test_vacuum_uncoupled(self):
        assert np.array_equal(build_sector_hamiltonian(3, 0).matrix, [[0.0]])

    def test_structure(self):
        h = build_sector_hamiltonian(5, 2).matrix
        assert np.array_equal(h, h.T)
        assert np.all(np.diag(h) == 0.0)
        assert set(np.unique(h)) <= {0.0, 1.0}
        # every state hops to occupied * empty partners
        assert np.all(h.sum(axis=0) == 2 * 3)

    def test_budget(self):
        with pytest.raises(BudgetExceededError, match=f"budget of {SECTOR_SITE_BUDGET}"):
            build_sector_hamiltonian(SECTOR_SITE_BUDGET + 1, 1)

    def test_table_shape(self):
        # one row per state, one column per occupied site
        table = build_sector_hamiltonian(7, 3).lowering
        assert table.shape == (35, 3) and table.dtype == np.int32
        assert not table.flags.writeable
        assert build_sector_hamiltonian(4, 0).lowering.shape == (1, 0)

    def test_lowering_rows_empty_each_occupied_site(self):
        # row s: the (M-1)-sector index of state s with each occupied site
        # emptied, lowest site first, from a loop over the sites
        for n in range(1, 9):
            for m in range(1, n + 1):
                lowered = sector_basis(n, m - 1).patterns.tolist()
                expected = [
                    [lowered.index(state ^ (1 << site)) for site in range(n) if state >> site & 1]
                    for state in sector_basis(n, m).patterns.tolist()
                ]
                assert build_sector_hamiltonian(n, m).lowering.tolist() == expected, (n, m)

    def test_frobenius_norm(self):
        for n, m in ((7, 3), (6, 0), (6, 6), (9, 4)):
            h = build_sector_hamiltonian(n, m)
            assert h.frobenius == pytest.approx(np.linalg.norm(h.matrix), rel=1e-15)

    def test_matrix_matches_dense_reference(self):
        for n in range(13):
            for m in range(n + 1):
                assert np.array_equal(
                    build_sector_hamiltonian(n, m).matrix, dense_sector_matrix(n, m)
                ), (n, m)

    @pytest.mark.parametrize("n,m", [(13, 6), (14, 7)])
    def test_table_product_matches_dense(self, n, m):
        h = build_sector_hamiltonian(n, m)
        vector = np.random.default_rng(n).normal(size=h.basis.patterns.size)
        vector /= np.linalg.norm(vector)
        assert np.max(np.abs(h.apply(vector) - dense_sector_matrix(n, m) @ vector)) < 1e-15

    def test_hop_table_matches_dense_reference(self):
        # the hop-table reference is itself held to the site-pair construction
        for n in range(11):
            for m in range(n + 1):
                table = hop_table(n, m)
                assert table.shape == (math.comb(n, m), m * (n - m))
                matrix = np.zeros((table.shape[0],) * 2)
                matrix[np.arange(table.shape[0])[:, None], table] = 1.0
                assert np.array_equal(matrix, dense_sector_matrix(n, m)), (n, m)

    def test_lowering_product_matches_hop_table(self):
        # H = S+S- - M against the hop table's neighbour sums, every sector with N <= 14
        for n in range(15):
            for m in range(n + 1):
                _assert_product_matches_hop_table(n, m)

    @pytest.mark.parametrize("n,m", [(16, 8), (18, 9)])
    def test_lowering_product_matches_hop_table_at_reach(self, n, m):
        _assert_product_matches_hop_table(n, m)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_full_space_restriction(self, n):
        # the Pauli-product Hamiltonian is built independently of the sector code
        full = full_space_hamiltonian(n)
        for m in range(n + 1):
            patterns = sector_basis(n, m).patterns
            restricted = full[np.ix_(patterns, patterns)]
            assert np.array_equal(build_sector_hamiltonian(n, m).matrix, restricted)


def _assert_product_matches_hop_table(n: int, m: int) -> None:
    h = build_sector_hamiltonian(n, m)
    vector = np.random.default_rng(100 * n + m).normal(size=h.basis.patterns.size)
    reference = vector[hop_table(n, m)].sum(axis=1)
    assert np.max(np.abs(h.apply(vector) - reference), initial=0.0) < 1e-13, (n, m)


class TestPropagate:
    def test_two_site_rabi_quarter(self):
        h = build_sector_hamiltonian(2, 1)
        state = propagate(krylov_evolution(h), math.pi / 4)
        expected = np.array([math.cos(math.pi / 4), -1j * math.sin(math.pi / 4)])
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-14

    def test_zero_time_is_identity(self):
        h = build_sector_hamiltonian(5, 2)
        psi0 = _product_state(5, 2)
        state = propagate(krylov_evolution(h), 0.0)
        assert np.max(np.abs(state.amplitudes - psi0.amplitudes)) < 1e-14

    def test_two_site_complete_transfer(self):
        h = build_sector_hamiltonian(2, 1)
        state = propagate(krylov_evolution(h), math.pi / 2)
        assert abs(state.amplitudes[0]) < 1e-14
        assert abs(abs(state.amplitudes[1]) - 1.0) < 1e-14

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        for n in range(2, 11):
            m = int(rng.integers(0, n + 1))
            h = build_sector_hamiltonian(n, m)
            evolution = krylov_evolution(h)
            for tau in rng.uniform(0.0, 4.0 * math.pi, 12):
                state = propagate(evolution, tau)
                assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "n,m,tau", [(2, 1, 0.4), (6, 3, 1.234), (9, 2, 5.0), (10, 7, 2.5)]
    )
    def test_complex_state_matches_spectral_reference(self, n, m, tau):
        # the evolved product state is complex: a product that drops its
        # imaginary part fails
        h = build_sector_hamiltonian(n, m)
        evolved = propagate(krylov_evolution(h), tau).amplitudes
        reference = _spectral_reference(h, _product_state(n, m).amplitudes, tau)
        assert np.max(np.abs(evolved - reference)) < 1e-12
        assert abs(np.linalg.norm(evolved) - 1.0) < 1e-12
        # a random real start through Lanczos and propagate's formula, so the
        # accuracy from a generic start stays covered in a sector
        start = _random_sector_state(n, m, seed=n + m).amplitudes.real
        start /= np.linalg.norm(start)
        vectors, theta, rotation = oracle._krylov_spectrum(h.apply, h.frobenius, start)
        evolved = (np.exp(-1j * tau * theta) * rotation[0]) @ rotation.T @ vectors
        assert np.max(np.abs(evolved - _spectral_reference(h, start, tau))) < 1e-12
        assert abs(np.linalg.norm(evolved) - 1.0) < 1e-12


def _spectral_reference(h: SectorHamiltonian, amplitudes: np.ndarray, tau: float) -> np.ndarray:
    eigenvalues, vectors = h.eigensystem()
    return vectors @ (np.exp(-1j * eigenvalues * tau) * (vectors.T @ amplitudes))


class TestKrylovPropagate:
    def test_generic_matrix_runs_to_full_dimension(self):
        # no invariant subspace to find: the loop must span the whole space;
        # a dense product stands in for the hop table
        rng = np.random.default_rng(73)
        raw = rng.normal(size=(35, 35))
        matrix = raw + raw.T
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
        assert np.min(np.diff(eigenvalues)) > 1e-6
        psi = _random_sector_state(7, 3, seed=5)
        start = psi.amplitudes.real / np.linalg.norm(psi.amplitudes.real)
        vectors, theta, rotation = oracle._krylov_spectrum(
            matrix.__matmul__, float(np.linalg.norm(matrix)), start
        )
        assert vectors.shape == (35, 35) and theta.shape == (35,)
        assert vectors.dtype == np.float64
        for tau in (0.0, 0.37, 2.9, 11.5):
            # one real pass of propagate: (exp(-i tau Theta) * S[0, :]) S^T Q
            evolved = (np.exp(-1j * tau * theta) * rotation[0]) @ rotation.T @ vectors
            reference = eigenvectors @ (np.exp(-1j * eigenvalues * tau) * (eigenvectors.T @ start))
            assert np.max(np.abs(evolved - reference)) < 1e-12
            assert abs(np.linalg.norm(evolved) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "n,m,dimension",
        [(13, 6, 7), (14, 7, 8)]
        + [(n, m, min(m, n - m) + 1) for n in range(13) for m in range(n + 1)],
    )
    def test_product_state_subspace_dimension(self, n, m, dimension):
        # the hop matrix has min(m, n - m) + 1 distinct eigenvalues in the
        # sector, so the product state's cyclic subspace closes that early;
        # the Lanczos basis that SECTOR_SITE_BUDGET sizes holds that many rows
        h = build_sector_hamiltonian(n, m)
        assert h.basis.patterns[0] == (1 << m) - 1
        evolution = krylov_evolution(h)
        assert evolution.vectors.shape[0] == evolution.theta.size == dimension
        assert evolution.vectors.dtype == np.float64
        start = propagate(evolution, 0.0).amplitudes
        assert np.max(np.abs(start - _product_state(n, m).amplitudes)) < 1e-15

    @pytest.mark.parametrize("n,m", [(8, 4), (10, 5)])
    def test_steeply_falling_start_keeps_the_basis_orthonormal(self, n, m):
        # Eigen-weights 1, 1e-3, 1e-6, ... over the distinct eigenvalues make
        # beta fall by orders of magnitude from step to step.  A single
        # Gram-Schmidt pass then loses orthogonality completely and the loop
        # runs on to the full dimension; the second pass holds it.
        h = build_sector_hamiltonian(n, m)
        eigenvalues, eigenvectors = np.linalg.eigh(dense_sector_matrix(n, m))
        levels = np.unique(np.round(eigenvalues, 8))
        rng = np.random.default_rng(n)
        start = np.zeros(eigenvalues.size)
        for k, level in enumerate(levels):
            (members,) = np.nonzero(np.abs(eigenvalues - level) < 1e-6)
            part = eigenvectors[:, members] @ rng.normal(size=members.size)
            start += 1e-3**k * part / np.linalg.norm(part)
        start /= np.linalg.norm(start)
        vectors, theta, rotation = oracle._krylov_spectrum(h.apply, h.frobenius, start)
        assert np.max(np.abs(vectors @ vectors.T - np.eye(len(vectors)))) < 1e-12
        for tau in (0.37, 2.9, 11.5):
            evolved = (np.exp(-1j * tau * theta) * rotation[0]) @ rotation.T @ vectors
            reference = eigenvectors @ (np.exp(-1j * eigenvalues * tau) * (eigenvectors.T @ start))
            assert np.max(np.abs(evolved - reference)) < 1e-12

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, tau):
        h = build_sector_hamiltonian(4, 2)
        with pytest.raises(ValueError, match="tau"):
            propagate(krylov_evolution(h), tau)

    def test_tau_array_gives_one_row_per_time(self, monkeypatch):
        h = build_sector_hamiltonian(9, 4)
        psi = _product_state(9, 4)
        calls = []
        krylov = oracle._krylov_spectrum
        monkeypatch.setattr(oracle, "_krylov_spectrum", lambda *a: calls.append(a) or krylov(*a))
        taus = np.array([0.0, 0.37, 2.9, 11.5, -4.2])
        evolved = propagate(krylov_evolution(h), taus).amplitudes
        assert len(calls) == 1  # one real pass from the real product state
        assert evolved.shape == (taus.size, psi.basis.patterns.size)
        for tau, row in zip(taus, evolved):
            assert np.max(np.abs(row - _spectral_reference(h, psi.amplitudes, tau))) < 1e-12

    def test_slices_of_one_time_array_run_lanczos_once(self, monkeypatch):
        h = build_sector_hamiltonian(9, 4)
        taus = np.linspace(-3.0, 9.0, 11)
        calls = []
        krylov = oracle._krylov_spectrum
        monkeypatch.setattr(oracle, "_krylov_spectrum", lambda *a: calls.append(a) or krylov(*a))
        evolution = krylov_evolution(h)
        assert len(calls) == 1
        whole = propagate(evolution, taus).amplitudes
        rows = [propagate(evolution, taus[i : i + 4]).amplitudes for i in range(0, 11, 4)]
        assert len(calls) == 1  # propagate runs no Lanczos step
        assert np.max(np.abs(np.concatenate(rows) - whole)) < 1e-14

    def test_tau_array_with_nan_rejected(self):
        taus = np.array([0.1, 0.5, math.nan, 2.0])
        h = build_sector_hamiltonian(4, 2)
        with pytest.raises(ValueError, match="tau"):
            propagate(krylov_evolution(h), taus)


class TestReducedDensity:
    """The reduced density's spectrum, from the block-diagonal Schmidt step."""

    def test_bell_like_state(self):
        h = build_sector_hamiltonian(2, 1)
        state = propagate(krylov_evolution(h), math.pi / 4)
        eigenvalues = schmidt_eigenvalues(state, 1)
        assert np.max(np.abs(eigenvalues - 0.5)) < 1e-14

    def test_product_state(self):
        eigenvalues = schmidt_eigenvalues(_product_state(4, 2), 2)
        assert abs(eigenvalues[0] - 1.0) < 1e-14
        assert np.max(np.abs(eigenvalues[1:])) < 1e-14

    def test_seven_site_rationals(self):
        h = build_sector_hamiltonian(7, 1)
        state = propagate(krylov_evolution(h), math.pi / 7)
        eigenvalues = schmidt_eigenvalues(state, 1)
        assert abs(eigenvalues[0] - 25.0 / 49.0) < 1e-9
        assert abs(eigenvalues[1] - 24.0 / 49.0) < 1e-9

    def test_hermitian_unit_trace_psd(self):
        # eigvalsh of each Hermitian block: real, summing to the unit trace
        h = build_sector_hamiltonian(6, 3)
        state = propagate(krylov_evolution(h), 1.234)
        eigenvalues = schmidt_eigenvalues(state, 3)
        assert eigenvalues.shape == (8,)
        assert abs(eigenvalues.sum() - 1.0) < 1e-10
        assert eigenvalues.min() > -1e-12
        assert np.all(np.diff(eigenvalues) <= 0.0)

    def test_rank_bounded_by_amplitude_count(self):
        rng = np.random.default_rng(4)
        for n, m in ((6, 2), (8, 3), (10, 5)):
            h = build_sector_hamiltonian(n, m)
            evolution = krylov_evolution(h)
            state = propagate(evolution, float(rng.uniform(0, 2 * math.pi)))
            eig = schmidt_eigenvalues(state, m)
            assert int((eig > 1e-12).sum()) <= min(m, n - m) + 1

    def test_nan_state_rejected(self):
        # a non-finite amplitude raises, as in propagate, rather than giving
        # NaN rows: eigvalsh has no defined result on such a block
        basis = sector_basis(4, 2)
        for bad in (math.nan, math.inf):
            amplitudes = np.zeros((3, basis.patterns.size), dtype=complex)
            amplitudes[:, 0] = 1.0
            amplitudes[1, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                schmidt_eigenvalues(SectorState(basis, amplitudes), 2)
            with pytest.raises(ValueError, match="non-finite"):
                schmidt_eigenvalues(SectorState(basis, amplitudes[1]), 2)

    def test_invalid_partition(self):
        stacked = SectorState(sector_basis(4, 2), np.eye(6, dtype=complex))
        for size in (-1, 5):
            with pytest.raises(ValueError, match=r"0\.\.4"):
                schmidt_eigenvalues(stacked, size)

    @pytest.mark.parametrize("shape", [(5,), (2, 7), (2, 3, 6)])
    def test_amplitudes_must_fit_basis(self, shape):
        state = SectorState(sector_basis(4, 2), np.zeros(shape, dtype=complex))
        with pytest.raises(ValueError, match="basis of 6 states"):
            schmidt_eigenvalues(state, 2)

    @pytest.mark.parametrize("size", [-1, 7, 9])
    def test_schmidt_partition_out_of_range(self, size):
        with pytest.raises(ValueError, match=r"0\.\.6"):
            schmidt_eigenvalues(_product_state(6, 3), size)

    @pytest.mark.parametrize("size", [0, 6])
    def test_schmidt_trivial_partition(self, size):
        assert np.array_equal(schmidt_eigenvalues(_product_state(6, 3), size), [1.0])

    def test_block_maps_built_once_per_partition(self):
        basis = sector_basis(8, 3)
        blocks = oracle._schmidt_blocks(basis, 3)
        # a separately built basis of the same sector finds the same maps
        assert oracle._schmidt_blocks(sector_basis(8, 3), 3) is blocks
        # the gathers of one partition list every basis state once
        assert sorted(np.concatenate([gather for gather, _ in blocks])) == list(range(56))
        # another partition, or another sector, rebuilds them
        for key in ((basis, 5), (sector_basis(8, 4), 3), (sector_basis(9, 3), 3)):
            oracle._schmidt_blocks(basis, 3)
            misses = oracle._schmidt_blocks.cache_info().misses
            oracle._schmidt_blocks(*key)
            assert oracle._schmidt_blocks.cache_info().misses == misses + 1, key

    def test_blocks_are_row_major_slices_of_the_basis_order(self):
        # rows: traced patterns (sites p..n-1), columns: kept ones (sites
        # 0..p-1); (63, 1) sets bit 62, the top bit of an int64 pattern
        cases = [(n, m, p) for n in range(11) for m in range(n + 1) for p in range(n + 1)]
        cases += [(63, 1, p) for p in (0, 1, 31, 62, 63)] + [(40, 2, p) for p in (0, 20, 39, 40)]
        for n, m, p in cases:
            patterns = sector_basis(n, m).patterns
            blocks = oracle._schmidt_blocks(sector_basis(n, m), p)
            members = np.sort(np.concatenate([members for members, _ in blocks]))
            assert np.array_equal(members, np.arange(patterns.size)), (n, m, p)
            for members, shape in blocks:
                traced = (patterns[members] >> p).reshape(shape)
                kept = (patterns[members] & ((1 << p) - 1)).reshape(shape)
                assert (traced == traced[:, :1]).all(), (n, m, p)
                assert (np.diff(traced[:, 0]) > 0).all(), (n, m, p)
                assert (kept == kept[:1]).all(), (n, m, p)
                assert (np.diff(kept[0]) > 0).all(), (n, m, p)

    def test_partition_relabeling_invariance(self):
        # permuting the sites of the state and cutting along the permuted
        # partition must leave the spectrum unchanged
        n, m, tau = 5, 2, 0.7
        h = build_sector_hamiltonian(n, m)
        state = propagate(krylov_evolution(h), tau)
        reference = np.sort(schmidt_eigenvalues(state, m))

        permutation = [2, 4, 1, 0, 3]  # image of each site
        full = np.zeros(1 << n, dtype=complex)
        for pattern, amp in zip(state.basis.patterns.tolist(), state.amplitudes):
            shuffled = 0
            for site in range(n):
                if pattern >> site & 1:
                    shuffled |= 1 << permutation[site]
            full[shuffled] = amp
        subset = [permutation[0], permutation[1]]  # the A sites after relabeling
        spectrum = np.sort(_subset_spectrum(full, n, subset))
        assert np.max(np.abs(spectrum[-len(reference):] - reference)) < 1e-12

    @pytest.mark.parametrize("n,m", [(6, 2), (8, 3), (7, 5), (9, 6)])
    def test_matches_full_space_trace(self, n, m):
        # both sides of the cut: keep the first m sites (m <= n/2) and keep
        # the last n-m sites (m > n/2)
        state = _random_sector_state(n, m, seed=10 * n + m)
        full = np.zeros(1 << n, dtype=complex)
        full[state.basis.patterns] = state.amplitudes
        # row index: bits of sites m..n-1, column index: bits of sites 0..m-1
        coefficients = full.reshape(1 << (n - m), 1 << m)
        rho_first = np.einsum("tk,tl->kl", coefficients, coefficients.conj())
        rho_last = np.einsum("kt,lt->kl", coefficients, coefficients.conj())
        smaller = rho_first if m <= n - m else rho_last
        expected = np.linalg.eigvalsh(smaller)[::-1]
        eigenvalues = schmidt_eigenvalues(state, m)
        assert eigenvalues.shape == expected.shape
        assert np.max(np.abs(eigenvalues - expected)) < 1e-12

    @pytest.mark.parametrize(
        "n,m,size",
        [(6, 2, 2), (7, 5, 5), (8, 3, 5), (6, 1, 3), (5, 2, 0), (13, 6, 6), (13, 6, 7)],
    )
    def test_stack_matches_rows_and_full_trace(self, n, m, size):
        # (T, d) in, (T, r) out: each row as a call of its own, and as the
        # full 2^s trace on the smaller side s of the cut, zero-padded where
        # some kept-side patterns never occur in the sector
        rows = np.array([_random_sector_state(n, m, seed=t).amplitudes for t in range(3)])
        basis = sector_basis(n, m)
        stacked = schmidt_eigenvalues(SectorState(basis, rows), size)
        full = np.zeros((3, 1 << n), dtype=complex)
        full[:, basis.patterns] = rows
        # row index: bits of sites size..n-1, column index: bits of sites 0..size-1
        coefficients = full.reshape(3, 1 << (n - size), 1 << size)
        if size > n - size:
            coefficients = coefficients.swapaxes(1, 2)
        expected = np.linalg.eigvalsh(
            np.einsum("utk,utl->ukl", coefficients, coefficients.conj())
        )[:, ::-1]
        assert stacked.shape[0] == 3 and stacked.shape[1] <= expected.shape[1]
        padded = np.zeros_like(expected)
        padded[:, : stacked.shape[1]] = stacked
        assert np.max(np.abs(padded - expected)) < 1e-12
        for row, eigenvalues in zip(rows, stacked):
            single = schmidt_eigenvalues(SectorState(basis, row), size)
            assert np.max(np.abs(single - eigenvalues)) < 1e-14


def _product_state(n_sites: int, excitations: int) -> SectorState:
    """The start state with the first ``excitations`` sites excited: the
    smallest pattern, (1 << excitations) - 1, is basis state 0."""
    basis = sector_basis(n_sites, excitations)
    amplitudes = np.zeros(basis.patterns.size, dtype=complex)
    amplitudes[0] = 1.0
    return SectorState(basis, amplitudes)


def _random_sector_state(n_sites: int, excitations: int, seed: int) -> SectorState:
    """Normalized sector state with random complex amplitudes."""
    basis = sector_basis(n_sites, excitations)
    rng = np.random.default_rng(seed)
    amplitudes = rng.normal(size=basis.patterns.size) + 1j * rng.normal(size=basis.patterns.size)
    return SectorState(basis, amplitudes / np.linalg.norm(amplitudes))


def _subset_spectrum(full_state: np.ndarray, n_sites: int, subset) -> np.ndarray:
    """Reduced spectrum over an arbitrary site subset of a full-space vector."""
    tensor = full_state.reshape((2,) * n_sites)
    axes = [n_sites - 1 - site for site in subset]  # site j lives on axis n-1-j
    moved = np.moveaxis(tensor, axes, range(len(subset)))
    flat = moved.reshape(1 << len(subset), -1)
    return np.linalg.eigvalsh(flat @ flat.conj().T)


class TestVonNeumannEntropy:
    def test_balanced(self):
        assert von_neumann_entropy(np.array([0.5, 0.5])) == 1.0

    def test_pure(self):
        assert von_neumann_entropy(np.array([1.0, 0.0])) == 0.0

    def test_seven_site_value(self):
        assert abs(von_neumann_entropy(np.array([24 / 49, 25 / 49])) - 0.9997) < 5e-5

    def test_rounding_noise_clipped(self):
        assert von_neumann_entropy(np.array([1.0, -1e-12])) == 0.0

    def test_broken_density_rejected(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.array([1.1, -0.1]))

    @pytest.mark.parametrize(
        "eigenvalues",
        [[math.nan, 0.0], [0.5, math.nan, 0.5], [math.nan], [math.inf, 0.0], [-math.inf, 1.0]],
    )
    def test_nan_eigenvalue_gives_nan(self, eigenvalues):
        assert math.isnan(von_neumann_entropy(np.array(eigenvalues)))

    def test_rows_match_single_calls(self):
        rows = np.array(
            [[0.5, 0.5, 0.0], [math.nan, 0.5, 0.5], [24 / 49, 25 / 49, 0.0],
             [1.0, -1e-12, 0.0], [0.7, math.inf, 0.1], [0.25, 0.25, 0.5]]
        )
        entropies = von_neumann_entropy(rows)
        assert entropies.shape == (6,)
        for row, value in zip(rows, entropies):
            single = von_neumann_entropy(row)
            assert isinstance(single, float)
            assert single == value or (math.isnan(single) and math.isnan(value))
        assert np.isnan(entropies).tolist() == [False, True, False, False, True, False]

    def test_broken_row_rejected_next_to_nan_row(self):
        with pytest.raises(ValueError, match="negative"):
            von_neumann_entropy(np.array([[math.nan, 1.0], [1.1, -0.1], [0.5, 0.5]]))


class TestVerifyClosedForm:
    def test_two_sites_tight(self):
        rng = np.random.default_rng(0)
        report = verify_closed_form(ModelSpec(2, 1), rng.uniform(0, 4 * math.pi, 64))
        assert report.passed
        assert report.max_spectrum_deviation < 1e-12
        assert report.max_entropy_deviation < 1e-12

    def test_largest_balanced_sector(self):
        rng = np.random.default_rng(1)
        report = verify_closed_form(ModelSpec(10, 5), rng.uniform(0, 4 * math.pi, 64))
        assert report.passed

    def test_vacuum_trivial(self):
        report = verify_closed_form(ModelSpec(3, 0), [0.0, 1.0, 2.0])
        assert report.passed
        assert report.max_entropy_deviation == 0.0

    def test_majority_excited_sector(self):
        # M > N/2 exercises the smaller-side reduction
        rng = np.random.default_rng(6)
        report = verify_closed_form(ModelSpec(7, 5), rng.uniform(0, 4 * math.pi, 16))
        assert report.passed

    def test_exact_table_built_once(self, monkeypatch):
        built = []

        def counted(spec):
            built.append(spec)
            return b_table(spec)

        # verify may look the table up in either module
        monkeypatch.setattr(combinatorics, "b_table", counted)
        monkeypatch.setattr(entanglement, "b_table", counted)
        entanglement.exact_table.cache_clear()
        assert verify_closed_form(ModelSpec(8, 3), [0.0, 0.4, 1.3]).passed
        assert built == [ModelSpec(8, 3)]

    def test_one_basis_and_one_reference_call_per_sector(self, monkeypatch):
        bases, reference_calls = [], []
        true_basis, true_amplitudes_at = oracle.sector_basis, evolution.amplitudes_at

        def counted_basis(n_total, excitation_count):
            bases.append((n_total, excitation_count))
            return true_basis(n_total, excitation_count)

        def counted_amplitudes_at(spec, table, tau):
            reference_calls.append(np.shape(tau))
            return true_amplitudes_at(spec, table, tau)

        monkeypatch.setattr(oracle, "sector_basis", counted_basis)
        monkeypatch.setattr(evolution, "amplitudes_at", counted_amplitudes_at)
        assert verify_closed_form(ModelSpec(8, 3), np.linspace(0.0, 3.0, 16)).passed
        # the sector's basis, and the (M-1) sector's that the lowering table indexes
        assert bases == [(8, 3), (8, 2)]
        assert reference_calls == [(16,)]

    @pytest.mark.parametrize(
        "samples",
        [[0.3, math.nan], [math.inf], [0.3, -math.inf], [], [[0.3, 0.5]], [0.3, 0.5j], 0.5j],
        ids=str,
    )
    def test_non_finite_or_empty_samples_rejected(self, monkeypatch, samples):
        # the closed forms reject the samples before any sector is built
        def no_sector(*args):
            raise AssertionError("a sector was built")

        monkeypatch.setattr(oracle, "build_sector_hamiltonian", no_sector)
        with pytest.raises(InputError):
            verify_closed_form(ModelSpec(4, 1), samples)

    def test_nan_deviation_fails_report(self, monkeypatch):
        # a NaN at a middle sample must reach the report, not vanish in max()
        calls = []

        def nan_at_second_sample(state, size):
            calls.append(size)
            eig = schmidt_eigenvalues(state, size).copy()
            eig[1] = math.nan
            return eig

        monkeypatch.setattr(oracle, "schmidt_eigenvalues", nan_at_second_sample)
        report = verify_closed_form(ModelSpec(4, 1), [0.0, 0.3, 0.7])
        assert calls == [1]  # all samples fit one chunk
        assert math.isnan(report.max_spectrum_deviation)
        assert math.isnan(report.max_entropy_deviation)
        assert not report.passed

    def test_eigenvalues_past_the_closed_form_rank_are_checked(self, monkeypatch):
        # at (6,3) the oracle has 2^3 = 8 eigenvalues and the closed forms 4:
        # the last four must be compared with zero
        def tail_raised(state, size):
            eig = schmidt_eigenvalues(state, size).copy()
            assert eig.shape[1] == 8
            eig[:, -1] = 1e-7
            return eig

        monkeypatch.setattr(oracle, "schmidt_eigenvalues", tail_raised)
        report = verify_closed_form(ModelSpec(6, 3), [0.0, 0.3, 0.7])
        assert report.max_spectrum_deviation >= 1e-7
        assert not report.passed

    def test_kernel_path_is_checked(self, monkeypatch):
        true_grid = entanglement.entropy_grid

        def perturbed(spec, tau_grid):
            probs, entropies = true_grid(spec, tau_grid)
            probs = probs.copy()
            probs[1, 0] += 1e-6
            return probs, entropies

        monkeypatch.setattr(entanglement, "entropy_grid", perturbed)
        report = verify_closed_form(ModelSpec(5, 2), [0.0, 0.3, 0.7])
        assert report.max_spectrum_deviation > 5e-7
        assert not report.passed

    @settings(max_examples=25, deadline=None)
    @given(
        spec=st.integers(2, 6).flatmap(
            lambda n: st.builds(ModelSpec, st.just(n), st.integers(0, n))
        ),
        samples=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4),
        bad=st.sampled_from([None, math.nan, math.inf, -math.inf]),
        bad_at=st.integers(0, 4),
    )
    def test_property_finite_samples_pass_else_rejected(self, spec, samples, bad, bad_at):
        if bad is not None:
            samples.insert(min(bad_at, len(samples)), bad)
            with pytest.raises(ValueError):
                verify_closed_form(spec, samples)
            return
        assert verify_closed_form(spec, samples).passed

    def test_single_excitation_matches_analytic_entropy(self):
        rng = np.random.default_rng(9)
        for n in (3, 6, 9):
            h = build_sector_hamiltonian(n, 1)
            evolution = krylov_evolution(h)
            for tau in rng.uniform(0.0, 2.0 * math.pi, 10):
                state = propagate(evolution, tau)
                oracle = von_neumann_entropy(schmidt_eigenvalues(state, 1))
                p1 = 4.0 * (n - 1) / n**2 * math.sin(0.5 * n * tau) ** 2
                analytic = 0.0
                for x in (p1, 1.0 - p1):
                    if x > 1e-300:
                        analytic -= x * math.log2(x)
                assert abs(oracle - analytic) < 1e-9

    def test_shifted_phase_is_caught(self, monkeypatch):
        # shifts the reference path's frequencies only; the kernel's table is untouched
        true_amplitudes_at = evolution.amplitudes_at

        def shifted(spec, table, tau):
            copy = BCoefficientTable(spec, table.entries)
            phases = table.phases.copy()
            phases[-1] += 1.0
            vars(copy)["phases"] = phases  # fills the cached property
            return true_amplitudes_at(spec, copy, tau)

        monkeypatch.setattr(evolution, "amplitudes_at", shifted)
        rng = np.random.default_rng(8)
        assert not verify_closed_form(ModelSpec(8, 3), rng.uniform(0, 4 * math.pi, 16)).passed

    def test_extra_hop_is_caught(self, monkeypatch):
        true_build = oracle.build_sector_hamiltonian

        def with_redirected_entry(n_total, excitations):
            h = true_build(n_total, excitations)
            table = h.lowering.copy()
            # the start state 0b00000111 lowers to 0b11000000 instead of
            # 0b00000110: it loses the five hops through 0b00000110 and gains
            # six through 0b11000000, and H = L^T L - M stays symmetric
            table[0, 0] = table.max()
            rewired = SectorHamiltonian(h.basis, table)
            assert np.array_equal(rewired.matrix, rewired.matrix.T)
            assert (rewired.matrix != h.matrix).sum() == 2 * (5 + 6)
            return rewired

        monkeypatch.setattr(oracle, "build_sector_hamiltonian", with_redirected_entry)
        rng = np.random.default_rng(8)
        assert not verify_closed_form(ModelSpec(8, 3), rng.uniform(0, 4 * math.pi, 16)).passed

    def test_samples_are_scored_in_byte_bounded_chunks(self, monkeypatch):
        spec, taus = ModelSpec(8, 3), np.random.default_rng(3).uniform(0, 4 * math.pi, 16)
        whole = verify_closed_form(spec, taus)
        sizes, krylov_calls = [], []
        true_propagate, krylov = oracle.propagate, oracle._krylov_spectrum

        def counted_propagate(evolution, tau):
            sizes.append(len(tau))
            return true_propagate(evolution, tau)

        monkeypatch.setattr(oracle, "propagate", counted_propagate)
        monkeypatch.setattr(
            oracle, "_krylov_spectrum", lambda *a: krylov_calls.append(a) or krylov(*a)
        )
        # five samples of 56 complex amplitudes a chunk, and one byte short of that
        for budget, chunks in ((5 * 16 * 56, [5, 5, 5, 1]), (5 * 16 * 56 - 1, [4, 4, 4, 4])):
            sizes.clear(), krylov_calls.clear()
            monkeypatch.setattr(oracle, "CHUNK_BYTES", budget)
            report = verify_closed_form(spec, taus)
            assert sizes == chunks and len(krylov_calls) == 1
            assert report.passed
            assert report.max_spectrum_deviation == pytest.approx(whole.max_spectrum_deviation, abs=1e-14)
            assert report.max_entropy_deviation == pytest.approx(whole.max_entropy_deviation, abs=1e-14)
        # a sample larger than the budget still makes a chunk of one
        monkeypatch.setattr(oracle, "CHUNK_BYTES", 1)
        sizes.clear()
        assert verify_closed_form(spec, taus[:3]).passed and sizes == [1, 1, 1]

    def test_block_maps_are_built_once_per_verify_sector(self, monkeypatch):
        # (13,6): 256 KiB // (16 * 1716) = 9 samples a chunk, so 64 samples
        # make 8 chunks, and only the first builds the Schmidt maps
        chunks = []
        true_propagate = oracle.propagate

        def counted_propagate(evolution, tau):
            chunks.append(len(tau))
            return true_propagate(evolution, tau)

        monkeypatch.setattr(oracle, "propagate", counted_propagate)
        oracle._schmidt_blocks.cache_clear()
        taus = np.random.default_rng(13).uniform(0, 4 * math.pi, 64)
        assert verify_closed_form(ModelSpec(13, 6), taus).passed
        assert chunks == [9] * 7 + [1]
        info = oracle._schmidt_blocks.cache_info()
        assert (info.misses, info.hits) == (1, 7)

    def test_peak_memory_is_bounded_by_the_chunk_budget(self):
        # tracemalloc sees numpy's buffers.  At (16,8) the peak must fit the
        # int32 lowering table, a 16-row Lanczos basis, two chunk budgets
        # and 1 MiB for the O(d) vectors (the product's and the Schmidt
        # split's, which both walk one column or site at a time) and the
        # closed form's samples.  256 samples may take more than 64 only by
        # the closed form's few floats per sample, less than one sample's
        # d amplitudes.
        spec, dim, count = ModelSpec(16, 8), math.comb(16, 8), 8
        verify_closed_form(spec, [0.1])  # imports and the exact table, unmeasured
        peaks = []
        for samples in (64, 256):
            taus = np.random.default_rng(samples).uniform(0, 4 * math.pi, samples)
            tracemalloc.start()
            try:
                assert verify_closed_form(spec, taus).passed
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        table, lanczos = 4 * dim * count, 8 * 16 * dim
        assert max(peaks) <= table + lanczos + 2 * CHUNK_BYTES + (1 << 20), peaks
        assert abs(peaks[1] - peaks[0]) < 16 * dim, peaks

    def test_no_dense_matrix_on_the_verify_path(self, monkeypatch):
        def refuse(self):
            raise AssertionError("verify built a dense d x d matrix")

        monkeypatch.setattr(SectorHamiltonian, "matrix", property(refuse))
        with pytest.raises(AssertionError, match="dense"):
            build_sector_hamiltonian(4, 2).matrix
        rng = np.random.default_rng(1_000 * 13 + 6)
        assert verify_closed_form(ModelSpec(13, 6), rng.uniform(0, 4 * math.pi, 64)).passed


class TestFullSpaceCrosscheck:
    @pytest.mark.parametrize(
        "n,m,tau,bound",
        [(2, 1, math.pi / 4, 1e-14), (4, 2, 1.0, 1e-10), (8, 1, math.pi / 8, 1e-10)],
    )
    def test_examples(self, n, m, tau, bound):
        assert full_space_crosscheck(n, m, tau) < bound

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            full_space_crosscheck(9, 1, 0.1)

    def test_tau_array_rows_match_scalar_calls(self):
        taus = np.array([0.0, 0.37, 2.9, 11.5, -4.2])
        for n, m in ((2, 1), (5, 2), (7, 3), (8, 8)):
            batched = full_space_propagate(n, m, taus)
            assert batched.shape == (taus.size, 1 << n)
            for tau, row in zip(taus, batched):
                assert np.max(np.abs(row - full_space_propagate(n, m, float(tau)))) < 1e-13
            worst = max(full_space_crosscheck(n, m, float(tau)) for tau in taus)
            assert full_space_crosscheck(n, m, taus) == pytest.approx(worst, abs=1e-13)

    @pytest.mark.parametrize(
        "n,tau",
        [
            (2, math.nan),
            (3, math.inf),
            (3, -math.inf),
            (4, np.array([0.1, math.nan, 2.0])),
            (4, np.array([math.inf, 0.5])),
            (4, np.array([0.5, -math.inf])),
        ],
    )
    def test_non_finite_tau_rejected(self, n, tau):
        with pytest.raises(ValueError, match="tau"):
            full_space_propagate(n, 1, tau)
        with pytest.raises(ValueError, match="tau"):
            full_space_crosscheck(n, 1, tau)

    @pytest.mark.parametrize("m", [5, -1])
    def test_excitation_count_out_of_range_rejected(self, monkeypatch, m):
        def no_eigh(matrix):
            raise AssertionError("range check must come before eigh")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        with pytest.raises(ValueError, match="m_excited"):
            full_space_propagate(4, m, 0.3)
        with pytest.raises(ValueError, match="m_excited"):
            full_space_crosscheck(4, m, 0.3)

    def test_fully_excited_state_is_stationary(self):
        assert full_space_crosscheck(3, 3, 0.7) == 0.0

    def test_excitation_number_conserved(self):
        # full-space evolution must keep all weight in the initial sector
        for n, m in ((4, 1), (5, 2), (6, 3)):
            full = full_space_propagate(n, m, 2.345)
            sector_patterns = set(sector_basis(n, m).patterns.tolist())
            leaked = [
                abs(amp) for pattern, amp in enumerate(full)
                if pattern not in sector_patterns
            ]
            assert max(leaked) < 1e-12
