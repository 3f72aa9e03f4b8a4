from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinvdw import combinatorics, entanglement, evolution, oracle
from spinvdw.combinatorics import b_table
from spinvdw.model import ModelSpec
from spinvdw.oracle import (
    BudgetExceededError,
    SectorHamiltonian,
    SectorState,
    build_sector_hamiltonian,
    full_space_crosscheck,
    full_space_hamiltonian,
    full_space_propagate,
    initial_sector_state,
    propagate,
    schmidt_eigenvalues,
    sector_basis,
    verify_closed_form,
    von_neumann_entropy,
)


class TestSectorBasis:
    def test_dimension_and_order(self):
        basis = sector_basis(4, 2)
        assert basis.states == (0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100)

    def test_vacuum(self):
        assert sector_basis(3, 0).states == (0,)


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
        with pytest.raises(BudgetExceededError):
            build_sector_hamiltonian(15, 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_full_space_restriction(self, n):
        # the Pauli-product Hamiltonian is built independently of the sector code
        full = full_space_hamiltonian(n)
        for m in range(n + 1):
            patterns = list(sector_basis(n, m).states)
            restricted = full[np.ix_(patterns, patterns)]
            assert np.array_equal(build_sector_hamiltonian(n, m).matrix, restricted)


class TestPropagate:
    def test_two_site_rabi_quarter(self):
        h = build_sector_hamiltonian(2, 1)
        state = propagate(h, initial_sector_state(2, 1), math.pi / 4)
        expected = np.array([math.cos(math.pi / 4), -1j * math.sin(math.pi / 4)])
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-14

    def test_zero_time_is_identity(self):
        h = build_sector_hamiltonian(5, 2)
        psi0 = initial_sector_state(5, 2)
        state = propagate(h, psi0, 0.0)
        assert np.max(np.abs(state.amplitudes - psi0.amplitudes)) < 1e-14

    def test_two_site_complete_transfer(self):
        h = build_sector_hamiltonian(2, 1)
        state = propagate(h, initial_sector_state(2, 1), math.pi / 2)
        assert abs(state.amplitudes[0]) < 1e-14
        assert abs(abs(state.amplitudes[1]) - 1.0) < 1e-14

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        for n in range(2, 11):
            m = int(rng.integers(0, n + 1))
            h = build_sector_hamiltonian(n, m)
            psi0 = initial_sector_state(n, m)
            for tau in rng.uniform(0.0, 4.0 * math.pi, 12):
                state = propagate(h, psi0, tau)
                assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_basis_mismatch(self):
        with pytest.raises(ValueError):
            propagate(build_sector_hamiltonian(3, 1), initial_sector_state(3, 2), 0.1)

    @pytest.mark.parametrize(
        "n,m,tau", [(2, 1, 0.4), (6, 3, 1.234), (9, 2, 5.0), (10, 7, 2.5)]
    )
    def test_complex_state_matches_spectral_reference(self, n, m, tau):
        # a complex start state: a product that drops the imaginary part fails
        h = build_sector_hamiltonian(n, m)
        psi = _random_sector_state(n, m, seed=n + m)
        evolved = propagate(h, psi, tau).amplitudes
        eigenvalues, vectors = h.eigensystem()
        reference = vectors @ (np.exp(-1j * eigenvalues * tau) * (vectors.T @ psi.amplitudes))
        assert np.max(np.abs(evolved - reference)) < 1e-12
        assert abs(np.linalg.norm(evolved) - 1.0) < 1e-12


def _spectral_reference(h: SectorHamiltonian, amplitudes: np.ndarray, tau: float) -> np.ndarray:
    eigenvalues, vectors = h.eigensystem()
    return vectors @ (np.exp(-1j * eigenvalues * tau) * (vectors.T @ amplitudes))


class TestKrylovPropagate:
    def test_generic_matrix_runs_to_full_dimension(self):
        # no invariant subspace to find: the loop must span the whole sector
        basis = sector_basis(7, 3)
        rng = np.random.default_rng(73)
        raw = rng.normal(size=(len(basis.states), len(basis.states)))
        h = SectorHamiltonian(basis, raw + raw.T)
        assert np.min(np.diff(h.eigensystem()[0])) > 1e-6
        psi = _random_sector_state(7, 3, seed=5)
        start = psi.amplitudes.real / np.linalg.norm(psi.amplitudes.real)
        vectors, theta, rotation = oracle._krylov_spectrum(h.matrix, start)
        assert vectors.shape == (35, 35) and theta.shape == (35,)
        assert vectors.dtype == np.float64
        for tau in (0.0, 0.37, 2.9, 11.5):
            evolved = propagate(h, psi, tau).amplitudes
            assert np.max(np.abs(evolved - _spectral_reference(h, psi.amplitudes, tau))) < 1e-12
            assert abs(np.linalg.norm(evolved) - 1.0) < 1e-12

    def test_cache_follows_the_start_state(self):
        h = build_sector_hamiltonian(8, 3)
        first = _random_sector_state(8, 3, seed=1)
        second = _random_sector_state(8, 3, seed=2)
        for psi, tau in ((first, 0.8), (second, 0.8), (second, 0.1), (first, 1.9)):
            evolved = propagate(h, psi, tau).amplitudes
            assert np.max(np.abs(evolved - _spectral_reference(h, psi.amplitudes, tau))) < 1e-12
        # the cached state, changed in place: same object, same norm
        first.amplitudes[:] = np.roll(first.amplitudes, 7)
        evolved = propagate(h, first, 1.9).amplitudes
        assert np.max(np.abs(evolved - _spectral_reference(h, first.amplitudes, 1.9))) < 1e-12

    @pytest.mark.parametrize("n,m,dimension", [(13, 6, 7), (14, 7, 8), (9, 0, 1)])
    def test_product_state_subspace_dimension(self, n, m, dimension):
        # the hop matrix has min(m, n - m) + 1 distinct eigenvalues in the
        # sector, so the product state's cyclic subspace closes that early
        h = build_sector_hamiltonian(n, m)
        vectors, theta, rotation = oracle._krylov_spectrum(
            h.matrix, initial_sector_state(n, m).amplitudes.real
        )
        assert vectors.shape[0] == theta.size == dimension
        assert vectors.dtype == np.float64

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau"):
            propagate(build_sector_hamiltonian(4, 2), initial_sector_state(4, 2), tau)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_start_rejected(self, bad):
        psi = initial_sector_state(5, 2)
        psi.amplitudes[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            propagate(build_sector_hamiltonian(5, 2), psi, 0.5)

    def test_zero_start_stays_zero(self):
        basis = sector_basis(5, 2)
        zero = SectorState(basis, np.zeros(len(basis.states), dtype=complex))
        evolved = propagate(build_sector_hamiltonian(5, 2), zero, 1.3).amplitudes
        assert evolved.shape == (len(basis.states),)
        assert not evolved.any()

    def test_tau_array_gives_one_row_per_time(self, monkeypatch):
        h = build_sector_hamiltonian(9, 4)
        psi = _random_sector_state(9, 4, seed=31)
        calls = []
        krylov = oracle._krylov_spectrum
        monkeypatch.setattr(oracle, "_krylov_spectrum", lambda *a: calls.append(a) or krylov(*a))
        taus = np.array([0.0, 0.37, 2.9, 11.5, -4.2])
        # a real-only or imaginary-only start skips one of the two real passes
        for amplitudes, passes in (
            (psi.amplitudes, 2),
            (psi.amplitudes.real + 0j, 1),
            (1j * psi.amplitudes.imag, 1),
        ):
            calls.clear()
            start = SectorState(psi.basis, amplitudes)
            evolved = propagate(h, start, taus).amplitudes
            assert len(calls) == passes
            assert evolved.shape == (taus.size, len(psi.basis.states))
            for tau, row in zip(taus, evolved):
                assert np.max(np.abs(row - _spectral_reference(h, amplitudes, tau))) < 1e-12

    def test_zero_start_with_tau_array_stays_zero(self):
        basis = sector_basis(5, 2)
        zero = SectorState(basis, np.zeros(len(basis.states), dtype=complex))
        evolved = propagate(build_sector_hamiltonian(5, 2), zero, np.linspace(0.0, 2.0, 7))
        assert evolved.amplitudes.shape == (7, len(basis.states))
        assert not evolved.amplitudes.any()

    def test_tau_array_with_nan_rejected(self):
        taus = np.array([0.1, 0.5, math.nan, 2.0])
        with pytest.raises(ValueError, match="tau"):
            propagate(build_sector_hamiltonian(4, 2), initial_sector_state(4, 2), taus)


class TestReducedDensity:
    """The reduced density's spectrum, from the block-diagonal Schmidt step."""

    def test_bell_like_state(self):
        h = build_sector_hamiltonian(2, 1)
        state = propagate(h, initial_sector_state(2, 1), math.pi / 4)
        eigenvalues = schmidt_eigenvalues(state, 1)
        assert np.max(np.abs(eigenvalues - 0.5)) < 1e-14

    def test_product_state(self):
        eigenvalues = schmidt_eigenvalues(initial_sector_state(4, 2), 2)
        assert abs(eigenvalues[0] - 1.0) < 1e-14
        assert np.max(np.abs(eigenvalues[1:])) < 1e-14

    def test_seven_site_rationals(self):
        h = build_sector_hamiltonian(7, 1)
        state = propagate(h, initial_sector_state(7, 1), math.pi / 7)
        eigenvalues = schmidt_eigenvalues(state, 1)
        assert abs(eigenvalues[0] - 25.0 / 49.0) < 1e-9
        assert abs(eigenvalues[1] - 24.0 / 49.0) < 1e-9

    def test_hermitian_unit_trace_psd(self):
        # eigvalsh of each Hermitian block: real, summing to the unit trace
        h = build_sector_hamiltonian(6, 3)
        state = propagate(h, initial_sector_state(6, 3), 1.234)
        eigenvalues = schmidt_eigenvalues(state, 3)
        assert eigenvalues.shape == (8,)
        assert abs(eigenvalues.sum() - 1.0) < 1e-10
        assert eigenvalues.min() > -1e-12
        assert np.all(np.diff(eigenvalues) <= 0.0)

    def test_rank_bounded_by_amplitude_count(self):
        rng = np.random.default_rng(4)
        for n, m in ((6, 2), (8, 3), (10, 5)):
            h = build_sector_hamiltonian(n, m)
            psi0 = initial_sector_state(n, m)
            state = propagate(h, psi0, float(rng.uniform(0, 2 * math.pi)))
            eig = schmidt_eigenvalues(state, m)
            assert int((eig > 1e-12).sum()) <= min(m, n - m) + 1

    def test_nan_state_rejected(self):
        # a non-finite amplitude raises, as in propagate, rather than giving
        # NaN rows: eigvalsh has no defined result on such a block
        basis = sector_basis(4, 2)
        for bad in (math.nan, math.inf):
            amplitudes = np.zeros((3, len(basis.states)), dtype=complex)
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
            schmidt_eigenvalues(initial_sector_state(6, 3), size)

    @pytest.mark.parametrize("size", [0, 6])
    def test_schmidt_trivial_partition(self, size):
        assert np.array_equal(schmidt_eigenvalues(initial_sector_state(6, 3), size), [1.0])

    def test_partition_relabeling_invariance(self):
        # permuting the sites of the state and cutting along the permuted
        # partition must leave the spectrum unchanged
        n, m, tau = 5, 2, 0.7
        h = build_sector_hamiltonian(n, m)
        state = propagate(h, initial_sector_state(n, m), tau)
        reference = np.sort(schmidt_eigenvalues(state, m))

        permutation = [2, 4, 1, 0, 3]  # image of each site
        full = np.zeros(1 << n, dtype=complex)
        for pattern, amp in zip(state.basis.states, state.amplitudes):
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
        full[list(state.basis.states)] = state.amplitudes
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
        full[:, list(basis.states)] = rows
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


def _random_sector_state(n_sites: int, excitations: int, seed: int) -> SectorState:
    """Normalized sector state with random complex amplitudes."""
    basis = sector_basis(n_sites, excitations)
    rng = np.random.default_rng(seed)
    amplitudes = rng.normal(size=len(basis.states)) + 1j * rng.normal(size=len(basis.states))
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
        entanglement.kernel_inputs.cache_clear()
        assert verify_closed_form(ModelSpec(8, 3), [0.0, 0.4, 1.3]).passed
        assert built == [ModelSpec(8, 3)]

    @pytest.mark.parametrize(
        "samples", [[0.3, math.nan], [math.inf], [0.3, -math.inf], []], ids=str
    )
    def test_non_finite_or_empty_samples_rejected(self, samples):
        with pytest.raises(ValueError):
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
        assert calls == [1]  # one batched call for all samples
        assert math.isnan(report.max_spectrum_deviation)
        assert math.isnan(report.max_entropy_deviation)
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
            psi0 = initial_sector_state(n, 1)
            for tau in rng.uniform(0.0, 2.0 * math.pi, 10):
                state = propagate(h, psi0, tau)
                oracle = von_neumann_entropy(schmidt_eigenvalues(state, 1))
                p1 = 4.0 * (n - 1) / n**2 * math.sin(0.5 * n * tau) ** 2
                analytic = 0.0
                for x in (p1, 1.0 - p1):
                    if x > 1e-300:
                        analytic -= x * math.log2(x)
                assert abs(oracle - analytic) < 1e-9

    def test_shifted_phase_is_caught(self, monkeypatch):
        # shifts the reference path's frequencies only; the kernel's are cached
        true_frequencies = evolution.mode_frequencies

        def shifted(spec):
            *lower, top = true_frequencies(spec)
            return (*lower, top + 1)

        monkeypatch.setattr(evolution, "mode_frequencies", shifted)
        rng = np.random.default_rng(8)
        assert not verify_closed_form(ModelSpec(8, 3), rng.uniform(0, 4 * math.pi, 16)).passed

    def test_extra_hop_is_caught(self, monkeypatch):
        true_build = oracle.build_sector_hamiltonian

        def with_extra_hop(n_total, excitations):
            h = true_build(n_total, excitations)
            assert h.matrix[0, -1] == 0.0  # 0b00000111 and 0b11100000 are not neighbours
            h.matrix[0, -1] = h.matrix[-1, 0] = 1.0
            return h

        monkeypatch.setattr(oracle, "build_sector_hamiltonian", with_extra_hop)
        rng = np.random.default_rng(8)
        assert not verify_closed_form(ModelSpec(8, 3), rng.uniform(0, 4 * math.pi, 16)).passed


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

    def test_excitation_number_conserved(self):
        # full-space evolution must keep all weight in the initial sector
        for n, m in ((4, 1), (5, 2), (6, 3)):
            full = full_space_propagate(n, m, 2.345)
            sector_patterns = set(sector_basis(n, m).states)
            leaked = [
                abs(amp) for pattern, amp in enumerate(full)
                if pattern not in sector_patterns
            ]
            assert max(leaked) < 1e-12
