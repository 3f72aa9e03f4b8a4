from __future__ import annotations

import math

import numpy as np
import pytest

from spinvdw import oracle
from spinvdw.model import ModelSpec
from spinvdw.oracle import (
    BudgetExceededError,
    SectorState,
    build_sector_hamiltonian,
    full_space_crosscheck,
    full_space_propagate,
    initial_sector_state,
    propagate,
    reduced_density,
    schmidt_eigenvalues,
    sector_basis,
    verify_closed_form,
    von_neumann_entropy,
)


class TestSectorBasis:
    def test_dimension_and_order(self):
        basis = sector_basis(4, 2)
        assert basis.states == (0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100)
        assert basis.index[0b0101] == 1

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


class TestReducedDensity:
    def test_bell_like_state(self):
        h = build_sector_hamiltonian(2, 1)
        state = propagate(h, initial_sector_state(2, 1), math.pi / 4)
        rho = reduced_density(state, 1)
        assert np.max(np.abs(rho.eigenvalues - 0.5)) < 1e-14

    def test_product_state(self):
        rho = reduced_density(initial_sector_state(4, 2), 2)
        assert abs(rho.eigenvalues[0] - 1.0) < 1e-14
        assert np.max(np.abs(rho.eigenvalues[1:])) < 1e-14

    def test_seven_site_rationals(self):
        h = build_sector_hamiltonian(7, 1)
        state = propagate(h, initial_sector_state(7, 1), math.pi / 7)
        rho = reduced_density(state, 1)
        assert abs(rho.eigenvalues[0] - 25.0 / 49.0) < 1e-9
        assert abs(rho.eigenvalues[1] - 24.0 / 49.0) < 1e-9

    def test_hermitian_unit_trace_psd(self):
        h = build_sector_hamiltonian(6, 3)
        state = propagate(h, initial_sector_state(6, 3), 1.234)
        rho = reduced_density(state, 3)
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-10
        assert rho.eigenvalues.min() > -1e-12

    def test_rank_bounded_by_amplitude_count(self):
        rng = np.random.default_rng(4)
        for n, m in ((6, 2), (8, 3), (10, 5)):
            h = build_sector_hamiltonian(n, m)
            psi0 = initial_sector_state(n, m)
            state = propagate(h, psi0, float(rng.uniform(0, 2 * math.pi)))
            eig = schmidt_eigenvalues(state, m)
            assert int((eig > 1e-12).sum()) <= min(m, n - m) + 1

    def test_nan_state_rejected(self):
        basis = sector_basis(4, 2)
        amplitudes = np.full(len(basis.states), np.nan, dtype=complex)
        with pytest.raises(ValueError, match="trace"):
            reduced_density(SectorState(basis, amplitudes), 2)

    def test_invalid_partition(self):
        state = initial_sector_state(4, 2)
        with pytest.raises(ValueError):
            reduced_density(state, 0)
        with pytest.raises(ValueError):
            reduced_density(state, 4)

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
        # both branches of the scatter: keep the first m sites (m <= n/2)
        # and keep the last n-m sites (m > n/2)
        state = _random_sector_state(n, m, seed=10 * n + m)
        full = np.zeros(1 << n, dtype=complex)
        full[list(state.basis.states)] = state.amplitudes
        # row index: bits of sites m..n-1, column index: bits of sites 0..m-1
        coefficients = full.reshape(1 << (n - m), 1 << m)
        rho_first = np.einsum("tk,tl->kl", coefficients, coefficients.conj())
        rho_last = np.einsum("kt,lt->kl", coefficients, coefficients.conj())
        assert np.max(np.abs(reduced_density(state, m).matrix - rho_first)) < 1e-12
        smaller = rho_first if m <= n - m else rho_last
        expected = np.linalg.eigvalsh(smaller)[::-1]
        eigenvalues = schmidt_eigenvalues(state, m)
        assert eigenvalues.shape == expected.shape
        assert np.max(np.abs(eigenvalues - expected)) < 1e-12


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
        "eigenvalues", [[math.nan, 0.0], [0.5, math.nan, 0.5], [math.nan]]
    )
    def test_nan_eigenvalue_gives_nan(self, eigenvalues):
        assert math.isnan(von_neumann_entropy(np.array(eigenvalues)))

    def test_accepts_reduced_density(self):
        rho = reduced_density(initial_sector_state(3, 1), 1)
        assert von_neumann_entropy(rho) < 1e-12


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
            eig = schmidt_eigenvalues(state, size)
            return np.full_like(eig, math.nan) if len(calls) == 2 else eig

        monkeypatch.setattr(oracle, "schmidt_eigenvalues", nan_at_second_sample)
        report = verify_closed_form(ModelSpec(4, 1), [0.0, 0.3, 0.7])
        assert math.isnan(report.max_spectrum_deviation)
        assert math.isnan(report.max_entropy_deviation)
        assert not report.passed

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
