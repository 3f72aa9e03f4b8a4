from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinvdw import entanglement
from spinvdw.combinatorics import b_table
from spinvdw.entanglement import (
    NormalizationError,
    SingularTimeError,
    critical_times_m1,
    entropy,
    entropy_grid,
    entropy_rate_m1,
    magic_number_scan,
    max_entropy_at_t2,
    schmidt_spectrum,
)
from spinvdw.evolution import AmplitudeVector, amplitudes_at
from spinvdw.model import ModelSpec


def binary_entropy(p: float) -> float:
    """Independent two-outcome entropy oracle."""
    total = 0.0
    for x in (p, 1.0 - p):
        if x > 0.0:
            total -= x * math.log2(x)
    return total


def spectrum_at(n: int, m: int, tau: float):
    spec = ModelSpec(n, m)
    return schmidt_spectrum(amplitudes_at(spec, b_table(spec), tau))


class TestSchmidtSpectrum:
    def test_two_site_balanced(self):
        probs = spectrum_at(2, 1, math.pi / 4).probabilities
        assert np.max(np.abs(probs - 0.5)) < 1e-12

    def test_initial_product_state(self):
        for n in (2, 5, 9):
            probs = spectrum_at(n, 1, 0.0).probabilities
            assert abs(probs[0] - 1.0) < 1e-12
            assert probs[1] < 1e-12

    def test_seven_site_rationals(self):
        probs = spectrum_at(7, 1, math.pi / 7).probabilities
        assert abs(probs[0] - 25.0 / 49.0) < 1e-12
        assert abs(probs[1] - 24.0 / 49.0) < 1e-12

    def test_unnormalized_input_rejected(self):
        spec = ModelSpec(2, 1)
        bad = AmplitudeVector(spec, 0.0, np.array([0.9, 0.1], dtype=complex))
        with pytest.raises(NormalizationError):
            schmidt_spectrum(bad)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_amplitudes_rejected(self):
        # tau * phase overflows to inf and cos(inf) is NaN
        # ... silently: a numpy warning would reach stderr beside the error
        spec = ModelSpec(4, 1)
        with warnings.catch_warnings(), pytest.raises(NormalizationError):
            warnings.simplefilter("error")
            schmidt_spectrum(amplitudes_at(spec, b_table(spec), 1e308))


class TestEntropy:
    def test_uniform_two_outcomes(self):
        assert entropy((0.5, 0.5)) == 1.0

    def test_pure_state(self):
        assert entropy((1.0, 0.0)) == 0.0

    def test_seven_site_maximum(self):
        value = entropy((24.0 / 49.0, 25.0 / 49.0))
        assert abs(value - 0.9997) < 5e-5

    def test_accepts_spectrum_objects(self):
        spectrum = spectrum_at(2, 1, math.pi / 4)
        assert abs(entropy(spectrum) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "probs",
        [(math.nan, 0.0), (0.5, math.nan, 0.5), (math.nan,), (math.inf, 0.0), (-math.inf, 1.0)],
    )
    def test_nan_probability_gives_nan(self, probs):
        assert math.isnan(entropy(probs))


class TestEntropySeries:
    def test_two_site_values(self):
        probs, entropies = entropy_grid(ModelSpec(2, 1), [0.0, math.pi / 4])
        assert np.max(np.abs(probs - [[1.0, 0.0], [0.5, 0.5]])) < 1e-12
        assert abs(entropies[0] - 0.0) < 1e-12
        assert abs(entropies[1] - 1.0) < 1e-12

    def test_three_site_reaches_one_ebit(self):
        taus = np.linspace(0.0, 2.0 * math.pi / 3.0, 4097)
        _, entropies = entropy_grid(ModelSpec(3, 1), taus)
        assert abs(entropies.max() - 1.0) < 1e-6

    def test_eight_site_stays_below_one_ebit(self):
        taus = np.linspace(0.0, 2.0 * math.pi / 8.0, 4097)
        _, entropies = entropy_grid(ModelSpec(8, 1), taus)
        assert entropies.max() < 0.99
        assert entropies.max() > 0.98

    def test_probabilities_sum_to_one_and_entropy_in_range(self):
        rng = np.random.default_rng(11)
        for n in range(2, 11):
            for m_exc in range(0, n + 1):
                spec = ModelSpec(n, m_exc)
                taus = rng.uniform(0.0, 4.0 * math.pi, 32)
                probs, entropies = entropy_grid(spec, taus)
                assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12
                assert entropies.min() >= 0.0
                assert entropies.max() <= math.log2(spec.m_prime + 1) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.integers(2, 12).flatmap(
            lambda n: st.builds(ModelSpec, st.just(n), st.integers(0, n))
        ),
        taus=st.lists(st.floats(-1e3, 1e3), max_size=16),
        bad=st.sampled_from([None, math.nan, math.inf, -math.inf]),
        bad_at=st.integers(0, 16),
    )
    @example(spec=ModelSpec(2, 1), taus=[], bad=None, bad_at=0)
    def test_property_finite_grid_normalized_else_rejected(self, spec, taus, bad, bad_at):
        if bad is not None:
            taus.insert(min(bad_at, len(taus)), bad)
        if bad is not None or not taus:
            with pytest.raises(ValueError):
                entropy_grid(spec, taus)
            return
        probs, entropies = entropy_grid(spec, taus)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12
        assert entropies.min() >= 0.0
        assert entropies.max() <= math.log2(spec.m_prime + 1) + 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_phase_rejected(self):
        # a finite tau whose phase overflows gives NaN probabilities, silently
        with warnings.catch_warnings(), pytest.raises(NormalizationError):
            warnings.simplefilter("error")
            entropy_grid(ModelSpec(4, 1), [0.0, 1e308])

    def test_single_excitation_probability_closed_form(self):
        rng = np.random.default_rng(5)
        for n in range(2, 51):
            spec = ModelSpec(n, 1)
            taus = rng.uniform(0.0, 4.0 * math.pi, 8)
            probs, _ = entropy_grid(spec, taus)
            expected = 4.0 * (n - 1) / n**2 * np.sin(0.5 * n * taus) ** 2
            assert np.max(np.abs(probs[:, 1] - expected)) < 1e-12

    def test_balanced_probabilities_at_entropy_argmax(self):
        # the grid argmax of the entropy must carry the least-different
        # Schmidt probabilities
        for n in (2, 5, 7):
            taus = np.linspace(0.0, 2.0 * math.pi / n, 2049)
            probs, entropies = entropy_grid(ModelSpec(n, 1), taus)
            gap = np.abs(probs[:, 1] - probs[:, 0])
            assert gap[int(np.argmax(entropies))] <= gap.min() + 1e-15


class TestEntropyRate:
    def test_two_site_maximum_is_stationary(self):
        assert abs(entropy_rate_m1(ModelSpec(2, 1), math.pi / 4)) < 1e-10

    def test_four_site_root_of_log_bracket(self):
        tau_prime = critical_times_m1(ModelSpec(4, 1)).t_prime
        assert abs(entropy_rate_m1(ModelSpec(4, 1), tau_prime)) < 1e-10

    def test_ten_site_half_period_is_stationary(self):
        assert abs(entropy_rate_m1(ModelSpec(10, 1), math.pi / 10)) < 1e-10

    def test_singular_at_period_multiples(self):
        with pytest.raises(SingularTimeError):
            entropy_rate_m1(ModelSpec(5, 1), 2.0 * math.pi / 5.0)
        with pytest.raises(SingularTimeError):
            entropy_rate_m1(ModelSpec(5, 1), 0.0)

    def test_multi_excitation_rejected(self):
        with pytest.raises(ValueError):
            entropy_rate_m1(ModelSpec(4, 2), 0.3)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            entropy_rate_m1(ModelSpec(5, 1), tau)

    def test_matches_finite_difference(self):
        step = 1e-6
        rng = np.random.default_rng(23)
        for n in range(2, 13):
            spec = ModelSpec(n, 1)
            period = 2.0 * math.pi / n
            taus = rng.uniform(0.02 * period, 0.98 * period, 50)
            # keep clear of the cusp at 0/period and, for n=2, of the
            # complete-transfer point at period/2 where P_1 = 1
            taus = taus[np.abs(taus - 0.5 * period) > 0.02 * period]
            for tau in taus:
                _, ents = entropy_grid(spec, np.array([tau - step, tau + step]))
                difference = (ents[1] - ents[0]) / (2.0 * step)
                assert abs(entropy_rate_m1(spec, float(tau)) - difference) < 1e-6


class TestCriticalTimes:
    def test_two_site(self):
        crit = critical_times_m1(ModelSpec(2, 1))
        assert crit.t_prime == math.pi / 4
        assert crit.e_at_t_prime == 1.0
        assert crit.e_at_t_double_prime == 0.0

    def test_six_site_boundary_case(self):
        crit = critical_times_m1(ModelSpec(6, 1))
        assert crit.t_prime is not None
        _, ents = entropy_grid(ModelSpec(6, 1), np.array([crit.t_prime]))
        assert abs(ents[0] - 1.0) < 1e-12

    def test_seven_site_has_no_unit_root(self):
        crit = critical_times_m1(ModelSpec(7, 1))
        assert crit.t_prime is None
        assert crit.e_at_t_prime is None
        assert crit.t_double_prime == math.pi / 7

    def test_existence_set_is_exact(self):
        for n in range(2, 41):
            crit = critical_times_m1(ModelSpec(n, 1))
            assert (crit.t_prime is not None) == (n * n <= 8 * (n - 1)) == (n <= 6)

    def test_multi_excitation_rejected(self):
        with pytest.raises(ValueError):
            critical_times_m1(ModelSpec(4, 2))


class TestMaxEntropyAtT2:
    def test_seven_site_value(self):
        assert abs(max_entropy_at_t2(ModelSpec(7, 1)) - 0.9997) < 5e-5

    def test_matches_direct_evaluation(self):
        for n in range(3, 40):
            spec = ModelSpec(n, 1)
            _, ents = entropy_grid(spec, np.array([math.pi / n]))
            assert abs(max_entropy_at_t2(spec) - ents[0]) < 1e-12

    def test_three_site_binary_entropy(self):
        assert abs(max_entropy_at_t2(ModelSpec(3, 1)) - binary_entropy(1.0 / 9.0)) < 1e-12

    def test_two_site_complete_swap(self):
        assert max_entropy_at_t2(ModelSpec(2, 1)) == 0.0

    def test_monotone_decrease(self):
        values = [max_entropy_at_t2(ModelSpec(n, 1)) for n in range(7, 201)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestMagicNumberScan:
    def test_unit_entanglement_through_six_sites(self):
        rows = magic_number_scan(6)
        assert [row.n_total for row in rows] == [2, 3, 4, 5, 6]
        for row in rows:
            assert row.max_entropy == 1.0
            assert row.t_prime is not None
            assert abs(row.grid_max_entropy - 1.0) < 1e-10

    def test_seven_site_maximum(self):
        row = magic_number_scan(7)[-1]
        assert row.t_prime is None
        assert abs(row.max_entropy - 0.9997) < 5e-5
        assert row.argmax_tau == row.t_double_prime

    def test_strictly_decreasing_past_six(self):
        rows = {row.n_total: row for row in magic_number_scan(20)}
        assert rows[20].max_entropy < rows[19].max_entropy

    def test_grid_agrees_with_analytic(self):
        for row in magic_number_scan(12):
            assert abs(row.grid_max_entropy - row.max_entropy) < 1e-8

    def test_zoom_refinement_reaches_analytic_maximum(self):
        for row in magic_number_scan(200):
            assert abs(row.grid_max_entropy - row.max_entropy) <= 1e-12

    def test_kernel_calls_per_size(self, monkeypatch):
        calls = {}
        true_grid = entanglement.entropy_grid

        def counted(spec, tau_grid):
            probs, entropies = true_grid(spec, tau_grid)
            calls.setdefault(spec.n_total, []).append(entropies.size)
            return probs, entropies

        monkeypatch.setattr(entanglement, "entropy_grid", counted)
        magic_number_scan(30)
        assert sorted(calls) == list(range(2, 31))
        for sizes in calls.values():
            assert len(sizes) <= 8
            assert sizes.count(1) == 1

    def test_small_n_max_rejected(self):
        with pytest.raises(ValueError):
            magic_number_scan(1)
