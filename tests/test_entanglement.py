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
        probs = spectrum_at(2, 1, math.pi / 4)
        assert np.max(np.abs(probs - 0.5)) < 1e-12

    def test_initial_product_state(self):
        for n in (2, 5, 9):
            probs = spectrum_at(n, 1, 0.0)
            assert abs(probs[0] - 1.0) < 1e-12
            assert probs[1] < 1e-12

    def test_seven_site_rationals(self):
        probs = spectrum_at(7, 1, math.pi / 7)
        assert abs(probs[0] - 25.0 / 49.0) < 1e-12
        assert abs(probs[1] - 24.0 / 49.0) < 1e-12

    def test_unnormalized_input_rejected(self):
        spec = ModelSpec(2, 1)
        bad = AmplitudeVector(b_table(spec), np.array([0.9, 0.1], dtype=complex))
        with pytest.raises(NormalizationError):
            schmidt_spectrum(bad)

    def test_stack_rows_match_single_spectra(self):
        spec = ModelSpec(9, 4)
        table = b_table(spec)
        taus = np.linspace(0.0, 3.0, 7)
        stacked = schmidt_spectrum(amplitudes_at(spec, table, taus))
        assert stacked.shape == (7, spec.m_prime + 1)
        for tau, row in zip(taus, stacked):
            single = schmidt_spectrum(amplitudes_at(spec, table, tau))
            assert np.max(np.abs(single - row)) <= 1e-15

    @pytest.mark.parametrize("row", [0, 3, 6])
    @pytest.mark.parametrize("fault", ["drift", "nan"])
    def test_stack_with_one_bad_row_rejected(self, row, fault):
        spec = ModelSpec(9, 4)
        table = b_table(spec)
        taus = np.linspace(0.0, 3.0, 7)
        amplitudes = amplitudes_at(spec, table, taus).amplitudes.copy()
        if fault == "drift":
            amplitudes[row] *= 1.0 + 1e-8  # sum(P) drifts by 2e-8
        else:
            amplitudes[row, 1] = math.nan
        with pytest.raises(NormalizationError):
            schmidt_spectrum(AmplitudeVector(table, amplitudes))

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

    def test_accepts_the_schmidt_spectrum_array(self):
        spectrum = spectrum_at(2, 1, math.pi / 4)
        assert isinstance(spectrum, np.ndarray) and spectrum.shape == (2,)
        assert abs(entropy(spectrum) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "probs",
        [(math.nan, 0.0), (0.5, math.nan, 0.5), (math.nan,), (math.inf, 0.0), (-math.inf, 1.0)],
    )
    def test_nan_probability_gives_nan(self, probs):
        assert math.isnan(entropy(probs))


    def test_stack_is_nan_only_in_non_finite_rows(self):
        rows = np.array(
            [[0.5, 0.5], [math.nan, 0.5], [1.0, 0.0], [math.inf, 0.0], [0.25, 0.75], [0.0, 0.0]]
        )
        values = entropy(rows)
        assert values.shape == (6,)
        assert np.isnan(values).tolist() == [False, True, False, True, False, False]
        for row, value in zip(rows, values):
            single = entropy(row)
            assert isinstance(single, float)
            assert single == value or (math.isnan(single) and math.isnan(value))


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

    @pytest.mark.parametrize("n, m", [(7, 1), (9, 4), (13, 6), (30, 11), (80, 40)])
    def test_probabilities_mirror_about_half_a_period(self, n, m):
        # the table is real and the frequencies are congruent modulo g, so
        # P_m(tau) = P_m(2 pi/g - tau), with g = N at M' = 1 and gcd(N, 2)
        # above; the maxima scan searches [0, pi/N] only
        spec = ModelSpec(n, m)
        g = n if spec.m_prime == 1 else math.gcd(n, 2)
        taus = np.random.default_rng(n).uniform(0.0, 2.0 * math.pi / g, 256)
        probs, _ = entropy_grid(spec, taus)
        mirrored, _ = entropy_grid(spec, 2.0 * math.pi / g - taus)
        assert np.max(np.abs(probs - mirrored)) < 1e-13


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

    @pytest.mark.parametrize("tau", [1e308, -1e308])
    def test_overflowing_cycle_count_rejected(self, tau):
        # tau is finite and N * tau is not, so the cycle count cannot be rounded
        with pytest.raises(ValueError, match="N \\* tau"):
            entropy_rate_m1(ModelSpec(7, 1), tau)

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

    def test_grid_disagreement_raises(self, monkeypatch):
        def short_of_analytic(spec):
            return max_entropy_at_t2(spec) - 1e-6, math.pi / spec.n_total

        monkeypatch.setattr(entanglement, "_refined_grid_max", short_of_analytic)
        with pytest.raises(ArithmeticError, match="N=7"):
            magic_number_scan(7, 7)

    def test_small_n_max_rejected(self):
        with pytest.raises(ValueError):
            magic_number_scan(1)

    def test_range_start(self):
        assert magic_number_scan(12, 9) == magic_number_scan(12)[7:]
        for n_max, n_min in ((4, 5), (4, 1)):
            with pytest.raises(ValueError):
                magic_number_scan(n_max, n_min)


def test_one_entry_table_cache_serves_runs_of_one_spec(monkeypatch):
    built = []

    def counted(spec):
        built.append(spec)
        return b_table(spec)

    monkeypatch.setattr(entanglement, "b_table", counted)
    entanglement.exact_table.cache_clear()
    magic_number_scan(30)
    assert built == [ModelSpec(n, 1) for n in range(2, 31)]
    built.clear()
    taus = np.linspace(0.0, 3.0, 17)
    specs = [ModelSpec(200, 1), ModelSpec(40, 20), ModelSpec(9, 4)]
    for spec in specs:
        for grid in (taus, taus[::-1]):
            entropy_grid(spec, grid)
    assert built == specs
