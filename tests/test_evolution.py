from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinvdw.combinatorics import b_table, schmidt_multiplicities
from spinvdw.evolution import amplitudes_at
from spinvdw.model import ModelSpec


def weighted_norm(spec, amplitudes) -> float:
    degeneracy = np.array(schmidt_multiplicities(spec), dtype=float)
    return float((degeneracy * np.abs(amplitudes) ** 2).sum())


class TestAmplitudesAt:
    def test_initial_product_state(self):
        for n in range(2, 11):
            for m_exc in range(0, n + 1):
                spec = ModelSpec(n, m_exc)
                amps = amplitudes_at(spec, b_table(spec), 0.0).amplitudes
                expected = np.zeros(spec.m_prime + 1)
                expected[0] = 1.0
                assert np.max(np.abs(amps - expected)) < 1e-15

    def test_two_site_half_transfer(self):
        spec = ModelSpec(2, 1)
        amps = amplitudes_at(spec, b_table(spec), math.pi / 4).amplitudes
        # C_1 = (1/2) e^{-i tau} - (1/2) e^{i tau} = -i sin(tau)
        assert abs(abs(amps[1]) ** 2 - 0.5) < 1e-15

    def test_six_site_probability(self):
        spec = ModelSpec(6, 1)
        amps = amplitudes_at(spec, b_table(spec), math.pi / 6).amplitudes
        assert abs(abs(amps[1]) ** 2 - 1.0 / 9.0) < 1e-14

    @pytest.mark.parametrize("n", range(2, 51))
    def test_single_excitation_closed_form(self, n):
        spec = ModelSpec(n, 1)
        table = b_table(spec)
        rng = np.random.default_rng(n)
        for tau in rng.uniform(0.0, 4.0 * math.pi, 5):
            amps = amplitudes_at(spec, table, tau).amplitudes
            expected = 4.0 / n**2 * math.sin(0.5 * n * tau) ** 2
            assert abs(abs(amps[1]) ** 2 - expected) < 1e-12

    def test_normalization_random_times(self):
        rng = np.random.default_rng(7)
        for n in range(2, 11):
            for m_exc in range(0, n + 1):
                spec = ModelSpec(n, m_exc)
                table = b_table(spec)
                for tau in rng.uniform(0.0, 4.0 * math.pi, 100):
                    amps = amplitudes_at(spec, table, tau).amplitudes
                    assert abs(weighted_norm(spec, amps) - 1.0) < 1e-12

    def test_table_spec_mismatch(self):
        with pytest.raises(ValueError):
            amplitudes_at(ModelSpec(5, 2), b_table(ModelSpec(4, 2)), 0.1)

    @pytest.mark.parametrize(
        "tau",
        [math.nan, math.inf, -math.inf, np.array([0.1, math.nan]), np.array([math.inf, 0.2])],
        ids=str,
    )
    def test_non_finite_tau_rejected(self, tau):
        spec = ModelSpec(4, 1)
        with pytest.raises(ValueError):
            amplitudes_at(spec, b_table(spec), tau)

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.integers(2, 12).flatmap(
            lambda n: st.builds(ModelSpec, st.just(n), st.integers(0, n))
        ),
        tau=st.one_of(
            st.floats(-1e3, 1e3), st.sampled_from([math.nan, math.inf, -math.inf])
        ),
    )
    def test_property_finite_tau_normalized_else_rejected(self, spec, tau):
        table = b_table(spec)
        if not math.isfinite(tau):
            with pytest.raises(ValueError):
                amplitudes_at(spec, table, tau)
            return
        amps = amplitudes_at(spec, table, tau).amplitudes
        assert abs(weighted_norm(spec, amps) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n,m", [(2, 1), (7, 1), (8, 3), (13, 6), (5, 5)])
    def test_stacked_rows_match_scalar_calls(self, n, m):
        spec = ModelSpec(n, m)
        table = b_table(spec)
        taus = np.random.default_rng(n).uniform(-4.0 * math.pi, 4.0 * math.pi, 9)
        stacked = amplitudes_at(spec, table, taus)
        assert stacked.amplitudes.shape == (9, spec.m_prime + 1)
        for tau, row in zip(taus, stacked.amplitudes):
            single = amplitudes_at(spec, table, tau)
            assert single.amplitudes.shape == (spec.m_prime + 1,)
            assert np.max(np.abs(single.amplitudes - row)) <= 1e-15

    def test_two_dimensional_tau_rejected(self):
        spec = ModelSpec(4, 2)
        with pytest.raises(ValueError, match="1-d"):
            amplitudes_at(spec, b_table(spec), np.array([[0.1, 0.2]]))

    def test_single_excitation_periodicity(self):
        rng = np.random.default_rng(3)
        for n in range(2, 13):
            spec = ModelSpec(n, 1)
            table = b_table(spec)
            tau = float(rng.uniform(0.0, 2.0 * math.pi))
            before = np.abs(amplitudes_at(spec, table, tau).amplitudes)
            after = np.abs(amplitudes_at(spec, table, tau + 2.0 * math.pi / n).amplitudes)
            assert np.max(np.abs(before - after)) < 1e-12
