from __future__ import annotations

import numpy as np

from spinvdw import backend
from spinvdw.combinatorics import b_table, schmidt_multiplicities
from spinvdw.evolution import amplitudes_at, phase_spectrum
from spinvdw.model import ModelSpec


def kernel_inputs(spec: ModelSpec):
    coeffs = np.ascontiguousarray(b_table(spec).as_array())
    phases = np.ascontiguousarray(phase_spectrum(spec).phases, dtype=float)
    degeneracy = np.ascontiguousarray(schmidt_multiplicities(spec), dtype=float)
    return coeffs, phases, degeneracy


def test_kernel_matches_reference_amplitudes():
    spec = ModelSpec(6, 3)
    table = b_table(spec)
    coeffs, phases, degeneracy = kernel_inputs(spec)
    taus = np.array([0.0, 0.37, 2.11])
    probs, _ = backend.schmidt_entropy_grid(coeffs, phases, degeneracy, taus)
    for i, tau in enumerate(taus):
        amps = amplitudes_at(spec, table, float(tau)).amplitudes
        expected = degeneracy * np.abs(amps) ** 2
        assert np.max(np.abs(probs[i] - expected)) < 1e-14


def test_zero_probability_entropy_guard():
    spec = ModelSpec(4, 1)
    coeffs, phases, degeneracy = kernel_inputs(spec)
    probs, entropies = backend.schmidt_entropy_grid(
        coeffs, phases, degeneracy, np.array([0.0])
    )
    assert np.isfinite(entropies).all()
    assert abs(entropies[0]) < 1e-12
    assert abs(probs[0, 0] - 1.0) < 1e-12
