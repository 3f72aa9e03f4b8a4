from __future__ import annotations

import numpy as np
import pytest

from spinvdw import backend
from spinvdw.combinatorics import b_table
from spinvdw.entanglement import kernel_inputs
from spinvdw.evolution import amplitudes_at
from spinvdw.model import ModelSpec


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


def test_kernel_inputs_cached_and_read_only():
    arrays = kernel_inputs(ModelSpec(6, 3))
    assert kernel_inputs(ModelSpec(6, 3)) is arrays
    assert [a.shape for a in arrays] == [(4, 4), (4,), (4,)]
    for array in arrays:
        assert array.dtype == np.float64
        assert array.flags.c_contiguous
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
