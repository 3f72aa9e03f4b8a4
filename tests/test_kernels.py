from __future__ import annotations

import tracemalloc

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


def _complex_reference(b, phases, degeneracy, taus):
    """The kernel's formula written directly in complex arithmetic."""
    angles = np.multiply.outer(taus, phases)
    amps = (np.cos(angles) + 1j * np.sin(angles)) @ b.T
    probs = degeneracy * np.abs(amps) ** 2
    kept = np.where(probs > backend.ZERO_CUTOFF, probs, 1.0)
    return probs, -(kept * np.log2(kept)).sum(axis=1)


BLOCK = backend.BLOCK_ROWS


@pytest.mark.parametrize("length", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("n_total, m_excited", [(2, 1), (9, 4), (24, 12)])
def test_block_boundaries_do_not_change_rows(n_total, m_excited, length):
    inputs = kernel_inputs(ModelSpec(n_total, m_excited))
    taus = np.random.default_rng(length).uniform(-20.0, 20.0, length)
    probs, entropies = backend.schmidt_entropy_grid(*inputs, taus)
    assert probs.shape == (length, inputs[1].size)
    assert entropies.shape == (length,)
    # every row next to a block boundary or a grid end, and a stride between
    boundaries = [*range(0, length, BLOCK), length]
    edges = {k + d for k in boundaries for d in range(-3, 3)}
    rows = sorted({*range(0, length, 61), *edges} & set(range(length)))
    for i in rows:
        row_probs, row_entropy = backend.schmidt_entropy_grid(*inputs, taus[i : i + 1])
        assert np.array_equal(row_probs[0], probs[i]), i
        assert np.array_equal(row_entropy[0], entropies[i]), i
    ref_probs, ref_entropies = _complex_reference(*inputs, taus)
    assert np.max(np.abs(probs - ref_probs)) < 1e-14
    assert np.max(np.abs(entropies - ref_entropies)) < 1e-14


def test_memory_is_output_plus_one_block():
    inputs = kernel_inputs(ModelSpec(40, 20))
    taus = np.linspace(0.0, 10.0, 100_000)
    columns = inputs[1].size
    tracemalloc.start()
    try:
        probs, entropies = backend.schmidt_entropy_grid(*inputs, taus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a block's temporaries: a handful of (BLOCK, M'+1) float64 arrays
    allowance = 16 * BLOCK * columns * 8
    assert peak < probs.nbytes + entropies.nbytes + allowance


@pytest.mark.parametrize("length", [BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("n_total, m_excited", [(80, 40), (200, 100)])
def test_no_short_trailing_block(n_total, m_excited, length):
    # With M'+1 >= 32 a block of a few rows can take a BLAS kernel that rounds
    # unlike the one a full block takes; equal blocks keep every block long.
    inputs = kernel_inputs(ModelSpec(n_total, m_excited))
    taus = np.random.default_rng(3).uniform(-20.0, 20.0, 3 * BLOCK)
    full_probs, full_entropies = backend.schmidt_entropy_grid(*inputs, taus)
    probs, entropies = backend.schmidt_entropy_grid(*inputs, taus[:length])
    assert np.array_equal(probs, full_probs[:length])
    assert np.array_equal(entropies, full_entropies[:length])
