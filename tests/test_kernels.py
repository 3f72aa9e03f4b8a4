from __future__ import annotations

import concurrent.futures
import os
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spinvdw import backend
from spinvdw.combinatorics import b_table, mode_frequencies, schmidt_multiplicities
from spinvdw.entanglement import NormalizationError, entropy_grid, exact_table
from spinvdw.evolution import amplitudes_at
from spinvdw.model import ModelSpec


def table_arrays(spec):
    """The kernel's float data for one spec, as ``entropy_grid`` passes it."""
    table = exact_table(spec)
    return table.array, table.phases, table.degeneracy


def test_kernel_matches_reference_amplitudes():
    spec = ModelSpec(6, 3)
    table = b_table(spec)
    coeffs, phases, degeneracy = table.array, table.phases, table.degeneracy
    taus = np.array([0.0, 0.37, 2.11])
    probs, _ = backend.schmidt_entropy_grid(coeffs, phases, degeneracy, taus)
    for i, tau in enumerate(taus):
        amps = amplitudes_at(spec, table, float(tau)).amplitudes
        expected = degeneracy * np.abs(amps) ** 2
        assert np.max(np.abs(probs[i] - expected)) < 1e-14


def test_zero_probability_entropy_guard():
    spec = ModelSpec(4, 1)
    coeffs, phases, degeneracy = table_arrays(spec)
    probs, entropies = backend.schmidt_entropy_grid(
        coeffs, phases, degeneracy, np.array([0.0])
    )
    assert np.isfinite(entropies).all()
    assert abs(entropies[0]) < 1e-12
    assert abs(probs[0, 0] - 1.0) < 1e-12


def test_table_float_data_cached_exact_and_read_only():
    spec = ModelSpec(6, 3)
    table = b_table(spec)
    arrays = (table.array, table.phases, table.degeneracy)
    assert all(a is b for a, b in zip(arrays, (table.array, table.phases, table.degeneracy)))
    assert [a.shape for a in arrays] == [(4, 4), (4,), (4,)]
    for array in arrays:
        assert array.dtype == np.float64
        assert array.flags.c_contiguous
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    # float == int compares exactly in Python
    assert table.phases.tolist() == list(mode_frequencies(spec))
    assert table.degeneracy.tolist() == list(schmidt_multiplicities(spec))


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
    inputs = table_arrays(ModelSpec(n_total, m_excited))
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


def _assert_memory_is_output_plus_block_buffers():
    inputs = table_arrays(ModelSpec(40, 20))
    taus = np.linspace(0.0, 10.0, 100_000)
    columns = inputs[1].size
    tracemalloc.start()
    try:
        probs, entropies = backend.schmidt_entropy_grid(*inputs, taus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each of at most MAX_WORKERS workers holds two (2 * BLOCK, M'+1) float64
    # buffers, plus a block's comparison mask
    allowance = 16 * BLOCK * columns * 8
    assert peak < probs.nbytes + entropies.nbytes + allowance


def test_memory_is_output_plus_one_block():
    _assert_memory_is_output_plus_block_buffers()


def report_cpus(monkeypatch, count):
    """Make the kernel see ``count`` available CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every thread pool the kernel starts."""
    sizes = []

    class RecordedPool(ThreadPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordedPool)
    return sizes


def test_memory_bound_holds_with_many_cpus(monkeypatch, pool_sizes):
    report_cpus(monkeypatch, 64)
    _assert_memory_is_output_plus_block_buffers()
    assert pool_sizes == [backend.MAX_WORKERS]


@pytest.mark.parametrize("length", [1, BLOCK, 3 * BLOCK + 1])
@pytest.mark.parametrize("n_total, m_excited", [(24, 12), (80, 40)])
def test_rows_do_not_depend_on_worker_count(monkeypatch, pool_sizes, n_total, m_excited, length):
    inputs = table_arrays(ModelSpec(n_total, m_excited))
    taus = np.random.default_rng(length).uniform(-20.0, 20.0, length)
    blocks = -(-length // BLOCK)
    results = {}
    for cpus in (1, 2, 64):
        report_cpus(monkeypatch, cpus)
        pool_sizes.clear()
        results[cpus] = backend.schmidt_entropy_grid(*inputs, taus)
        workers = min(cpus, blocks, backend.MAX_WORKERS)
        # one worker runs in the calling thread and starts no pool
        assert pool_sizes == ([] if workers == 1 else [workers])
    for cpus in (2, 64):
        assert np.array_equal(results[cpus][0], results[1][0])
        assert np.array_equal(results[cpus][1], results[1][1])


def test_concurrent_callers_under_fast_thread_switching(monkeypatch):
    # four callers with two workers each, switching threads every microsecond
    report_cpus(monkeypatch, 64)
    inputs = table_arrays(ModelSpec(24, 12))
    grids = [np.random.default_rng(seed).uniform(-20.0, 20.0, 3 * BLOCK + 1) for seed in range(4)]
    expected = [backend.schmidt_entropy_grid(*inputs, taus) for taus in grids]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(grids)) as callers:
            futures = [callers.submit(backend.schmidt_entropy_grid, *inputs, t) for t in grids]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for (probs, entropies), (want_probs, want_entropies) in zip(results, expected):
        assert np.array_equal(probs, want_probs)
        assert np.array_equal(entropies, want_entropies)


def test_cpu_count_fallback(monkeypatch, pool_sizes):
    inputs = table_arrays(ModelSpec(9, 4))
    taus = np.random.default_rng(4).uniform(-20.0, 20.0, 2 * BLOCK + 5)
    report_cpus(monkeypatch, 1)
    expected = backend.schmidt_entropy_grid(*inputs, taus)
    monkeypatch.delattr(os, "sched_getaffinity")
    asked = []

    def cpu_count():
        asked.append(True)
        return 2

    monkeypatch.setattr(os, "cpu_count", cpu_count)
    probs, entropies = backend.schmidt_entropy_grid(*inputs, taus)
    assert asked
    assert pool_sizes == [2]
    assert np.array_equal(probs, expected[0])
    assert np.array_equal(entropies, expected[1])


def test_worker_exception_raised_in_caller(monkeypatch, pool_sizes):
    report_cpus(monkeypatch, 2)
    coeffs, phases, degeneracy = table_arrays(ModelSpec(9, 4))
    malformed = np.ones((coeffs.shape[0] + 1, coeffs.shape[1]))
    taus = np.linspace(0.0, 1.0, 3 * BLOCK)
    with pytest.raises(ValueError):
        backend.schmidt_entropy_grid(malformed, phases, degeneracy, taus)
    assert pool_sizes == [2]


def test_overflow_in_worker_is_silent_and_rejected(monkeypatch, pool_sizes):
    # numpy's error state is per thread: each worker must set its own
    report_cpus(monkeypatch, 2)
    taus = np.linspace(0.0, 1.0, 2 * BLOCK + 1)
    taus[[10, -10]] = 1e308
    with warnings.catch_warnings(), pytest.raises(NormalizationError):
        warnings.simplefilter("error")
        entropy_grid(ModelSpec(9, 4), taus)
    assert pool_sizes == [2]


@pytest.mark.parametrize("length", [BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("n_total, m_excited", [(80, 40), (200, 100)])
def test_no_short_trailing_block(n_total, m_excited, length):
    # With M'+1 >= 32 a block of a few rows can take a BLAS kernel that rounds
    # unlike the one a full block takes; equal blocks keep every block long.
    inputs = table_arrays(ModelSpec(n_total, m_excited))
    taus = np.random.default_rng(3).uniform(-20.0, 20.0, 3 * BLOCK)
    full_probs, full_entropies = backend.schmidt_entropy_grid(*inputs, taus)
    probs, entropies = backend.schmidt_entropy_grid(*inputs, taus[:length])
    assert np.array_equal(probs, full_probs[:length])
    assert np.array_equal(entropies, full_entropies[:length])
