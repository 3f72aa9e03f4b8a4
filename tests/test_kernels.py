from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from spinvdw import backend
from spinvdw.combinatorics import b_table, mode_frequencies, schmidt_multiplicities
from spinvdw.cli import main
from spinvdw.entanglement import NormalizationError, entropy_grid, exact_table, magic_number_scan
from spinvdw.evolution import amplitudes_at
from spinvdw.model import ModelSpec
from spinvdw.oracle import verify_closed_form


def table_arrays(spec):
    """The kernel's float data for one spec, as ``entropy_grid`` passes it."""
    table = exact_table(spec)
    return table.array, table.phases, table.degeneracy


def test_kernel_matches_reference_amplitudes():
    spec = ModelSpec(6, 3)
    table = b_table(spec)
    coeffs, phases, degeneracy = table.array, table.phases, table.degeneracy
    taus = np.array([0.0, 0.37, 2.11])
    probs, _, _ = backend.schmidt_entropy_grid(coeffs, phases, degeneracy, taus)
    for i, tau in enumerate(taus):
        amps = amplitudes_at(spec, table, float(tau)).amplitudes
        expected = degeneracy * np.abs(amps) ** 2
        assert np.max(np.abs(probs[i] - expected)) < 1e-14


def test_zero_probability_entropy_guard():
    spec = ModelSpec(4, 1)
    coeffs, phases, degeneracy = table_arrays(spec)
    probs, entropies, _ = backend.schmidt_entropy_grid(
        coeffs, phases, degeneracy, np.array([0.0])
    )
    assert np.isfinite(entropies).all()
    assert abs(entropies[0]) < 1e-12
    assert abs(probs[0, 0] - 1.0) < 1e-12


@pytest.mark.parametrize("n_total, m_excited", [(6, 3), (24, 12)])
def test_rows_at_the_half_angle_tangent_poles(n_total, m_excited):
    # the kernel takes cos and sin of tau*phi from tan(tau*phi / 2), which has
    # a pole where tau*phi / 2 is an odd multiple of pi/2: times on and one ulp
    # beside tau*phi = pi and 3 pi, for every nonzero phase, and tau = 0
    inputs = table_arrays(ModelSpec(n_total, m_excited))
    centres = [k * np.pi / phi for phi in inputs[1] if phi != 0 for k in (1, 3)]
    taus = np.array([0.0] + [
        t for c in centres for t in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf))
    ])
    probs, entropies, drift = backend.schmidt_entropy_grid(*inputs, taus)
    assert np.isfinite(probs).all() and np.isfinite(entropies).all()
    assert drift < 1e-13
    ref_probs, ref_entropies = _complex_reference(*inputs, taus)
    assert np.max(np.abs(probs - ref_probs)) < 1e-14
    assert np.max(np.abs(entropies - ref_entropies)) < 1e-14


def test_overflowing_angle_with_finite_half_is_nan_and_rejected():
    # tau * phi overflows although tau * phi / 2 does not: the angle is halved
    # after the product, so the row is NaN rather than the tangent's row at a
    # finite half angle
    spec = ModelSpec(9, 4)
    inputs = table_arrays(spec)
    phi = float(np.abs(inputs[1]).max())
    tau = 1.5 * (sys.float_info.max / phi)
    assert math.isinf(tau * phi) and math.isfinite(tau / 2 * phi)
    taus = np.array([0.0, tau, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs, _, drift = backend.schmidt_entropy_grid(*inputs, taus)
        assert np.isnan(drift)
        assert np.isnan(probs[1]).any() and np.isfinite(probs[[0, 2]]).all()
        with pytest.raises(NormalizationError, match="drift nan"):
            entropy_grid(spec, taus)


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


def block_rows(inputs):
    """The kernel's rows per block for these inputs: as many as fit
    ``BLOCK_BYTES`` at 16 bytes per row and mode."""
    return max(1, backend.BLOCK_BYTES // (16 * inputs[1].size))


# Grid lengths in the parametrizations below are written for blocks of
# LENGTH_UNIT rows: 8193 is a block and a row, 8191 a block less one row.
LENGTH_UNIT = 8192


def grid_length(inputs, length):
    """``length``, written in LENGTH_UNIT-row blocks, in these inputs'
    blocks: the nearest whole number of units becomes that many blocks."""
    blocks = round(length / LENGTH_UNIT)
    return blocks * block_rows(inputs) + length - blocks * LENGTH_UNIT


def report_cpus(monkeypatch, count):
    """Make the kernel see ``count`` available CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def worker_counts(monkeypatch):
    """The worker count (the calling thread plus the threads it starts) of
    every kernel call that starts a thread."""
    counts, started = [], []
    kernel, start = backend.schmidt_entropy_grid, threading.Thread.start

    def recorded_start(thread):
        started.append(thread)
        start(thread)

    def recorded_kernel(*args):
        started.clear()
        try:
            return kernel(*args)
        finally:
            if started:
                counts.append(1 + len(started))

    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    monkeypatch.setattr(backend, "schmidt_entropy_grid", recorded_kernel)
    return counts


def _assert_rows_match_single_row_calls(inputs, length):
    taus = np.random.default_rng(length).uniform(-20.0, 20.0, length)
    probs, entropies, _ = backend.schmidt_entropy_grid(*inputs, taus)
    assert probs.shape == (length, inputs[1].size)
    assert entropies.shape == (length,)
    # every row next to a block boundary or a grid end, and a stride between;
    # the kernel cuts the grid into ceil(length / block) equal blocks
    blocks = -(-length // block_rows(inputs))
    boundaries = [length * k // blocks for k in range(blocks + 1)]
    edges = {k + d for k in boundaries for d in range(-3, 3)}
    rows = sorted({*range(0, length, 61), *edges} & set(range(length)))
    for i in rows:
        row_probs, row_entropy, _ = backend.schmidt_entropy_grid(*inputs, taus[i : i + 1])
        assert np.array_equal(row_probs[0], probs[i]), i
        assert np.array_equal(row_entropy[0], entropies[i]), i
    ref_probs, ref_entropies = _complex_reference(*inputs, taus)
    assert np.max(np.abs(probs - ref_probs)) < 1e-14
    assert np.max(np.abs(entropies - ref_entropies)) < 1e-14


@pytest.mark.parametrize("length", [1, 8191, 8192, 8193, 16387])
@pytest.mark.parametrize("n_total, m_excited", [(2, 1), (9, 4), (24, 12)])
def test_block_boundaries_do_not_change_rows(monkeypatch, worker_counts, n_total, m_excited, length):
    # a grid of one block's rows runs in the calling thread, one row more is two blocks
    report_cpus(monkeypatch, 2)
    inputs = table_arrays(ModelSpec(n_total, m_excited))
    length = grid_length(inputs, length)
    _assert_rows_match_single_row_calls(inputs, length)
    assert worker_counts == ([] if length <= block_rows(inputs) else [2])


def kernel_allowance(inputs, blocks):
    """Bytes the kernel may hold besides its output, for a grid of
    ``blocks`` full blocks."""
    # Each of at most MAX_WORKERS workers holds two buffers of at most
    # BLOCK_BYTES and, one at a time, either a block's comparison mask or the
    # iterator buffers numpy takes for a broadcast product (two of
    # getbufsize() floats, and a little); the helper thread takes a few KiB,
    # within 64 KiB, and the block list a few hundred bytes a block.  None of
    # it grows with M'+1.
    transient = max(block_rows(inputs) * inputs[1].size, 2 * 8 * np.getbufsize() + 4096)
    allowance = backend.MAX_WORKERS * (2 * backend.BLOCK_BYTES + transient)
    return allowance + 65536 + 256 * blocks


def traced_peak(call, *args):
    """``call(*args)`` and the peak of the memory tracemalloc sees during it."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_memory_is_output_plus_block_buffers(spec):
    inputs = table_arrays(spec)
    # 48 full blocks: every buffer is as large as the budget allows
    taus = np.linspace(0.0, 10.0, 48 * block_rows(inputs))
    (probs, entropies, _), peak = traced_peak(backend.schmidt_entropy_grid, *inputs, taus)
    assert peak < probs.nbytes + entropies.nbytes + kernel_allowance(inputs, 48)


def test_memory_is_output_plus_one_block():
    # one fixed allowance at M'+1 = 2, 41 and 101
    for spec in (ModelSpec(40, 1), ModelSpec(80, 40), ModelSpec(200, 100)):
        _assert_memory_is_output_plus_block_buffers(spec)


# M'+1 = 2 and 41
@pytest.mark.parametrize("n_total, m_excited", [(40, 1), (80, 40)])
def test_entropy_grid_memory_is_kernel_memory(monkeypatch, n_total, m_excited):
    # the kernel measures the normalization drift in its block pass, so the
    # check adds nothing to its output and block buffers
    report_cpus(monkeypatch, 2)
    spec = ModelSpec(n_total, m_excited)
    inputs = table_arrays(spec)
    taus = np.linspace(0.0, 10.0, 48 * block_rows(inputs))
    (probs, entropies), peak = traced_peak(entropy_grid, spec, taus)
    assert peak < probs.nbytes + entropies.nbytes + kernel_allowance(inputs, 48)


# M'+1 = 2 and 41, a one-block and a four-block grid, one and two workers
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("blocks", [1, 4])
@pytest.mark.parametrize("n_total, m_excited", [(40, 1), (80, 40)])
def test_drift_is_max_row_sum_deviation(monkeypatch, worker_counts, n_total, m_excited, blocks, cpus):
    report_cpus(monkeypatch, cpus)
    inputs = table_arrays(ModelSpec(n_total, m_excited))
    taus = np.random.default_rng(blocks).uniform(-20.0, 20.0, blocks * block_rows(inputs))
    probs, _, drift = backend.schmidt_entropy_grid(*inputs, taus)
    assert type(drift) is float
    assert drift == np.abs(probs.sum(1) - 1).max()
    assert worker_counts == ([] if min(cpus, blocks) == 1 else [2])


def test_memory_bound_holds_with_many_cpus(monkeypatch, worker_counts):
    report_cpus(monkeypatch, 64)
    _assert_memory_is_output_plus_block_buffers(ModelSpec(80, 40))
    assert worker_counts == [backend.MAX_WORKERS]


@pytest.mark.parametrize("length", [1, 8192, 24577])
@pytest.mark.parametrize("n_total, m_excited", [(24, 12), (80, 40)])
def test_rows_do_not_depend_on_worker_count(monkeypatch, worker_counts, n_total, m_excited, length):
    inputs = table_arrays(ModelSpec(n_total, m_excited))
    length = grid_length(inputs, length)
    taus = np.random.default_rng(length).uniform(-20.0, 20.0, length)
    blocks = -(-length // block_rows(inputs))
    results = {}
    for cpus in (1, 2, 64):
        report_cpus(monkeypatch, cpus)
        worker_counts.clear()
        results[cpus] = backend.schmidt_entropy_grid(*inputs, taus)
        workers = min(cpus, blocks, backend.MAX_WORKERS)
        # one worker runs in the calling thread and starts no thread
        assert worker_counts == ([] if workers == 1 else [workers])
    for cpus in (2, 64):
        assert np.array_equal(results[cpus][0], results[1][0])
        assert np.array_equal(results[cpus][1], results[1][1])


def test_concurrent_callers_under_fast_thread_switching(monkeypatch):
    # four callers with two workers each, switching threads every microsecond
    report_cpus(monkeypatch, 64)
    inputs = table_arrays(ModelSpec(24, 12))
    length = 3 * block_rows(inputs) + 1
    grids = [np.random.default_rng(seed).uniform(-20.0, 20.0, length) for seed in range(4)]
    expected = [backend.schmidt_entropy_grid(*inputs, taus) for taus in grids]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(grids)) as callers:
            futures = [callers.submit(backend.schmidt_entropy_grid, *inputs, t) for t in grids]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for (probs, entropies, _), (want_probs, want_entropies, _) in zip(results, expected):
        assert np.array_equal(probs, want_probs)
        assert np.array_equal(entropies, want_entropies)


def test_cpu_count_fallback(monkeypatch, worker_counts):
    inputs = table_arrays(ModelSpec(9, 4))
    taus = np.random.default_rng(4).uniform(-20.0, 20.0, 2 * block_rows(inputs) + 5)
    report_cpus(monkeypatch, 1)
    expected = backend.schmidt_entropy_grid(*inputs, taus)
    monkeypatch.delattr(os, "sched_getaffinity")
    asked = []

    def cpu_count():
        asked.append(True)
        return 2

    monkeypatch.setattr(os, "cpu_count", cpu_count)
    probs, entropies, _ = backend.schmidt_entropy_grid(*inputs, taus)
    assert asked
    assert worker_counts == [2]
    assert np.array_equal(probs, expected[0])
    assert np.array_equal(entropies, expected[1])


def test_worker_exception_raised_in_caller(monkeypatch, worker_counts):
    report_cpus(monkeypatch, 2)
    coeffs, phases, degeneracy = table_arrays(ModelSpec(9, 4))
    malformed = np.ones((coeffs.shape[0] + 1, coeffs.shape[1]))
    taus = np.linspace(0.0, 1.0, 3 * block_rows((coeffs, phases)))
    with pytest.raises(ValueError):
        backend.schmidt_entropy_grid(malformed, phases, degeneracy, taus)
    assert worker_counts == [2]


@pytest.mark.parametrize("failing", ["caller", "helper", "both"])
def test_one_worker_failing_joins_the_helper(monkeypatch, worker_counts, failing):
    # log2 fails in one worker or in both; the first error is raised in the
    # caller, and the helper has been joined by then, whichever failed
    report_cpus(monkeypatch, 2)
    inputs = table_arrays(ModelSpec(9, 4))
    taus = np.linspace(0.0, 1.0, 8 * block_rows(inputs))
    caller, log2 = threading.current_thread(), np.log2
    first = "helper" if failing == "helper" else "caller"

    def log2_failing(*args, **kwargs):
        worker = "caller" if threading.current_thread() is caller else "helper"
        if worker != first:
            time.sleep(0.05)  # the other worker is still busy when the first one fails
        if failing in (worker, "both"):
            raise FloatingPointError(worker)
        return log2(*args, **kwargs)

    monkeypatch.setattr(np, "log2", log2_failing)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match=first):
        backend.schmidt_entropy_grid(*inputs, taus)
    assert threading.active_count() == threads
    assert worker_counts == [2]


def test_overflow_in_worker_is_silent_and_rejected(monkeypatch, worker_counts):
    # numpy's error state is per thread: each worker must set its own
    report_cpus(monkeypatch, 2)
    taus = np.linspace(0.0, 1.0, 2 * block_rows(table_arrays(ModelSpec(9, 4))) + 1)
    taus[[10, -10]] = 1e308
    with warnings.catch_warnings(), pytest.raises(NormalizationError):
        warnings.simplefilter("error")
        entropy_grid(ModelSpec(9, 4), taus)
    assert worker_counts == [2]


def test_overflow_in_helper_share_is_rejected(monkeypatch, worker_counts):
    # two blocks: the calling thread takes the first, the helper the second
    report_cpus(monkeypatch, 2)
    taus = np.linspace(0.0, 1.0, 2 * block_rows(table_arrays(ModelSpec(9, 4))))
    taus[-1] = 1e308
    with warnings.catch_warnings(), pytest.raises(NormalizationError, match="drift nan"):
        warnings.simplefilter("error")
        entropy_grid(ModelSpec(9, 4), taus)
    assert worker_counts == [2]


def test_two_block_grid_loads_no_thread_pool():
    # the helper is a plain thread: concurrent.futures would load logging
    script = """
import os, sys, threading
import numpy as np
os.sched_getaffinity = lambda pid: {0, 1}
started, start = [], threading.Thread.start
def recorded_start(thread):
    started.append(thread)
    start(thread)
threading.Thread.start = recorded_start
from spinvdw.backend import BLOCK_BYTES
from spinvdw.entanglement import entropy_grid
from spinvdw.model import ModelSpec
entropy_grid(ModelSpec(9, 4), np.linspace(0.0, 1.0, BLOCK_BYTES // (16 * 5) + 1))
print(len(started), "concurrent.futures" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 False\n"


@pytest.mark.parametrize("length", [8193, 16385])
@pytest.mark.parametrize("n_total, m_excited", [(80, 40), (200, 100)])
def test_no_short_trailing_block(n_total, m_excited, length):
    # With M'+1 >= 32 a block of a few rows can take a BLAS kernel that rounds
    # unlike the one a full block takes; equal blocks keep every block long.
    inputs = table_arrays(ModelSpec(n_total, m_excited))
    length = grid_length(inputs, length)
    taus = np.random.default_rng(3).uniform(-20.0, 20.0, 3 * block_rows(inputs))
    full_probs, full_entropies, _ = backend.schmidt_entropy_grid(*inputs, taus)
    probs, entropies, _ = backend.schmidt_entropy_grid(*inputs, taus[:length])
    assert np.array_equal(probs, full_probs[:length])
    assert np.array_equal(entropies, full_entropies[:length])


# M'+1 = 33, 41 and 61
@pytest.mark.parametrize("n_total, m_excited", [(64, 32), (80, 40), (120, 60)])
def test_grids_past_the_small_matrix_line_match_a_long_grid(n_total, m_excited):
    # A grid of more than 600 / (M'+1) rows takes OpenBLAS's general kernel
    # and rounds like the same rows of a long multi-block grid; a shorter one
    # may not (see the kernel's docstring).
    inputs = table_arrays(ModelSpec(n_total, m_excited))
    taus = np.random.default_rng(5).uniform(-20.0, 20.0, 40_000)
    full_probs, full_entropies, _ = backend.schmidt_entropy_grid(*inputs, taus)
    line = 600 // inputs[1].size
    for length in (line + 1, line + 2, 50, 5000):
        probs, entropies, _ = backend.schmidt_entropy_grid(*inputs, taus[:length])
        assert np.array_equal(probs, full_probs[:length]), length
        assert np.array_equal(entropies, full_entropies[:length]), length


def test_scan_verify_and_figures_start_no_pool(monkeypatch, worker_counts, tmp_path):
    # their grids (1025, 2049 and 4097 points at M'+1 = 2, zoom grids, 64
    # verify samples) each fit one block, as does an 8192-point grid at M'+1 = 2, so
    # a second CPU starts no thread
    report_cpus(monkeypatch, 2)
    entropy_grid(ModelSpec(2, 1), np.linspace(0.0, 1.0, 8192))
    magic_number_scan(30)
    assert verify_closed_form(ModelSpec(13, 6), np.linspace(0.0, 4.0 * np.pi, 64)).passed
    assert main(["figures", "--out-dir", str(tmp_path)]) == 0
    assert worker_counts == []


def test_export_evolve_grid_starts_a_pool(monkeypatch, worker_counts):
    # the 60000-step evolve grid at (24, 12) is dealt to two workers
    report_cpus(monkeypatch, 2)
    entropy_grid(ModelSpec(24, 12), np.linspace(0.0, 2.0 * np.pi / 24, 60_000))
    assert worker_counts == [2]
