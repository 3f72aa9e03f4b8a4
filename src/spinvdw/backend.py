"""Grid evaluation kernel: Schmidt probabilities and entropies over tau.

``KERNEL_BACKEND`` names the kernel implementation; the numpy kernel below
is the only one.  A grid longer than ``BLOCK_ROWS`` is cut into equal row
blocks, dealt to at most ``MAX_WORKERS`` threads: the kernel's time goes to
numpy's cos, sin, matmul and log2 on whole blocks, which release the GIL.
Memory is the output plus each worker's two block buffers.  Every block is
computed the same way whichever worker takes it, so the rows do not depend
on the worker count.  A one-block grid runs in the calling thread and
starts no thread.
"""

from __future__ import annotations

import os

import numpy as np

KERNEL_BACKEND = "python"

# Probabilities below this are treated as exact zeros in p*log2(p).
ZERO_CUTOFF = 1e-300

# Grid rows evaluated per block: the kernel's temporaries scale with this,
# not with the grid length.
BLOCK_ROWS = 8192

# Threads that share a multi-block grid, at most one per available CPU.
MAX_WORKERS = 2


def _available_cpus() -> int:
    """CPUs this process may run on, or the machine's count where the
    affinity call does not exist."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def schmidt_entropy_grid(b, phases, degeneracy, taus):
    """Schmidt probabilities and base-2 entropies for every grid time.

    ``b`` is the (M'+1) x (M'+1) mixing matrix, ``phases`` the integer
    oscillation frequencies and ``degeneracy`` the Schmidt multiplicities,
    all as float64.  Returns ``(probs, entropies)`` with shapes
    ``(len(taus), M'+1)`` and ``(len(taus),)``.

    The grid is walked in real arithmetic, in blocks of at most
    ``BLOCK_ROWS`` rows, so temporaries scale with the block, not with the
    grid.  A longer grid is cut into ceil(T / BLOCK_ROWS) blocks whose
    lengths differ by at most one row, so none is shorter than
    ``BLOCK_ROWS / 2``: a short trailing block could take a small-matrix
    BLAS kernel that rounds unlike the one the other blocks take.  A block's
    cos and sin are stacked into one matrix, so every block, a lone row
    included, takes the matrix-matrix product rather than the matrix-vector
    one.  A grid shorter than about ``BLOCK_ROWS / 2`` rows can still round
    in the last bit unlike the same rows of a longer grid once M'+1 is about
    32 or more, where OpenBLAS may pick its small-matrix kernel.  An
    overflowing phase gives NaN rows without a warning; the callers'
    normalization checks reject them.

    The blocks are dealt to min(available CPUs, blocks, ``MAX_WORKERS``)
    workers, each of which works in its own two buffers, allocated once per
    call; a worker's exception is raised here.
    """
    taus = np.asarray(taus, float)
    phases = np.asarray(phases, float)
    b_t = np.asarray(b, float).T
    degeneracy = np.asarray(degeneracy, float)
    probs = np.empty((taus.shape[0], phases.shape[0]))
    entropies = np.empty(taus.shape[0])
    blocks = max(1, -(-taus.shape[0] // BLOCK_ROWS))
    bounds = [taus.shape[0] * k // blocks for k in range(blocks + 1)]
    spans = list(zip(bounds[:-1], bounds[1:]))
    longest = max(stop - start for start, stop in spans)

    def work(share, trig_buffer, product_buffer):
        for start, stop in share:
            rows = stop - start
            trig = trig_buffer[: 2 * rows]
            amps = product_buffer[: 2 * rows]
            p = probs[start:stop]
            block_entropy = entropies[start:stop]
            # numpy's error state is per thread
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply.outer(taus[start:stop], phases, out=trig[rows:])
                np.cos(trig[rows:], out=trig[:rows])
                np.sin(trig[rows:], out=trig[rows:])
            np.matmul(trig, b_t, out=amps)
            re, im = amps[:rows], amps[rows:]
            np.multiply(re, re, out=re)
            np.multiply(im, im, out=im)
            np.add(re, im, out=re)
            np.multiply(degeneracy, re, out=p)
            # p log2 p with 0 log 0 = 0: below the cutoff log2 p is left at 0
            p_log_p = re
            p_log_p.fill(0.0)
            np.log2(p, out=p_log_p, where=p > ZERO_CUTOFF)
            np.multiply(p, p_log_p, out=p_log_p)
            np.sum(p_log_p, axis=1, out=block_entropy)
            np.negative(block_entropy, out=block_entropy)
            # entropy is nonnegative; rounding of p log p at p ~ 1 can leave -1e-16
            np.maximum(block_entropy, 0.0, out=block_entropy)

    workers = min(_available_cpus(), blocks, MAX_WORKERS)
    # the buffers come from the calling thread: a worker thread allocates from
    # its own malloc arena, which kept 1-4 MiB more peak RSS, varying by run
    shape = (2 * longest, phases.shape[0])
    buffers = [(np.empty(shape), np.empty(shape)) for _ in range(workers)]
    if workers == 1:
        work(spans, *buffers[0])
    else:
        # imported here: concurrent.futures loads logging, half a MiB that
        # one-block callers (the maxima scan, verify) never need
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(work, spans[w::workers], *buffers[w]) for w in range(workers)]
            for future in futures:
                future.result()
    return probs, entropies
