"""Grid evaluation kernel: Schmidt probabilities, entropies and the
normalization drift over tau.

``KERNEL_BACKEND`` names the kernel implementation; the numpy kernel below
is the only one.  A grid is cut into equal row blocks, each small enough
that its cos and sin rows fill at most ``BLOCK_BYTES``, and the blocks are
dealt to at most ``MAX_WORKERS`` workers: the calling thread works one share
and a plain helper thread each other share, since the kernel's time goes to
numpy's tan, matmul and log2 on whole blocks, which release the GIL.  The
cos and sin rows come from the tangent of the half angle, t = tan(tau phi/2):
numpy's float64 tan is a SIMD loop, while its cos and sin are scalar libm
calls, about ten times slower per element.
Memory is the output plus each worker's two block buffers of at most
``BLOCK_BYTES`` each, whatever the grid length and the number of modes.
Every block is computed the same way whichever worker takes it, so the rows
do not depend on the worker count.  A one-block grid runs in the calling
thread alone and starts no thread.
"""

from __future__ import annotations

import os
from threading import Thread

import numpy as np

KERNEL_BACKEND = "python"

# Probabilities below this are treated as exact zeros in p*log2(p).
ZERO_CUTOFF = 1e-300

# Bytes of each of a worker's two block buffers.  A block holds as many grid
# rows as fit, at 16 bytes per row and mode (a cos and a sin float, both made
# in place from the half-angle tangent, since numpy's float64 tan is a SIMD
# loop and its cos and sin scalar libm), so the kernel's scratch depends
# neither on the grid length nor on M'+1.  At 512 KiB a worker's two buffers
# fit a 2 MiB L2 cache, and the maxima scan's and the figures' grids (up to
# 4097 rows at M'+1 = 2) stay one block.  Timed on a 2-vCPU Xeon with 2 MiB
# of L2 per core, one BLAS thread, the grid benchmark's six entropy_grid
# calls in one process, 15 and 21 alternating rounds: against 512 KiB, the
# median ran 18-19% slower at 256 KiB and 7% faster at 1 MiB, whose quartiles
# overlap 512 KiB's; 1 MiB would add 2 MiB of buffers across two workers.
BLOCK_BYTES = 1 << 19

# Workers that share a multi-block grid, at most one per available CPU: the
# calling thread and MAX_WORKERS - 1 helper threads.
MAX_WORKERS = 2


def _available_cpus() -> int:
    """CPUs this process may run on, or the machine's count where the
    affinity call does not exist."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def schmidt_entropy_grid(b, phases, degeneracy, taus):
    """Schmidt probabilities and base-2 entropies for every grid time, and
    how far their rows are from normalized.

    ``b`` is the (M'+1) x (M'+1) mixing matrix, ``phases`` the integer
    oscillation frequencies and ``degeneracy`` the Schmidt multiplicities,
    all as float64.  Returns ``(probs, entropies, drift)``: arrays of shapes
    ``(len(taus), M'+1)`` and ``(len(taus),)``, and the float max over the
    rows of |sum(P) - 1|, NaN if any row holds a NaN.  Each block measures
    its rows' drift right after writing them, so no pass over the output
    follows.

    The grid is walked in real arithmetic, in blocks of at most
    max(1, ``BLOCK_BYTES`` // (16 (M'+1))) rows: a block's stacked cos and sin
    rows fill one buffer of at most ``BLOCK_BYTES`` and their product the
    other, so temporaries scale with neither the grid nor M'+1.  A longer
    grid is cut into as few blocks as that allows, whose lengths differ by
    at most one row, so none is shorter than half the limit.  Stacking cos
    and sin makes every block, a lone row included, take the matrix-matrix
    product rather than the matrix-vector one.

    Both rows come from one tangent per angle, t = tan(tau phi / 2), as
    cos = (1 - t^2) / (1 + t^2) and sin = 2t / (1 + t^2), computed in place
    in the two buffers: numpy's float64 tan runs as a SIMD loop, its cos
    and sin as scalar libm (1.9 ns against 22 ns per element with numpy
    2.4.6 on a 2-CPU x86-64 Xeon, where cos and sin took most of the
    kernel's time).  Each element's pair comes from its own rounded angle,
    so no error accumulates along a row and rows stay independent of one
    another; at the tangent's poles t is about 1e16 and the pair is
    (-1, 0) within rounding.

    Rounding, as measured with the OpenBLAS 0.3.31 of numpy's wheel on a
    2-CPU x86-64 Xeon: once M'+1 >= 32, OpenBLAS takes its small-matrix
    kernel for a product of at most 1200 output floats, 2 x rows x (M'+1),
    so a grid of at most 600 / (M'+1) rows (18 at M'+1 = 33, 14 at 41, 9 at
    61) can round in the last bit unlike the same rows of a longer grid.  No
    block of a multi-block grid is that short.  Other lengths can round
    apart as well: with two BLAS threads, grids of 26 to 50 rows at
    M'+1 = 101; and at some M'+1 of 201 or more (201, 257, 300, 500 and
    2001, not 400 or 1000) the last few rows of any product, so there a row
    next to a block's end depends on the grid length and on
    ``BLOCK_BYTES``.  An overflowing phase gives NaN rows without a warning,
    and so a NaN drift, which the caller's normalization check rejects: the
    angle is halved after the product, so an overflowing tau phi gives a
    NaN tangent even where tau phi / 2 is finite.

    The blocks are dealt to min(available CPUs, blocks, ``MAX_WORKERS``)
    workers, each of which works in its own two buffers, allocated once per
    call in the calling thread.  The calling thread is worker 0 and runs its
    share through the same runner as each helper thread, so every helper is
    joined before this returns or raises, and the share that failed first
    raises its exception here, a KeyboardInterrupt in the calling thread too.
    """
    taus = np.asarray(taus, float)
    phases = np.asarray(phases, float)
    b_t = np.asarray(b, float).T
    degeneracy = np.asarray(degeneracy, float)
    probs = np.empty((taus.shape[0], phases.shape[0]))
    entropies = np.empty(taus.shape[0])
    block_rows = max(1, BLOCK_BYTES // (16 * phases.shape[0]))
    blocks = max(1, -(-taus.shape[0] // block_rows))
    bounds = [taus.shape[0] * k // blocks for k in range(blocks + 1)]
    spans = list(zip(bounds[:-1], bounds[1:]))
    longest = max(stop - start for start, stop in spans)

    def work(share, trig_buffer, product_buffer):
        drift = 0.0
        for start, stop in share:
            rows = stop - start
            trig = trig_buffer[: 2 * rows]
            amps = product_buffer[: 2 * rows]
            p = probs[start:stop]
            block_entropy = entropies[start:stop]
            cos, sin, denominator = trig[:rows], trig[rows:], amps[:rows]
            # numpy's error state is per thread
            with np.errstate(over="ignore", invalid="ignore"):
                # the angle, halved after the product so that an overflowing
                # angle stays infinite, and t = tan(angle / 2)
                np.multiply.outer(taus[start:stop], phases, out=sin)
                sin *= 0.5
                np.tan(sin, out=sin)
            # cos = (1 - t^2) / (1 + t^2) and sin = 2t / (1 + t^2)
            np.multiply(sin, sin, out=cos)
            np.add(cos, 1.0, out=denominator)
            np.subtract(1.0, cos, out=cos)
            cos /= denominator
            sin *= 2.0
            sin /= denominator
            np.matmul(trig, b_t, out=amps)
            re, im = amps[:rows], amps[rows:]
            np.multiply(re, re, out=re)
            np.multiply(im, im, out=im)
            np.add(re, im, out=re)
            np.multiply(degeneracy, re, out=p)
            # max |sum(P) - 1| over the block's rows, in its entropy slot
            # before the entropy fills it; np.maximum keeps a NaN
            np.sum(p, axis=1, out=block_entropy)
            block_entropy -= 1.0
            drift = np.maximum(drift, np.abs(block_entropy, out=block_entropy).max())
            # p log2 p with 0 log 0 = 0: below the cutoff log2 p is left at 0
            p_log_p = re
            p_log_p.fill(0.0)
            np.log2(p, out=p_log_p, where=p > ZERO_CUTOFF)
            np.multiply(p, p_log_p, out=p_log_p)
            np.sum(p_log_p, axis=1, out=block_entropy)
            np.negative(block_entropy, out=block_entropy)
            # entropy is nonnegative; rounding of p log p at p ~ 1 can leave -1e-16
            np.maximum(block_entropy, 0.0, out=block_entropy)
        return drift

    workers = min(_available_cpus(), blocks, MAX_WORKERS)
    # the buffers come from the calling thread: a helper thread allocates from
    # its own malloc arena, which kept 1-4 MiB more peak RSS, varying by run
    shape = (2 * longest, phases.shape[0])
    buffers = [(np.empty(shape), np.empty(shape)) for _ in range(workers)]
    failures, drifts = [], [0.0] * workers

    def run_share(w):
        try:
            drifts[w] = work(spans[w::workers], *buffers[w])
        except BaseException as error:  # raised in the calling thread once all have joined
            failures.append(error)

    helpers = [Thread(target=run_share, args=(w,)) for w in range(1, workers)]
    for helper in helpers:
        helper.start()
    run_share(0)
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]
    return probs, entropies, float(np.max(drifts))
