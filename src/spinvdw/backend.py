"""Grid evaluation kernel: Schmidt probabilities and entropies over tau.

``KERNEL_BACKEND`` names the kernel implementation; the numpy kernel below
is the only one.
"""

from __future__ import annotations

import numpy as np

KERNEL_BACKEND = "python"

# Probabilities below this are treated as exact zeros in p*log2(p).
ZERO_CUTOFF = 1e-300

# Grid rows evaluated per block: the kernel's temporaries scale with this,
# not with the grid length.
BLOCK_ROWS = 8192


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
    """
    taus = np.asarray(taus, float)
    phases = np.asarray(phases, float)
    b_t = np.asarray(b, float).T
    degeneracy = np.asarray(degeneracy, float)
    probs = np.empty((taus.shape[0], phases.shape[0]))
    entropies = np.empty(taus.shape[0])
    blocks = max(1, -(-taus.shape[0] // BLOCK_ROWS))
    bounds = [taus.shape[0] * k // blocks for k in range(blocks + 1)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        block = slice(start, stop)
        p = probs[block]
        rows = p.shape[0]
        trig = np.empty((2 * rows, phases.shape[0]))
        with np.errstate(over="ignore", invalid="ignore"):
            angles = np.multiply.outer(taus[block], phases)
            np.cos(angles, out=trig[:rows])
            np.sin(angles, out=trig[rows:])
        amps = trig @ b_t
        re, im = amps[:rows], amps[rows:]
        np.multiply(degeneracy, re * re + im * im, out=p)
        # p log2 p with 0 log 0 = 0: below the cutoff p is multiplied by log2(1) = 0
        safe = np.where(p > ZERO_CUTOFF, p, 1.0)
        block_entropy = -(p * np.log2(safe)).sum(axis=1)
        # entropy is nonnegative; rounding of p log p at p ~ 1 can leave -1e-16
        np.maximum(block_entropy, 0.0, out=entropies[block])
    return probs, entropies
