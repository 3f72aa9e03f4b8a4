"""Grid evaluation kernel: Schmidt probabilities and entropies over tau.

``KERNEL_BACKEND`` names the kernel implementation; the numpy kernel below
is the only one.
"""

from __future__ import annotations

import numpy as np

KERNEL_BACKEND = "python"

# Probabilities below this are treated as exact zeros in p*log2(p).
ZERO_CUTOFF = 1e-300


def schmidt_entropy_grid(b, phases, degeneracy, taus):
    """Schmidt probabilities and base-2 entropies for every grid time.

    ``b`` is the (M'+1) x (M'+1) mixing matrix, ``phases`` the integer
    oscillation frequencies and ``degeneracy`` the Schmidt multiplicities,
    all as float64.  Returns ``(probs, entropies)`` with shapes
    ``(len(taus), M'+1)`` and ``(len(taus),)``.
    """
    angles = np.multiply.outer(np.asarray(taus, float), np.asarray(phases, float))
    amps = (np.cos(angles) + 1j * np.sin(angles)) @ np.asarray(b, float).T
    probs = np.asarray(degeneracy, float) * (amps.real**2 + amps.imag**2)
    safe = np.where(probs > ZERO_CUTOFF, probs, 1.0)
    entropies = -(np.where(probs > ZERO_CUTOFF, probs, 0.0) * np.log2(safe)).sum(axis=1)
    # entropy is nonnegative; rounding of p log p at p ~ 1 can leave -1e-16
    return probs, np.maximum(entropies, 0.0)
