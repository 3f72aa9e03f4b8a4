"""Closed-form time evolution of the symmetric-sector amplitudes.

The state stays in an (M'+1)-dimensional subspace spanned by products of
fully symmetric A- and B-excitation states; each amplitude is a finite sum
of integer-frequency oscillations weighted by the exact mixing table.  One
call evaluates one time or a 1-d array of times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import BCoefficientTable
from .model import ModelSpec


@dataclass(frozen=True, eq=False)
class AmplitudeVector:
    """Closed-form amplitudes of shape (M'+1,) at one time, or (T, M'+1) at
    T times, with the mixing table they came from."""

    table: BCoefficientTable
    amplitudes: np.ndarray


def amplitudes_at(spec: ModelSpec, table: BCoefficientTable, tau) -> AmplitudeVector:
    """Amplitudes C_m(tau) = sum_n b[m][n] exp(i phi_n tau), phi_n = ``table.phases``.

    ``tau`` is a scalar or a 1-d array of times; the amplitudes have shape
    ``tau.shape + (M'+1,)``.  Raises ValueError for a non-finite tau.
    """
    if table.spec != spec:
        raise ValueError(
            f"coefficient table was built for {table.spec}, not {spec}"
        )
    taus = np.asarray(tau, dtype=float)
    if taus.ndim > 1 or not np.isfinite(taus).all():
        raise ValueError(f"tau must be a finite scalar or 1-d array, got {tau!r}")
    # an overflowing phase gives NaN amplitudes, which schmidt_spectrum rejects
    with np.errstate(over="ignore", invalid="ignore"):
        angles = np.multiply.outer(taus, table.phases)
        oscillation = np.cos(angles) + 1j * np.sin(angles)
    return AmplitudeVector(table, oscillation @ table.array.T)
