"""Closed-form time evolution of the symmetric-sector amplitudes.

The state stays in an (M'+1)-dimensional subspace spanned by products of
fully symmetric A- and B-excitation states; each amplitude is a finite sum
of integer-frequency oscillations weighted by the exact mixing table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import BCoefficientTable
from .model import ModelSpec


@dataclass(frozen=True, eq=False)
class AmplitudeVector:
    """Closed-form amplitudes at one dimensionless time."""

    spec: ModelSpec
    tau: float
    amplitudes: np.ndarray


def amplitudes_at(spec: ModelSpec, table: BCoefficientTable, tau: float) -> AmplitudeVector:
    """Amplitudes C_m(tau) = sum_n b[m][n] exp(i phi_n tau), phi_n = ``table.phases``.

    Raises ValueError for a non-finite tau.
    """
    if table.spec != spec:
        raise ValueError(
            f"coefficient table was built for {table.spec}, not {spec}"
        )
    tau = float(tau)
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")
    # an overflowing phase gives NaN amplitudes, which schmidt_spectrum rejects
    with np.errstate(over="ignore", invalid="ignore"):
        angles = table.phases * tau
        oscillation = np.cos(angles) + 1j * np.sin(angles)
    return AmplitudeVector(spec, tau, table.array @ oscillation)
