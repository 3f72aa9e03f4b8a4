"""System configuration for the equivalent-neighbor spin-1/2 XY model."""

from __future__ import annotations

import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class ModelSpec:
    """``n_total`` spin-1/2 sites with all-to-all XY exchange, ``m_excited``
    of them initially excited.

    The initially excited sites form subsystem A, the remaining
    ``n_total - m_excited`` sites subsystem B.  The exchange strength J is
    the unit of time, not a parameter: every time argument in this package
    is the dimensionless ``tau = J * t``.
    """

    n_total: int
    m_excited: int
    coupling = 1.0  # no annotation: the unit J, a class constant, not a field

    def __post_init__(self) -> None:
        # operator.index takes numpy integers and rejects floats such as 6.0;
        # the spec keeps the plain int.
        for name in ("n_total", "m_excited"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.n_total < 2:
            raise ValueError(f"n_total must be >= 2, got {self.n_total}")
        if not 0 <= self.m_excited <= self.n_total:
            raise ValueError(
                f"m_excited must lie in 0..{self.n_total}, got {self.m_excited}"
            )

    @property
    def m_prime(self) -> int:
        """Schmidt-rank bound of the bipartition: min(M, N - M)."""
        return min(self.m_excited, self.n_total - self.m_excited)
