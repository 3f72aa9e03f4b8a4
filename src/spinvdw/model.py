"""System configuration for the equivalent-neighbor spin-1/2 XY model, and
the input contract every entry point shares: :class:`InputError` and the
one conversion of time arguments, :func:`as_times`."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    """An argument the caller chose breaks a documented rule: the CLI maps
    it to exit code 2.  Checks on computed data raise other errors."""


def as_times(tau) -> np.ndarray:
    """``tau`` as float64: a scalar or 1-d array of finite real times.

    Raises :class:`InputError` for a dtype that is not integer or real
    floating (a complex time included), more than one dimension or a
    non-finite time, so nothing is cast away or read as a time silently.
    """
    taus = np.asarray(tau)
    if taus.dtype.kind not in "iuf" or taus.ndim > 1 or not np.isfinite(taus).all():
        raise InputError(f"tau must be finite and real, a scalar or 1-d array, got {tau!r}")
    return taus.astype(float, copy=False)


@dataclass(frozen=True)
class ModelSpec:
    """``n_total`` spin-1/2 sites with all-to-all XY exchange, ``m_excited``
    of them initially excited.

    The initially excited sites form subsystem A, the remaining
    ``n_total - m_excited`` sites subsystem B.  The exchange strength J is
    the unit of time, not a parameter: every time argument in this package
    is the dimensionless ``tau = J * t``.  A site count that is not an
    integer, a bool included, raises TypeError; one out of range,
    :class:`InputError`.
    """

    n_total: int
    m_excited: int
    coupling = 1.0  # no annotation: the unit J, a class constant, not a field

    def __post_init__(self) -> None:
        # operator.index takes numpy integers and rejects floats such as 6.0
        # and numpy bools, but not Python's; the spec keeps the plain int.
        for name in ("n_total", "m_excited"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, not a bool")
            object.__setattr__(self, name, operator.index(value))
        if self.n_total < 2:
            raise InputError(f"n_total must be >= 2, got {self.n_total}")
        if not 0 <= self.m_excited <= self.n_total:
            raise InputError(
                f"m_excited must lie in 0..{self.n_total}, got {self.m_excited}"
            )

    @property
    def m_prime(self) -> int:
        """Schmidt-rank bound of the bipartition: min(M, N - M)."""
        return min(self.m_excited, self.n_total - self.m_excited)
