"""Exact integer/rational combinatorics behind the closed-form solution.

The mixing table :func:`b_table` comes from an integer three-term recurrence
in the amplitude index m, the eigen-equation of the sector Hamiltonian in
the basis of symmetric (Dicke) products divided by sqrt(C(M,m) C(N-M,m)).
:func:`b_coefficient` evaluates one entry from the paper's alternating
binomial sum instead, so the two are independent exact references for each
other.  In floating point the alternating sum cancels catastrophically
already for moderate system sizes, so everything here stays in exact
``Fraction`` and integer arithmetic; a table rounds its data to float64
once, into the read-only ``array``, ``phases`` and ``degeneracy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

import numpy as np

from .model import ModelSpec


def binomial(x: int, y: int) -> int:
    """C(x, y) with the zero extension: 0 whenever y < 0 or y > x.

    The alternating sums below evaluate terms such as C(N-2k, n-k-1) at
    n-k-1 = -1; the zero extension is the reading that keeps them
    well-defined.
    """
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if y < 0 or y > x:
        return 0
    return comb(x, y)


def schmidt_multiplicities(spec: ModelSpec) -> tuple[int, ...]:
    """Degeneracy C(M, m) * C(N-M, m) of each amplitude, m = 0..M'."""
    n, m_exc = spec.n_total, spec.m_excited
    return tuple(
        binomial(m_exc, m) * binomial(n - m_exc, m) for m in range(spec.m_prime + 1)
    )


def mode_frequencies(spec: ModelSpec) -> tuple[int, ...]:
    """Integer frequency n(N+1-n) - M(N-M) of oscillation mode n = 0..M'."""
    n_tot, m_exc = spec.n_total, spec.m_excited
    return tuple(
        n * (n_tot + 1 - n) - m_exc * (n_tot - m_exc) for n in range(spec.m_prime + 1)
    )


@dataclass(frozen=True)
class BCoefficientTable:
    """Exact rational mixing coefficients, ``entries[m][n]`` for m, n <= M'."""

    spec: ModelSpec
    entries: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def array(self) -> np.ndarray:
        """Entries rounded to float64."""
        return _read_only([[float(v) for v in row] for row in self.entries])

    @cached_property
    def phases(self) -> np.ndarray:
        """:func:`mode_frequencies` as float64, exact: they lie far below 2^53."""
        return _read_only(mode_frequencies(self.spec))

    @cached_property
    def degeneracy(self) -> np.ndarray:
        """:func:`schmidt_multiplicities` as float64, exact up to 2^53."""
        return _read_only(schmidt_multiplicities(self.spec))


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


def b_coefficient(spec: ModelSpec, m: int, n: int) -> Fraction:
    """Exact mixing coefficient of oscillation mode ``n`` in amplitude ``m``.

    Computed as the alternating sum over k = 0..m of
    ``(-1)^k C(m,k) C(N-2k, M-k)^{-1} [C(N+1-2k, n-k) - 2 C(N-2k, n-k-1)]``.
    """
    n_tot, m_exc, m_prime = spec.n_total, spec.m_excited, spec.m_prime
    if not (0 <= m <= m_prime and 0 <= n <= m_prime):
        raise ValueError(
            f"indices must lie in 0..{m_prime}, got m={m}, n={n}"
        )
    return sum(
        Fraction((-1) ** k * comb(m, k), comb(n_tot - 2 * k, m_exc - k))
        * (binomial(n_tot + 1 - 2 * k, n - k) - 2 * binomial(n_tot - 2 * k, n - k - 1))
        for k in range(m + 1)
    )


def b_table(spec: ModelSpec) -> BCoefficientTable:
    """Full (M'+1) x (M'+1) table of mixing coefficients.

    Each column n starts from the k = 0 term of the alternating sum,
    b[0][n] = (C(N+1, n) - 2 C(N, n-1)) / C(N, M), and runs the recurrence

        (M-m)(N-M-m) b[m+1][n] = (-phi_n - m(N-2m)) b[m][n] - m^2 b[m-1][n]

    with phi_n the mode frequency: O(M'^2) Fraction operations.
    :func:`b_coefficient` is the independent reference it is tested against.
    """
    n_tot, m_exc, m_prime = spec.n_total, spec.m_excited, spec.m_prime
    columns = []
    for n, phi in enumerate(mode_frequencies(spec)):
        first = binomial(n_tot + 1, n) - 2 * binomial(n_tot, n - 1)
        column = [Fraction(first, comb(n_tot, m_exc))]
        previous = Fraction(0)
        for m in range(m_prime):
            upper = (-phi - m * (n_tot - 2 * m)) * column[m] - m * m * previous
            previous = column[m]
            column.append(upper / ((m_exc - m) * (n_tot - m_exc - m)))
        columns.append(column)
    return BCoefficientTable(spec, tuple(zip(*columns)))
