"""Exact integer/rational combinatorics behind the closed-form solution.

The mixing coefficients returned by :func:`b_coefficient` are alternating
sums of binomial ratios.  Evaluated in floating point they suffer
catastrophic cancellation already for moderate system sizes, so everything
here is kept in exact ``Fraction`` arithmetic; rounding to float64 happens
once, at the amplitude-evaluation boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class BCoefficientTable:
    """Exact rational mixing coefficients, ``entries[m][n]`` for m, n <= M'."""

    spec: ModelSpec
    entries: tuple[tuple[Fraction, ...], ...]

    def as_array(self) -> np.ndarray:
        """Entries rounded to float64 (the only lossy step of the pipeline)."""
        return np.array([[float(v) for v in row] for row in self.entries])


def b_coefficient(spec: ModelSpec, m: int, n: int) -> Fraction:
    """Exact mixing coefficient of oscillation mode ``n`` in amplitude ``m``.

    Computed as the alternating sum over k = 0..m of
    ``(-1)^k C(m,k) C(N-2k, M-k)^{-1} [C(N+1-2k, n-k) - 2 C(N-2k, n-k-1)]``.
    """
    m_prime = spec.m_prime
    if not (0 <= m <= m_prime and 0 <= n <= m_prime):
        raise ValueError(
            f"indices must lie in 0..{m_prime}, got m={m}, n={n}"
        )
    return _b_sum(spec.n_total, spec.m_excited, m, n, binomial)


def _b_sum(n_tot: int, m_exc: int, m: int, n: int, choose) -> Fraction:
    total = Fraction(0)
    for k in range(m + 1):
        weight = Fraction((-1) ** k * choose(m, k), choose(n_tot - 2 * k, m_exc - k))
        bracket = choose(n_tot + 1 - 2 * k, n - k) - 2 * choose(n_tot - 2 * k, n - k - 1)
        total += weight * bracket
    return total


def b_table(spec: ModelSpec) -> BCoefficientTable:
    """Full (M'+1) x (M'+1) table of mixing coefficients.

    Binomials are memoized in a Pascal triangle up to row N+1, cut after
    column M: the sums never read C(x, y) with y > M, so the triangle costs
    O(N M) big-int additions instead of O(N^2).  It also makes the table an
    independent evaluation path from :func:`b_coefficient` (the latter goes
    through ``math.comb``).
    """
    rows = _pascal_rows(spec.n_total + 1, spec.m_excited)

    def choose(x: int, y: int) -> int:
        return rows[x][y] if 0 <= y <= x else 0

    m_prime = spec.m_prime
    entries = tuple(
        tuple(
            _b_sum(spec.n_total, spec.m_excited, m, n, choose)
            for n in range(m_prime + 1)
        )
        for m in range(m_prime + 1)
    )
    return BCoefficientTable(spec, entries)


def _pascal_rows(x_max: int, y_max: int) -> list[list[int]]:
    """Rows 0..x_max of Pascal's triangle, each cut after column y_max."""
    rows = [[1]]
    for x in range(1, x_max + 1):
        prev = rows[-1]
        row = [1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)]
        if x <= y_max:
            row.append(1)
        rows.append(row)
    return rows
