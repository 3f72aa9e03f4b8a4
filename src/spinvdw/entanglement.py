"""Schmidt spectra, entanglement entropy and the critical-time analysis.

For a single initial excitation the entanglement curve has two families of
stationary points: tau' where exactly one ebit is reached (a real root only
for N <= 6) and tau'' = pi/N, which carries the global maximum for N > 6.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .backend import ZERO_CUTOFF
from .combinatorics import BCoefficientTable, b_table
from .evolution import AmplitudeVector
from .model import InputError, ModelSpec, as_times

# Integrity threshold on |sum(P) - 1| before a spectrum is rejected.
NORMALIZATION_TOLERANCE = 1e-9

# Intervals of the maxima scan's first grid over half a period, points of
# each zoom grid in its refinement, and the bracket width at which zooming
# stops.
SCAN_GRID_POINTS = 1024
ZOOM_POINTS = 65
ZOOM_TOLERANCE = 1e-10


class NormalizationError(ValueError):
    """A state failed its unit-normalization invariant."""


class SingularTimeError(InputError):
    """The entropy rate was requested at a cusp of the entropy curve."""


@dataclass(frozen=True)
class CriticalTimes:
    """Stationary times of the single-excitation entanglement curve.

    ``t_prime`` (one ebit reached) is None when no real root exists, i.e.
    for N > 6.  ``t_double_prime`` = pi/N always exists; for N = 2 it is the
    complete-transfer point where the entropy returns to zero.
    """

    spec: ModelSpec
    t_prime: float | None
    t_double_prime: float
    e_at_t_prime: float | None
    e_at_t_double_prime: float


@dataclass(frozen=True)
class ScanRow:
    """Per-N result of the maximum-entanglement scan (M = 1)."""

    n_total: int
    t_prime: float | None
    t_double_prime: float
    max_entropy: float
    argmax_tau: float
    grid_max_entropy: float
    grid_argmax_tau: float


def schmidt_spectrum(amps: AmplitudeVector) -> np.ndarray:
    """Schmidt probabilities P_m = C(M,m) C(N-M,m) |C_m|^2 of an amplitude
    vector or stack of them, from the table's ``degeneracy``: shape (M'+1,)
    at one time or (T, M'+1) at T times.  Every row must be normalized."""
    probs = amps.table.degeneracy * np.abs(amps.amplitudes) ** 2
    drift = np.abs(probs.sum(axis=-1) - 1.0)
    if not (drift <= NORMALIZATION_TOLERANCE).all():  # NaN fails too
        raise NormalizationError(f"amplitudes are not normalized: |sum(P) - 1| = {np.max(drift)!r}")
    return probs


def entropy(probabilities):
    """Base-2 Shannon entropy of Schmidt probabilities, in ebits, along the
    last axis: a Python float for one spectrum, an array for a stack of them.

    0 * log 0 is taken as 0.  A spectrum with a NaN or infinite probability
    gives NaN.
    """
    probs = np.asarray(probabilities, dtype=float)
    positive = np.where(probs > ZERO_CUTOFF, probs, 1.0)  # log2(1) = 0 drops the rest
    total = -(positive * np.log2(positive)).sum(axis=-1)
    # nonnegative by definition: clips p log p rounding at p ~ 1, -0.0 included
    total = np.where(np.isfinite(probs).all(axis=-1), np.where(total > 0.0, total, 0.0), np.nan)
    return float(total) if total.ndim == 0 else total


@functools.lru_cache(maxsize=1)
def exact_table(spec: ModelSpec) -> BCoefficientTable:
    """The exact mixing table of one spec, with the kernel's float data.

    One entry serves each caller's run of calls on one spec: the maxima scan
    makes about 6 kernel calls per spec (199 specs), verify a table and one
    kernel call per sector (54), the grid benchmark two tau sets per spec (3).
    ``figures`` asks for M = 1 at N = 2..10, then 2..30: 38 rebuilds (9 + 29),
    ~70 us each.
    """
    return b_table(spec)


def entropy_grid(spec: ModelSpec, tau_grid) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt probabilities and entropies at every grid point.

    Kernel-backed fast path used by the scans and the CLI; returns
    ``(probs, entropies)`` of shapes ``(T, M'+1)`` and ``(T,)``.  Raises
    :class:`InputError` for a grid that :func:`as_times` rejects or that is
    not a non-empty 1-d array, and :class:`NormalizationError` when the
    kernel's drift, the largest |sum(P) - 1| over the rows, exceeds
    ``NORMALIZATION_TOLERANCE`` or is NaN.
    """
    taus = as_times(tau_grid)
    if taus.ndim != 1 or taus.size == 0:
        raise InputError("tau grid must be a non-empty 1-d array")
    table = exact_table(spec)
    probs, entropies, drift = backend.schmidt_entropy_grid(
        table.array, table.phases, table.degeneracy, taus
    )
    if not drift <= NORMALIZATION_TOLERANCE:  # NaN fails too
        raise NormalizationError(f"normalization drift {drift!r} on tau grid")
    return probs, entropies


def _require_single_excitation(spec: ModelSpec, what: str) -> None:
    if spec.m_excited != 1:
        raise InputError(f"{what} is defined for a single initial excitation (M = 1)")


def entropy_rate_m1(spec: ModelSpec, tau: float) -> float:
    """Analytic d/dtau of the single-excitation entanglement entropy.

    Evaluates ``2 (N-1)/N sin(N tau) log2[N^2/(4(N-1)) csc^2(N tau / 2) - 1]``.
    Raises :class:`InputError` for a spec with M != 1, a tau that
    :func:`as_times` rejects or a non-finite N * tau, and its subclass
    :class:`SingularTimeError` at multiples of 2 pi / N, where the entropy
    has a cusp and the cosecant diverges; a tau array raises TypeError.
    """
    _require_single_excitation(spec, "the closed-form entropy rate")
    tau = float(as_times(tau))
    n = spec.n_total
    if not math.isfinite(n * tau):
        raise InputError(f"tau must be finite, and N * tau too, got {tau!r} at N = {n}")
    cycles = tau * n / (2.0 * math.pi)
    if abs(cycles - round(cycles)) < 1e-9:
        raise SingularTimeError(f"tau = {tau!r} is a multiple of 2*pi/{n}")
    sin_sq = math.sin(0.5 * n * tau) ** 2
    bracket = n * n / (4.0 * (n - 1.0)) / sin_sq - 1.0
    if bracket <= 0.0:
        # Complete-transfer point (P_1 = 1, reachable only for N = 2): the
        # log divergence is cancelled by the vanishing sine; the limit is 0.
        return 0.0
    return 2.0 * (n - 1.0) / n * math.sin(n * tau) * math.log2(bracket)


def max_entropy_at_t2(spec: ModelSpec) -> float:
    """Entanglement at the stationary time tau'' = pi/N (M = 1), in ebits.

    Closed form ``(2/N^2) [N^2 log2 N - (N-2)^2 log2(N-2) - 2(N-1) log2(4(N-1))]``.
    N = 2 is degenerate: tau'' is a complete excitation swap, the state is a
    product state again and the value is exactly 0.
    """
    _require_single_excitation(spec, "the tau'' entanglement value")
    n = spec.n_total
    if n == 2:
        return 0.0
    return (2.0 / n**2) * (
        n**2 * math.log2(n)
        - (n - 2) ** 2 * math.log2(n - 2)
        - 2.0 * (n - 1.0) * math.log2(4.0 * (n - 1.0))
    )


def critical_times_m1(spec: ModelSpec) -> CriticalTimes:
    """Both stationary times of the single-excitation entropy curve.

    Existence of tau' is decided by the exact integer inequality
    N^2 <= 8(N-1) (equivalent to the cosecant root being real, i.e. N <= 6)
    rather than by floating-point domain failure, so the N = 6 boundary
    cannot flip on rounding.
    """
    _require_single_excitation(spec, "the critical-time analysis")
    n = spec.n_total
    t_double_prime = math.pi / n
    e_double_prime = max_entropy_at_t2(spec)
    if n * n <= 8 * (n - 1):
        # tau' = (2/N) arcsin(N / sqrt(8(N-1))), written with atan2 over the
        # exact integers N^2 and 8(N-1) - N^2 so the result is correctly
        # rounded (N = 2 must give pi/4 to the last bit).
        t_prime = (2.0 / n) * math.atan2(n, math.sqrt(8 * (n - 1) - n * n))
        return CriticalTimes(spec, t_prime, t_double_prime, 1.0, e_double_prime)
    return CriticalTimes(spec, None, t_double_prime, None, e_double_prime)


def magic_number_scan(n_max: int, n_min: int = 2) -> list[ScanRow]:
    """Maximum entanglement per system size N = n_min..n_max for M = 1.

    The analytic maximum (best of the tau'/tau'' candidates) is cross-checked
    against a dense grid of ``SCAN_GRID_POINTS`` intervals over half a
    period, refined by zoom grids; a disagreement beyond 1e-8 ebits raises
    ArithmeticError.  Raises :class:`InputError` unless 2 <= n_min <= n_max.
    """
    if n_min < 2 or n_max < n_min:
        raise InputError(f"need 2 <= n_min <= n_max, got {n_min}..{n_max}")
    rows = []
    for n in range(n_min, n_max + 1):
        spec = ModelSpec(n, 1)
        crit = critical_times_m1(spec)
        if crit.t_prime is not None:
            best, argmax = 1.0, crit.t_prime
        else:
            best, argmax = crit.e_at_t_double_prime, crit.t_double_prime
        grid_max, grid_argmax = _refined_grid_max(spec)
        if abs(grid_max - best) > 1e-8:
            raise ArithmeticError(
                f"grid maximizer disagrees with analytic maximum for N={n}: "
                f"{grid_max!r} vs {best!r}"
            )
        rows.append(
            ScanRow(n, crit.t_prime, crit.t_double_prime, best, argmax, grid_max, grid_argmax)
        )
    return rows


def _refined_grid_max(spec: ModelSpec) -> tuple[float, float]:
    """Dense-grid maximum over half a period, [0, pi/N], sharpened by zoom
    grids.  The mixing table is real and the two frequencies differ by N,
    so P_m(tau) = P_m(2 pi/N - tau): the other half of the period mirrors
    this one.

    Each step brackets the grid argmax by its two neighbours and evaluates
    ``ZOOM_POINTS`` points across the bracket in one kernel call, until the
    bracket is no wider than ``ZOOM_TOLERANCE``.  Returns the entropy at the
    final bracket midpoint, and that midpoint.
    """
    taus = np.linspace(0.0, math.pi / spec.n_total, SCAN_GRID_POINTS + 1)
    while True:
        _, entropies = entropy_grid(spec, taus)
        peak = int(np.argmax(entropies))
        lo = taus[max(peak - 1, 0)]
        hi = taus[min(peak + 1, taus.size - 1)]
        if hi - lo <= ZOOM_TOLERANCE:
            break
        taus = np.linspace(lo, hi, ZOOM_POINTS)
    x = float(0.5 * (lo + hi))
    return float(entropy_grid(spec, np.array([x]))[1][0]), x
