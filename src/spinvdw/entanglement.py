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
from .combinatorics import BCoefficientTable, b_table, mode_frequencies, schmidt_multiplicities
from .evolution import AmplitudeVector
from .model import ModelSpec

# Integrity threshold on |sum(P) - 1| before a spectrum is rejected.
NORMALIZATION_TOLERANCE = 1e-9

# Specs whose kernel data stay cached; a maxima scan reuses one spec at a time.
KERNEL_CACHE_SIZE = 256

# Intervals of the maxima scan's first grid over one period, points of each
# zoom grid in its refinement, and the bracket width at which zooming stops.
SCAN_GRID_POINTS = 2048
ZOOM_POINTS = 65
ZOOM_TOLERANCE = 1e-10


class NormalizationError(ValueError):
    """A state failed its unit-normalization invariant."""


class SingularTimeError(ValueError):
    """The entropy rate was requested at a cusp of the entropy curve."""


@dataclass(frozen=True, eq=False)
class SchmidtSpectrum:
    """Probabilities P_m = C(M,m) C(N-M,m) |C_m|^2 at one time."""

    spec: ModelSpec
    tau: float
    probabilities: np.ndarray


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


def schmidt_spectrum(amps: AmplitudeVector) -> SchmidtSpectrum:
    """Schmidt probabilities of an amplitude vector; enforces normalization."""
    degeneracy = np.array(schmidt_multiplicities(amps.spec), dtype=float)
    probs = degeneracy * np.abs(amps.amplitudes) ** 2
    total = float(probs.sum())
    if not abs(total - 1.0) <= NORMALIZATION_TOLERANCE:  # NaN fails too
        raise NormalizationError(f"amplitudes are not normalized: sum(P) = {total!r}")
    return SchmidtSpectrum(amps.spec, amps.tau, probs)


def entropy(spectrum) -> float:
    """Base-2 Shannon entropy of a Schmidt spectrum, in ebits.

    Accepts a :class:`SchmidtSpectrum` or a bare probability sequence;
    0 * log 0 is taken as 0.  A NaN or infinite probability gives NaN.
    """
    probs = np.asarray(getattr(spectrum, "probabilities", spectrum), dtype=float)
    if not np.isfinite(probs).all():
        return math.nan
    probs = probs[probs > ZERO_CUTOFF]
    if probs.size == 0:
        return 0.0
    # nonnegative by definition; guard against p log p rounding at p ~ 1
    return max(0.0, float(-(probs * np.log2(probs)).sum()))


@functools.lru_cache(maxsize=1)
def exact_table(spec: ModelSpec) -> BCoefficientTable:
    """The exact mixing table of one spec.

    The last table is kept, so a caller that needs both the table and
    :func:`kernel_inputs` for a spec (the closed-form check) builds it once.
    """
    return b_table(spec)


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def kernel_inputs(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's ``(coeffs, phases, degeneracy)`` for one spec.

    Contiguous read-only float64 arrays, built once per spec: the exact
    mixing table rounded to float, the integer frequencies and the Schmidt
    multiplicities.
    """
    phases, degeneracy = (
        np.array(values, dtype=float)
        for values in (mode_frequencies(spec), schmidt_multiplicities(spec))
    )
    phases.flags.writeable = degeneracy.flags.writeable = False
    return exact_table(spec).array, phases, degeneracy


def entropy_grid(spec: ModelSpec, tau_grid) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt probabilities and entropies at every grid point.

    Kernel-backed fast path used by the scans and the CLI; returns
    ``(probs, entropies)`` of shapes ``(T, M'+1)`` and ``(T,)``.  Raises
    ValueError unless the grid is a non-empty 1-d array of finite times.
    """
    taus = np.ascontiguousarray(tau_grid, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("tau grid must be a non-empty 1-d array")
    if not np.isfinite(taus).all():
        raise ValueError("tau grid must hold finite times only")
    probs, entropies = backend.schmidt_entropy_grid(*kernel_inputs(spec), taus)
    drift = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if not drift <= NORMALIZATION_TOLERANCE:  # NaN fails too
        raise NormalizationError(f"normalization drift {drift!r} on tau grid")
    return probs, entropies


def _require_single_excitation(spec: ModelSpec, what: str) -> None:
    if spec.m_excited != 1:
        raise ValueError(f"{what} is defined for a single initial excitation (M = 1)")


def entropy_rate_m1(spec: ModelSpec, tau: float) -> float:
    """Analytic d/dtau of the single-excitation entanglement entropy.

    Evaluates ``2 (N-1)/N sin(N tau) log2[N^2/(4(N-1)) csc^2(N tau / 2) - 1]``.
    Raises :class:`SingularTimeError` at multiples of 2 pi / N, where the
    entropy has a cusp and the cosecant diverges, and ValueError for a
    non-finite tau.
    """
    _require_single_excitation(spec, "the closed-form entropy rate")
    tau = float(tau)
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")
    n = spec.n_total
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


def magic_number_scan(n_max: int) -> list[ScanRow]:
    """Maximum entanglement per system size N = 2..n_max for M = 1.

    The analytic maximum (best of the tau'/tau'' candidates) is cross-checked
    against a dense grid of ``SCAN_GRID_POINTS`` intervals over one period,
    refined by zoom grids; a disagreement beyond 1e-8 ebits raises
    ArithmeticError.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    rows = []
    for n in range(2, n_max + 1):
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
    """Dense-grid maximum over one period, sharpened by zoom grids.

    Each step brackets the grid argmax by its two neighbours and evaluates
    ``ZOOM_POINTS`` points across the bracket in one kernel call, until the
    bracket is no wider than ``ZOOM_TOLERANCE``.  Returns the entropy at the
    final bracket midpoint, and that midpoint.
    """
    period = 2.0 * math.pi / spec.n_total
    taus = np.linspace(0.0, period, SCAN_GRID_POINTS + 1)
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
