"""End-to-end acceptance checks.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live).  Tolerances are
pinned here and nowhere else.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from spinvdw.cli import main, verify_times
from spinvdw.combinatorics import b_table, schmidt_multiplicities
from spinvdw.entanglement import (
    critical_times_m1,
    entropy_grid,
    entropy_rate_m1,
    magic_number_scan,
    max_entropy_at_t2,
)
from spinvdw.model import ModelSpec
from spinvdw.oracle import verify_closed_form

from full_space import full_space_crosscheck


def report(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] criterion {num} ({label}): {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def test_criterion_1_magic_numbers():
    start = time.perf_counter()
    rows = magic_number_scan(30)
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    worst = 0.0
    for row in rows:
        if row.n_total <= 6:
            reference_root = (2.0 / row.n_total) * math.asin(
                row.n_total / (2.0 * math.sqrt(2.0 * (row.n_total - 1)))
            )
            ok &= abs(row.max_entropy - 1.0) <= 1e-10
            ok &= row.t_prime is not None and abs(row.argmax_tau - reference_root) < 1e-12
            worst = max(worst, abs(row.max_entropy - 1.0))
        else:
            ok &= row.t_prime is None
            ok &= row.max_entropy < 1.0
    report(
        1,
        "unit entanglement exactly for N=2..6",
        ok,
        f"max |E-1| = {worst:.2e} for N<=6, roots absent for N=7..30, {elapsed:.2f}s",
    )


def test_criterion_2_seven_site_maximum():
    spec = ModelSpec(7, 1)
    closed = max_entropy_at_t2(spec)
    _, direct = entropy_grid(spec, np.array([math.pi / 7.0]))
    row = magic_number_scan(7)[-1]
    ok = abs(row.max_entropy - 0.9997) <= 5e-5
    ok &= abs(closed - float(direct[0])) <= 1e-12
    report(
        2,
        "N=7 maximum 0.9997 and closed form vs direct",
        ok,
        f"max E = {row.max_entropy:.6f}, |closed - direct| = {abs(closed - float(direct[0])):.2e}",
    )


def test_criterion_3_monotone_decrease():
    start = time.perf_counter()
    values = [max_entropy_at_t2(ModelSpec(n, 1)) for n in range(7, 201)]
    elapsed = time.perf_counter() - start
    ok = all(a > b for a, b in zip(values, values[1:])) and elapsed < 1.0
    report(
        3,
        "stationary-time maximum strictly decreasing N=7..200",
        ok,
        f"E(7) = {values[0]:.6f} .. E(200) = {values[-1]:.6f}, {elapsed:.2f}s",
    )


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    worst_p = worst_e = 0.0
    ok = True
    for n in range(2, 11):
        for m in range(0, n // 2 + 1):
            rep = verify_closed_form(ModelSpec(n, m), verify_times(n, m))
            ok &= rep.passed and rep.tolerance == 1e-9
            worst_p = max(worst_p, rep.max_spectrum_deviation)
            worst_e = max(worst_e, rep.max_entropy_deviation)
    elapsed = time.perf_counter() - start
    ok &= worst_p < 1e-9 and worst_e < 1e-9 and elapsed < 120.0
    report(
        4,
        "closed form vs sector hop Hamiltonian, N<=10, M<=N/2",
        ok,
        f"max|dP| = {worst_p:.2e}, max|dE| = {worst_e:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_sector_restriction():
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    worst = 0.0
    for n in range(2, 9):
        for m in range(0, n + 1):
            taus = rng.uniform(0.0, 4.0 * math.pi, 8)
            worst = max(worst, full_space_crosscheck(n, m, taus))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 60.0
    report(
        5,
        "sector propagation vs full 2^N propagation",
        ok,
        f"max deviation = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_entropy_rate():
    step = 1e-6
    rng = np.random.default_rng(29)
    worst_fd = 0.0
    worst_root = 0.0
    ok = True
    for n in range(2, 13):
        spec = ModelSpec(n, 1)
        period = 2.0 * math.pi / n
        samples = []
        while len(samples) < 50:
            tau = float(rng.uniform(0.02 * period, 0.98 * period))
            if n == 2 and abs(tau - 0.5 * period) < 0.02 * period:
                continue  # complete-transfer point: P_1 = 1
            samples.append(tau)
        for tau in samples:
            _, ents = entropy_grid(spec, np.array([tau - step, tau + step]))
            difference = (float(ents[1]) - float(ents[0])) / (2.0 * step)
            deviation = abs(entropy_rate_m1(spec, tau) - difference)
            worst_fd = max(worst_fd, deviation)
        crit = critical_times_m1(spec)
        stationary = [crit.t_double_prime]
        if crit.t_prime is not None:
            stationary.append(crit.t_prime)
        for tau in stationary:
            worst_root = max(worst_root, abs(entropy_rate_m1(spec, tau)))
    ok &= worst_fd < 1e-5 and worst_root < 1e-10
    report(
        6,
        "analytic entropy rate vs finite differences",
        ok,
        f"max FD deviation = {worst_fd:.2e}, max |rate| at roots = {worst_root:.2e}",
    )


def test_criterion_7_normalization_and_range():
    # re-evaluates the probability grids of all configurations the other
    # criteria touch: the scan periods for N=2..30 (M=1) and random times for
    # every sector N<=10
    worst_sum = 0.0
    ok = True
    rng = np.random.default_rng(31)
    configs = [(n, 1) for n in range(2, 31)]
    configs += [(n, m) for n in range(2, 11) for m in range(0, n + 1)]
    for n, m in configs:
        spec = ModelSpec(n, m)
        period_grid = np.linspace(0.0, 2.0 * math.pi / n, 257)
        random_grid = rng.uniform(0.0, 4.0 * math.pi, 64)
        for taus in (period_grid, random_grid):
            probs, ents = entropy_grid(spec, taus)
            worst_sum = max(worst_sum, float(np.max(np.abs(probs.sum(axis=1) - 1.0))))
            ok &= bool(np.all(ents >= 0.0))
            ok &= bool(np.all(ents <= math.log2(spec.m_prime + 1) + 1e-12))
    ok &= worst_sum < 1e-12
    report(
        7,
        "probability sums and entropy bounds",
        ok,
        f"max |sum(P) - 1| = {worst_sum:.2e}",
    )


def test_criterion_8_figure_data_properties(tmp_path):
    out_dir = tmp_path / "figs"
    assert main(["figures", "--out-dir", str(out_dir)]) == 0

    fig1_rows = [line.split(",") for line in (out_dir / "fig1.csv").read_text().splitlines()[1:]]
    by_n: dict[int, list[tuple[float, float]]] = {}
    for row in fig1_rows:
        gap = abs(float(row[3]) - float(row[2]))
        by_n.setdefault(int(row[0]), []).append((float(row[4]), gap))
    ok = set(by_n) == set(range(2, 9))
    for points in by_n.values():
        entropies = np.array([e for e, _ in points])
        gaps = np.array([g for _, g in points])
        ok &= bool(gaps[int(np.argmax(entropies))] <= gaps.min() + 1e-15)

    fig2_rows = [line.split(",") for line in (out_dir / "fig2.csv").read_text().splitlines()[1:]]
    peaks: dict[int, float] = {}
    for row in fig2_rows:
        n, ent = int(row[0]), float(row[3])
        peaks[n] = max(peaks.get(n, 0.0), ent)
    worst_gap = max(abs(peaks[n] - 1.0) for n in range(2, 7))
    ok &= worst_gap <= 1e-6
    report(
        8,
        "figure families: balanced argmax and unit peaks",
        ok,
        f"argmax balance holds for N=2..8, max |peak - 1| = {worst_gap:.2e} for N<=6",
    )


def _sum_rule_deviation(spec: ModelSpec, drop: int = 0) -> float:
    """Worst |mean of P_m - D_m sum_n b[m][n]^2| over m, the mean taken on a
    uniform grid of K - ``drop`` points over one period 2 pi / g.

    The frequencies phi_n = n(N+1-n) - M(N-M) are distinct for n <= M', so
    every cross term e^{-i(phi_n - phi_n') tau} of P_m oscillates with a
    nonzero multiple of g below K g and averages to zero on K points; the
    long-time average D_m sum_n b[m][n]^2 is exact and rational.
    """
    n_total, m_excited = spec.n_total, spec.m_excited
    phases = [n * (n_total + 1 - n) - m_excited * (n_total - m_excited)
              for n in range(spec.m_prime + 1)]
    g = math.gcd(*(phi - phases[0] for phi in phases[1:]))
    points = (phases[-1] - phases[0]) // g + 1 - drop
    taus = np.linspace(0.0, 2.0 * math.pi / g, points, endpoint=False)
    probs, _ = entropy_grid(spec, taus)
    table = b_table(spec)
    exact = [
        d * sum((b * b for b in row), Fraction(0))
        for d, row in zip(schmidt_multiplicities(spec), table.entries)
    ]
    assert sum(exact) == 1
    return float(np.max(np.abs(probs.mean(axis=0) - [float(p) for p in exact])))


def test_criterion_9_time_average_sum_rule():
    start = time.perf_counter()
    specs = [(7, 1), (13, 6), (30, 11), (80, 40), (200, 1), (200, 100)]
    worst = max(_sum_rule_deviation(ModelSpec(n, m)) for n, m in specs)
    # one point short, the top frequency aliases onto the mean
    aliased = _sum_rule_deviation(ModelSpec(7, 1), drop=1)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-13 and aliased > 0.1
    report(
        9,
        "period mean of P_m vs exact D_m sum_n b[m][n]^2",
        ok,
        f"max deviation = {worst:.2e} up to N=200, {aliased:.2e} one point short, {elapsed:.2f}s",
    )


def test_criterion_10_oracle_reach():
    # the largest balanced sectors of the old hop-table budget, seeded as verify seeds them
    start = time.perf_counter()
    worst_p = worst_e = 0.0
    ok = True
    for n, m in ((16, 8), (18, 9)):
        rep = verify_closed_form(ModelSpec(n, m), verify_times(n, m))
        ok &= rep.passed and rep.tolerance == 1e-9
        worst_p = max(worst_p, rep.max_spectrum_deviation)
        worst_e = max(worst_e, rep.max_entropy_deviation)
    elapsed = time.perf_counter() - start
    ok &= worst_p < 1e-9 and worst_e < 1e-9 and elapsed < 60.0
    report(
        10,
        "closed form vs sector hop Hamiltonian at (16,8) and (18,9)",
        ok,
        f"max|dP| = {worst_p:.2e}, max|dE| = {worst_e:.2e}, {elapsed:.1f}s",
    )


def test_criterion_11_oracle_reach_of_the_lowering_table():
    # balanced sectors past the hop-table budget, seeded as verify seeds
    # them; (24,12) is a manual run, see the README
    start = time.perf_counter()
    worst_p = worst_e = 0.0
    ok = True
    for n, m, samples in ((20, 10, 64), (22, 11, 8)):
        rep = verify_closed_form(ModelSpec(n, m), verify_times(n, m)[:samples])
        ok &= rep.passed and rep.tolerance == 1e-9
        worst_p = max(worst_p, rep.max_spectrum_deviation)
        worst_e = max(worst_e, rep.max_entropy_deviation)
    elapsed = time.perf_counter() - start
    ok &= worst_p < 1e-9 and worst_e < 1e-9 and elapsed < 60.0
    report(
        11,
        "closed form vs sector lowering table at (20,10), 64 samples, and (22,11), 8 samples",
        ok,
        f"max|dP| = {worst_p:.2e}, max|dE| = {worst_e:.2e}, {elapsed:.1f}s",
    )
