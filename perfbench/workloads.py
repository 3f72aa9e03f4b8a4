"""The benchmark's four workloads: their fixed inputs and correctness gates.

Each workload is one *pass*: one or more fresh ``passrun.py`` processes whose
outputs are checked afterwards. Only ``grid``'s random times and its
spot-check sample points depend on the seed; every other input is fixed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GRID_TAU_MAX = 4.0 * math.pi
GRID_SAMPLES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    # (out_dir, seed) -> one passrun argument list (MODE ARGS...) per process
    commands: Callable[[Path, int], list[list[str]]]
    # (out_dir, seed, process results, stdout texts) -> failure messages
    check: Callable[[Path, int, list[dict], list[str]], list[str]]


def make_workloads(small: bool = False) -> dict[str, Workload]:
    """The benchmark workloads; ``small`` shrinks every input for smoke tests."""
    scan_n_max = 12 if small else 200
    grid_points = 2_000 if small else 200_000
    grid_specs = ((20, 1), (10, 5)) if small else ((200, 1), (40, 20), (80, 40))
    verify_n_max = 5 if small else 13
    evolve_n, evolve_m, evolve_steps = (8, 4, 600) if small else (24, 12, 60_000)
    return {
        # ~6.5k entropy_grid calls (one grid plus ~32 golden-section points per
        # N), each rebuilding the exact b_table: combinatorics and per-call
        # overhead dominate, the kernel and the CSV do little.
        "scan": Workload(
            "scan",
            lambda out, seed: [
                ["cli", "maxima", "--n-min", "2", "--n-max", str(scan_n_max),
                 "--out", str(out / "maxima.csv")]
            ],
            lambda out, seed, results, stdout: check_scan(out / "maxima.csv", scan_n_max),
        ),
        # No CLI and no output: the kernel dominates time and peak memory. The
        # uniform/random split shows a trick that only works on uniform grids.
        "grid": Workload(
            "grid",
            lambda out, seed: [
                ["grid", str(seed), str(grid_points)] + [f"{n}:{m}" for n, m in grid_specs]
            ],
            lambda out, seed, results, stdout: check_grid(
                results[0].get("grid", {}), seed, grid_points, grid_specs
            ),
        ),
        # The oracle does nearly all the work; n-max 14 would add one 17 s
        # sector to every pass without adding another oracle stage.
        "verify": Workload(
            "verify",
            lambda out, seed: [["cli", "verify", "--n-max", str(verify_n_max)]],
            lambda out, seed, results, stdout: check_verify(stdout[0], verify_n_max),
        ),
        # Float-to-text CSV and SVG polylines (~35 MB) dominate: the write-side
        # pair of grid, pushing long uniform grids through the same kernel.
        "export": Workload(
            "export",
            lambda out, seed: [
                ["cli", "figures", "--out-dir", str(out), "--svg"],
                ["cli", "evolve", "--n", str(evolve_n), "--m", str(evolve_m),
                 "--steps", str(evolve_steps), "--svg", "--out", str(out / "evolve.csv")],
            ],
            lambda out, seed, results, stdout: check_export(out, evolve_m, evolve_steps),
        ),
    }


# --- grid inputs, shared with the pass process ------------------------------

def grid_tau_sets(seed: int, points: int) -> dict:
    """A uniform grid over [0, 4 pi) and a sorted seeded random set in it."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return {
        "uniform": np.linspace(0.0, GRID_TAU_MAX, points, endpoint=False),
        "random": np.sort(rng.uniform(0.0, GRID_TAU_MAX, points)),
    }


def grid_sample_indices(seed: int, points: int):
    """Spot-check indices: both ends plus seeded interior points."""
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    return np.concatenate(([0, points - 1], rng.integers(1, points - 1, GRID_SAMPLES)))


# --- correctness gates --------------------------------------------------------

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def reference_max_entropy(n: int) -> float:
    """Closed-form entanglement at tau'' = pi/N for M = 1, N >= 3, in ebits."""
    return (2.0 / n**2) * (
        n**2 * math.log2(n)
        - (n - 2) ** 2 * math.log2(n - 2)
        - 2.0 * (n - 1.0) * math.log2(4.0 * (n - 1.0))
    )


def check_scan(path: Path, n_max: int) -> list[str]:
    header, rows = _read_csv(path)
    if header != ["n", "tau_prime", "tau_double_prime", "max_entropy", "argmax_tau"]:
        return [f"maxima header {header}"]
    if [int(row[0]) for row in rows] != list(range(2, n_max + 1)):
        return [f"maxima has {len(rows)} rows, want N = 2..{n_max}"]
    errors = []
    best = {int(row[0]): float(row[3]) for row in rows}
    wrong = []
    for n, value in best.items():
        want = 1.0 if n <= 6 else reference_max_entropy(n)
        if abs(value - want) > 1e-12:
            wrong.append(f"N={n}: {value!r} != {want!r}")
    if wrong:
        errors.append(f"max_entropy wrong for {len(wrong)} sizes, first {wrong[0]}")
    tail = [best[n] for n in range(7, n_max + 1)]
    if any(later >= earlier for earlier, later in zip(tail, tail[1:])):
        errors.append("max_entropy is not strictly decreasing for N >= 7")
    return errors


@functools.lru_cache(maxsize=4)
def grid_reference(seed: int, points: int, specs: tuple) -> dict:
    """Entropies at the spot-check points from the non-kernel path
    (amplitudes_at -> schmidt_spectrum -> entropy), computed once per inputs."""
    from spinvdw import amplitudes_at, b_table, entropy, schmidt_spectrum
    from spinvdw.model import ModelSpec

    tau_sets = grid_tau_sets(seed, points)
    sample = grid_sample_indices(seed, points)
    reference = {}
    for n, m in specs:
        spec = ModelSpec(n, m)
        table = b_table(spec)
        for kind, taus in tau_sets.items():
            reference[f"{n}:{m}/{kind}"] = [
                entropy(schmidt_spectrum(amplitudes_at(spec, table, float(taus[i]))))
                for i in sample
            ]
    return reference


def check_grid(grid: dict, seed: int, points: int, specs) -> list[str]:
    reference = grid_reference(seed, points, specs)
    if sorted(grid) != sorted(reference):
        return [f"grid results for {sorted(grid)}, want {sorted(reference)}"]
    errors = []
    for key, want in reference.items():
        got = grid[key]
        n, m = map(int, key.split("/")[0].split(":"))
        if got["shape"] != [points, min(m, n - m) + 1]:
            errors.append(f"{key}: probabilities shape {got['shape']}")
        if not got["in_range"]:
            errors.append(f"{key}: entropy outside [0, log2(M'+1)]")
        worst = max(abs(a - b) for a, b in zip(got["samples"], want))
        if worst > 1e-12:
            errors.append(f"{key}: kernel vs amplitudes_at entropy differ by {worst:.3e}")
    return errors


def check_verify(stdout: str, n_max: int) -> list[str]:
    lines = stdout.splitlines()
    sectors = [line for line in lines if line.startswith("N=")]
    want = sum(n // 2 + 1 for n in range(2, n_max + 1))
    errors = []
    if len(sectors) != want or not all(line.endswith(" PASS") for line in sectors):
        errors.append(f"{len(sectors)} sector lines (want {want}, all PASS)")
    if not lines or not lines[-1].startswith("all sectors PASS"):
        errors.append(f"verify summary {lines[-1:]!r}")
    return errors


def check_export(out: Path, evolve_m: int, evolve_steps: int) -> list[str]:
    expected = {
        "fig1.csv": (["n", "tau", "p_0", "p_1", "entropy"], 7 * 2049),
        "fig2.csv": (["n", "tau", "rescaled_tau", "entropy"], 9 * 4097),
        "fig3.csv": (["n", "max_entropy"], 29),
        "evolve.csv": (
            ["tau"] + [f"p_{m}" for m in range(evolve_m + 1)] + ["entropy"],
            evolve_steps,
        ),
    }
    errors = []
    for name, (want_header, want_rows) in expected.items():
        path = out / name
        if not path.is_file():
            errors.append(f"{name} missing")
            continue
        header, rows = _read_csv(path)
        if header != want_header or len(rows) != want_rows:
            errors.append(f"{name}: header {header}, {len(rows)} rows")
        elif any(len(row) != len(header) for row in rows):
            errors.append(f"{name}: ragged rows")
    for name in ("fig1.svg", "fig2.svg", "fig3.svg", "evolve.svg"):
        path = out / name
        if not path.is_file() or not path.read_text().rstrip().endswith("</svg>"):
            errors.append(f"{name} missing or truncated")
    return errors
