"""Command-line front end: evolve, maxima, verify and figures subcommands.

Output contract: CSV with comma separator, dot decimal, LF line endings and
a mandatory header row; floats are printed in shortest round-trip form, so
identical configurations produce identical bytes.  Exit codes: 0 success,
1 runtime/numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .entanglement import entropy_grid, magic_number_scan
from .model import ModelSpec
from .oracle import (
    SECTOR_SITE_BUDGET,
    BudgetExceededError,
    verify_closed_form,
)
from .svgplot import line_plot

DEFAULT_N = 4
DEFAULT_M = 1
DEFAULT_STEPS = 512
VERIFY_DEFAULT_N_MAX = 8
VERIFY_SAMPLES = 64
WORKER_ENV_VAR = "SPINVDW_WORKERS"

FIG1_N_RANGE = range(2, 9)
FIG2_N_RANGE = range(2, 11)
FIG3_N_MAX = 30
FIG1_GRID = 2048
FIG2_GRID = 4096


class UsageError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    n_total: int
    m_excited: int
    m_explicit: bool  # m came from a flag or config file, not the default
    tau_max: float
    steps: int
    output_path: Path | None
    svg: bool
    n_range: tuple[int, int]
    out_dir: Path | None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        handler = _COMMANDS[config.command]
        return handler(config)
    except (UsageError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime / numeric / I-O failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinvdw",
        description="Exact entanglement dynamics of equivalent-neighbor spin-1/2 XY systems.",
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        help="optional key=value config file (flags take precedence)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    evolve = sub.add_parser("evolve", help="Schmidt spectrum and entropy along a time grid")
    evolve.add_argument("--n", type=int, default=None, help="total number of sites")
    evolve.add_argument("--m", type=int, default=None, help="initially excited sites")
    evolve.add_argument("--tau-max", type=float, default=None, help="end of the tau grid (default one period 2*pi/N)")
    evolve.add_argument("--steps", type=int, default=None, help="number of grid points, endpoints included")
    evolve.add_argument("--out", type=Path, default=None, help="output CSV path")
    evolve.add_argument("--svg", action="store_true", default=None, help="also write an SVG plot next to the CSV")

    maxima = sub.add_parser("maxima", help="maximum entanglement per system size (single excitation)")
    maxima.add_argument("--n-min", type=int, default=None)
    maxima.add_argument("--n-max", type=int, default=None)
    maxima.add_argument("--out", type=Path, default=None, help="output CSV path")

    verify = sub.add_parser("verify", help="cross-check closed forms against dense diagonalization")
    verify.add_argument("--n-max", type=int, default=None)
    verify.add_argument("--m", type=int, default=None, help="restrict to one excitation count (default: all M <= N/2)")
    verify.add_argument("--out", type=Path, default=None, help="optional report file")

    figures = sub.add_parser("figures", help="emit the bundled curve-family datasets")
    figures.add_argument("--out-dir", type=Path, default=None)
    figures.add_argument("--svg", action="store_true", default=None, help="also write SVG plots")

    return parser


def _load_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _pick(flag, file_values: dict[str, str], key: str, cast, default):
    """Flag > config file > default."""
    if flag is not None:
        return flag
    if key in file_values:
        try:
            return cast(file_values[key])
        except ValueError as exc:
            raise UsageError(f"bad config value for {key}: {file_values[key]!r}") from exc
    return default


def _cast_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = _load_config_file(args.config) if args.config else {}
    n_total = _pick(getattr(args, "n", None), file_values, "n", int, DEFAULT_N)
    m_given = _pick(getattr(args, "m", None), file_values, "m", int, None)
    m_excited = DEFAULT_M if m_given is None else m_given
    if n_total < 2:
        raise UsageError(f"n must be >= 2, got {n_total}")
    n_min = _pick(getattr(args, "n_min", None), file_values, "n_min", int, 2)
    default_n_max = VERIFY_DEFAULT_N_MAX if args.command == "verify" else FIG3_N_MAX
    n_max = _pick(getattr(args, "n_max", None), file_values, "n_max", int, default_n_max)
    if n_min < 2 or n_max < n_min:
        raise UsageError(f"need 2 <= n-min <= n-max, got {n_min}..{n_max}")
    # verify's m restricts a sweep up to n-max; the other commands pin m to n
    m_bound = n_max if args.command == "verify" else n_total
    if not 0 <= m_excited <= m_bound:
        raise UsageError(f"m must lie in 0..{m_bound}, got {m_excited}")
    tau_max = _pick(
        getattr(args, "tau_max", None), file_values, "tau_max", float, 2.0 * math.pi / n_total
    )
    if not (math.isfinite(tau_max) and tau_max > 0):
        raise UsageError(f"tau-max must be positive and finite, got {tau_max}")
    steps = _pick(getattr(args, "steps", None), file_values, "steps", int, DEFAULT_STEPS)
    if steps < 2:
        raise UsageError(f"steps must be >= 2, got {steps}")
    out = _pick(getattr(args, "out", None), file_values, "out", Path, None)
    out_dir = _pick(getattr(args, "out_dir", None), file_values, "out_dir", Path, Path("figures"))
    svg = _pick(getattr(args, "svg", None), file_values, "svg", _cast_bool, False)
    return RunConfig(
        command=args.command,
        n_total=n_total,
        m_excited=m_excited,
        m_explicit=m_given is not None,
        tau_max=tau_max,
        steps=steps,
        output_path=out,
        svg=bool(svg),
        n_range=(n_min, n_max),
        out_dir=out_dir,
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def cmd_evolve(config: RunConfig) -> int:
    spec = ModelSpec(config.n_total, config.m_excited)
    if config.output_path is None:
        raise UsageError("evolve needs --out")
    taus = np.linspace(0.0, config.tau_max, config.steps)
    probs, entropies = entropy_grid(spec, taus)
    header = ["tau"] + [f"p_{m}" for m in range(spec.m_prime + 1)] + ["entropy"]
    rows = (
        [_fmt(tau)] + [_fmt(p) for p in row] + [_fmt(ent)]
        for tau, row, ent in zip(taus, probs, entropies)
    )
    _write_csv(config.output_path, header, rows)
    if config.svg:
        series = [(f"p_{m}", taus, probs[:, m]) for m in range(spec.m_prime + 1)]
        series.append(("entropy", taus, entropies))
        svg = line_plot(
            series,
            title=f"N={spec.n_total}, M={spec.m_excited}",
            x_label="tau",
            y_label="probability / ebits",
        )
        config.output_path.with_suffix(".svg").write_text(svg)
    return 0


def cmd_maxima(config: RunConfig) -> int:
    if config.m_excited != 1:
        raise UsageError(
            "maxima covers the single-excitation case only; closed-form critical "
            "times exist for m = 1 (use evolve for other excitation counts)"
        )
    if config.output_path is None:
        raise UsageError("maxima needs --out")
    n_min, n_max = config.n_range
    rows = [row for row in magic_number_scan(n_max) if row.n_total >= n_min]
    header = ["n", "tau_prime", "tau_double_prime", "max_entropy", "argmax_tau"]
    csv_rows = (
        [
            str(row.n_total),
            _fmt(row.t_prime) if row.t_prime is not None else "",
            _fmt(row.t_double_prime),
            _fmt(row.max_entropy),
            _fmt(row.argmax_tau),
        ]
        for row in rows
    )
    _write_csv(config.output_path, header, csv_rows)
    return 0


def _worker_count() -> int:
    raw = os.environ.get(WORKER_ENV_VAR, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError(f"{WORKER_ENV_VAR} must be a positive integer, got {raw!r}")
    return workers


def cmd_verify(config: RunConfig) -> int:
    n_min, n_max = config.n_range
    if n_max > SECTOR_SITE_BUDGET:
        raise UsageError(
            f"verify is limited to n-max <= {SECTOR_SITE_BUDGET} (dense-solver budget)"
        )
    pairs = []
    for n in range(n_min, n_max + 1):
        if config.m_explicit:
            if config.m_excited <= n:
                pairs.append((n, config.m_excited))
        else:
            pairs.extend((n, m) for m in range(0, n // 2 + 1))
    if not pairs:
        raise UsageError(
            f"no (N, M) sectors to verify for m={config.m_excited}, n-max={n_max}"
        )

    def check(pair):
        n, m = pair
        rng = np.random.default_rng(1_000 * n + m)
        taus = rng.uniform(0.0, 4.0 * math.pi, VERIFY_SAMPLES)
        return pair, verify_closed_form(ModelSpec(n, m), taus)

    workers = _worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(check, pairs))
    else:
        results = dict(map(check, pairs))

    lines = ["closed-form verification against dense diagonalization"]
    all_passed = True
    for pair in pairs:
        report = results[pair]
        status = "PASS" if report.passed else "FAIL"
        all_passed &= report.passed
        lines.append(
            f"N={pair[0]:2d} M={pair[1]:2d} samples={report.sample_count} "
            f"max|dP|={report.max_spectrum_deviation:.3e} "
            f"max|dE|={report.max_entropy_deviation:.3e} {status}"
        )
    lines.append(
        f"{'all sectors PASS' if all_passed else 'FAILURES detected'} "
        f"(tolerance {results[pairs[0]].tolerance:g})"
    )
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if config.output_path is not None:
        config.output_path.write_text(text)
    return 0 if all_passed else 1


def cmd_figures(config: RunConfig) -> int:
    out_dir = config.out_dir if config.out_dir is not None else Path("figures")
    out_dir.mkdir(parents=True, exist_ok=True)

    # family 1: Schmidt probabilities and entropy over one period per N
    header1 = ["n", "tau", "p_0", "p_1", "entropy"]
    rows1 = []
    series1 = []
    for n in FIG1_N_RANGE:
        spec = ModelSpec(n, 1)
        taus = np.linspace(0.0, 2.0 * math.pi / n, FIG1_GRID + 1)
        probs, entropies = entropy_grid(spec, taus)
        rows1.extend(
            [str(n), _fmt(tau), _fmt(row[0]), _fmt(row[1]), _fmt(ent)]
            for tau, row, ent in zip(taus, probs, entropies)
        )
        series1.append((f"p_0 N={n}", taus, probs[:, 0]))
        series1.append((f"p_1 N={n}", taus, probs[:, 1]))
        series1.append((f"E N={n}", taus, entropies))
    _write_csv(out_dir / "fig1.csv", header1, rows1)

    # family 2: entropy against the rescaled time N*tau
    header2 = ["n", "tau", "rescaled_tau", "entropy"]
    rows2 = []
    series2 = []
    for n in FIG2_N_RANGE:
        spec = ModelSpec(n, 1)
        taus = np.linspace(0.0, 2.0 * math.pi / n, FIG2_GRID + 1)
        _, entropies = entropy_grid(spec, taus)
        rescaled = n * taus
        rows2.extend(
            [str(n), _fmt(tau), _fmt(r), _fmt(ent)]
            for tau, r, ent in zip(taus, rescaled, entropies)
        )
        series2.append((f"N={n}", rescaled, entropies))
    _write_csv(out_dir / "fig2.csv", header2, rows2)

    # family 3: maximum entanglement against system size
    scan = magic_number_scan(FIG3_N_MAX)
    header3 = ["n", "max_entropy"]
    rows3 = [[str(row.n_total), _fmt(row.max_entropy)] for row in scan]
    _write_csv(out_dir / "fig3.csv", header3, rows3)

    if config.svg:
        (out_dir / "fig1.svg").write_text(
            line_plot(series1, title="Schmidt probabilities and entanglement, M=1",
                      x_label="tau", y_label="probability / ebits")
        )
        (out_dir / "fig2.svg").write_text(
            line_plot(series2, title="Entanglement vs rescaled time, M=1",
                      x_label="N tau", y_label="ebits")
        )
        (out_dir / "fig3.svg").write_text(
            line_plot(
                [("max entanglement", [row.n_total for row in scan], [row.max_entropy for row in scan])],
                title="Maximum entanglement vs system size, M=1",
                x_label="N",
                y_label="ebits",
            )
        )
    return 0


_COMMANDS = {
    "evolve": cmd_evolve,
    "maxima": cmd_maxima,
    "verify": cmd_verify,
    "figures": cmd_figures,
}


if __name__ == "__main__":
    sys.exit(main())
