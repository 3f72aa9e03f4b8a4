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

VERIFY_SAMPLES = 64
WORKER_ENV_VAR = "SPINVDW_WORKERS"

FIG1_N_RANGE = range(2, 9)
FIG2_N_RANGE = range(2, 11)
FIG3_N_MAX = 30
FIG1_GRID = 2048
FIG2_GRID = 4096


class UsageError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except (UsageError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime / numeric / I-O failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and, by name, the subcommand parsers."""
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
    for name, (_, help_text, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kind, default, flag_help in options:
            kwargs = {"action": "store_true"} if kind is bool else {"type": kind}
            command.add_argument(flag, default=default, help=flag_help, **kwargs)
    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """Flags > config file > declared defaults.

    The config file's values become the chosen subcommand's defaults, and
    the command line is parsed again on top of them.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        commands[args.command].set_defaults(**_load_config_file(args.config, args.command))
        args = parser.parse_args(argv)
    return args


def _load_config_file(path: Path, command: str) -> dict[str, object]:
    """``key=value`` lines, each naming a flag of ``command`` with underscores
    for dashes (``tau_max=0.5``) and cast with that flag's type."""
    casts = {
        flag.lstrip("-").replace("-", "_"): _cast_bool if kind is bool else kind
        for flag, kind, _, _ in _COMMANDS[command][2]
    }
    values: dict[str, object] = {}
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
        key, _, text = (part.strip() for part in line.partition("="))
        if key not in casts:
            raise UsageError(
                f"unknown config key {key!r} for {command}; expected one of {', '.join(casts)}"
            )
        try:
            values[key] = casts[key](text)
        except ValueError as exc:
            raise UsageError(f"bad config value for {key}: {text!r}") from exc
    return values


def _cast_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _check_n_range(n_min: int, n_max: int) -> None:
    if n_min < 2 or n_max < n_min:
        raise UsageError(f"need 2 <= n-min <= n-max, got {n_min}..{n_max}")


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def cmd_evolve(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise UsageError(f"n must be >= 2, got {args.n}")
    if not 0 <= args.m <= args.n:
        raise UsageError(f"m must lie in 0..{args.n}, got {args.m}")
    tau_max = 2.0 * math.pi / args.n if args.tau_max is None else args.tau_max
    if not (math.isfinite(tau_max) and tau_max > 0):
        raise UsageError(f"tau-max must be positive and finite, got {tau_max}")
    if args.steps < 2:
        raise UsageError(f"steps must be >= 2, got {args.steps}")
    spec = ModelSpec(args.n, args.m)
    if args.out is None:
        raise UsageError("evolve needs --out")
    taus = np.linspace(0.0, tau_max, args.steps)
    probs, entropies = entropy_grid(spec, taus)
    header = ["tau"] + [f"p_{m}" for m in range(spec.m_prime + 1)] + ["entropy"]
    rows = (
        [_fmt(tau)] + [_fmt(p) for p in row] + [_fmt(ent)]
        for tau, row, ent in zip(taus, probs, entropies)
    )
    _write_csv(args.out, header, rows)
    if args.svg:
        series = [(f"p_{m}", taus, probs[:, m]) for m in range(spec.m_prime + 1)]
        series.append(("entropy", taus, entropies))
        svg = line_plot(
            series,
            title=f"N={spec.n_total}, M={spec.m_excited}",
            x_label="tau",
            y_label="probability / ebits",
        )
        args.out.with_suffix(".svg").write_text(svg)
    return 0


def cmd_maxima(args: argparse.Namespace) -> int:
    _check_n_range(args.n_min, args.n_max)
    if args.out is None:
        raise UsageError("maxima needs --out")
    rows = [row for row in magic_number_scan(args.n_max) if row.n_total >= args.n_min]
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
    _write_csv(args.out, header, csv_rows)
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


def cmd_verify(args: argparse.Namespace) -> int:
    n_max = args.n_max
    _check_n_range(2, n_max)
    if args.m is not None and not 0 <= args.m <= n_max:
        raise UsageError(f"m must lie in 0..{n_max}, got {args.m}")
    if n_max > SECTOR_SITE_BUDGET:
        raise UsageError(
            f"verify is limited to n-max <= {SECTOR_SITE_BUDGET} (dense-solver budget)"
        )
    pairs = []
    for n in range(2, n_max + 1):
        if args.m is None:
            pairs.extend((n, m) for m in range(0, n // 2 + 1))
        elif args.m <= n:
            pairs.append((n, args.m))
    if not pairs:
        raise UsageError(f"no (N, M) sectors to verify for m={args.m}, n-max={n_max}")

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
    if args.out is not None:
        args.out.write_text(text)
    return 0 if all_passed else 1


def cmd_figures(args: argparse.Namespace) -> int:
    out_dir = args.out_dir
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

    if args.svg:
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


# Each subcommand's handler, help and options.  Every option is declared once
# as (flag, type, default, help): the parser is built from these, and a config
# file key is a flag of the chosen subcommand with underscores for dashes.
# A bool option is a switch.
_COMMANDS = {
    "evolve": (cmd_evolve, "Schmidt spectrum and entropy along a time grid", (
        ("--n", int, 4, "total number of sites"),
        ("--m", int, 1, "initially excited sites"),
        ("--tau-max", float, None, "end of the tau grid (default one period 2*pi/N)"),
        ("--steps", int, 512, "number of grid points, endpoints included"),
        ("--out", Path, None, "output CSV path"),
        ("--svg", bool, False, "also write an SVG plot next to the CSV"),
    )),
    "maxima": (cmd_maxima, "maximum entanglement per system size (single excitation)", (
        ("--n-min", int, 2, None),
        ("--n-max", int, FIG3_N_MAX, None),
        ("--out", Path, None, "output CSV path"),
    )),
    "verify": (cmd_verify, "cross-check closed forms against dense diagonalization", (
        ("--n-max", int, 8, None),
        ("--m", int, None, "restrict to one excitation count (default: all M <= N/2)"),
        ("--out", Path, None, "optional report file"),
    )),
    "figures": (cmd_figures, "emit the bundled curve-family datasets", (
        ("--out-dir", Path, Path("figures"), None),
        ("--svg", bool, False, "also write SVG plots"),
    )),
}


if __name__ == "__main__":
    sys.exit(main())
