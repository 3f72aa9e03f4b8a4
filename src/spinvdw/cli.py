"""Command-line front end: evolve, maxima, verify and figures subcommands.

Output contract: CSV with comma separator, dot decimal, LF line endings and
a mandatory header row; floats are printed in shortest round-trip form, so
identical configurations produce identical bytes, whether a long table is
formatted in one process or two.  Exit codes: 0 success,
1 runtime/numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

import numpy as np

from .backend import _available_cpus
from .entanglement import entropy_grid, magic_number_scan
from .model import ModelSpec
from .oracle import (
    SECTOR_SITE_BUDGET,
    BudgetExceededError,
    VerificationReport,
    verify_closed_form,
)
from .svgplot import line_plot

FIG1_N_RANGE = range(2, 9)
FIG2_N_RANGE = range(2, 11)
FIG3_N_MAX = 30
FIG2_GRID = 4096

# Evolve tables of at least this many floats are formatted in two processes
# where fork and a second CPU exist (see _float_blocks); the figures' tables
# (72k and 147k floats) stay in this process.  Measured on a shared
# 2-vCPU Xeon with 15-column tables, one fresh process per run, 11
# alternating pairs: two processes lost at 200k values (0.40 s against
# 0.33 s in one), broke even near 300k and won from 400k on (0.43 s against
# 0.57 s); while the host was busy they still lost at 650k.
PARALLEL_FORMAT_VALUES = 500_000

VERIFY_SAMPLES = 64


def verify_times(n: int, m: int) -> np.ndarray:
    """The ``VERIFY_SAMPLES`` times at which ``verify`` checks sector (n, m):
    uniform draws on [0, 4*pi] from the stdlib generator seeded with
    ``1000*n + m``.

    Python keeps ``random.Random``'s sequence for an int seed across
    releases, which numpy does not promise for its generators, so verify's
    times do not depend on the numpy release.  ``random`` is already
    loaded when the CLI starts, where importing ``numpy.random`` would add
    about 5.5 MiB to the process.
    """
    draw = random.Random(1_000 * n + m).uniform
    return np.array([draw(0.0, 4.0 * math.pi) for _ in range(VERIFY_SAMPLES)])


class UsageError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (UsageError, BudgetExceededError)) else 1


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


def _fmt(value: float) -> str:
    return repr(float(value))


def _format_block(parts) -> str:
    """CSV text of every row of the (prefix, 2-d float table) parts: one
    LF-ended line per row, the prefix and then each value in shortest
    round-trip form (``repr`` of the Python float)."""
    return "".join(
        "\n".join([prefix + ",".join(map(repr, row)) for row in table.tolist()]) + "\n"
        for prefix, table in parts
    )


def _float_blocks(table: np.ndarray) -> list[str]:
    """The CSV text of a 2-d float table, as one or two :func:`_format_block`
    blocks.

    A table of at least ``PARALLEL_FORMAT_VALUES`` values, on a machine with
    a second CPU and the fork start method, is cut at half its rows: this
    process formats the first half while one forked process formats the
    second.  Both halves are formatted by the same function, so the text
    does not depend on the process count.  The worker's exception is raised
    here.
    """
    if table.size >= PARALLEL_FORMAT_VALUES and _available_cpus() > 1:
        # imported here: multiprocessing and concurrent.futures would add to
        # the start-up of every command, and only long tables use them
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            # fork, not spawn: a spawned worker would import numpy and the package
            # again, and no other thread runs here once the kernel has joined its helper
            from concurrent.futures import ProcessPoolExecutor

            half = len(table) // 2
            with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
                second = pool.submit(_format_block, [("", table[half:])])
                return [_format_block([("", table[:half])]), second.result()]
    return [_format_block([("", table)])]


def _write_csv(path: Path, header: list[str], blocks) -> None:
    """The header line and then the LF-ended text blocks, through one file."""
    with path.open("w") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(blocks)


def _write_plot(csv_path: Path, series, title: str, x_label: str, y_label: str) -> None:
    """The SVG line plot of ``series`` next to the CSV at ``csv_path``, with
    the suffix ``.svg``."""
    svg = line_plot(series, title=title, x_label=x_label, y_label=y_label)
    csv_path.with_suffix(".svg").write_text(svg)


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
    if args.svg and args.out.with_suffix(".svg") == args.out:
        raise UsageError(f"--svg would overwrite the CSV {args.out}; give --out another suffix")
    taus = np.linspace(0.0, tau_max, args.steps)
    probs, entropies = entropy_grid(spec, taus)
    header = ["tau"] + [f"p_{m}" for m in range(spec.m_prime + 1)] + ["entropy"]
    _write_csv(args.out, header, _float_blocks(np.column_stack([taus, probs, entropies])))
    if args.svg:
        series = [(f"p_{m}", taus, probs[:, m]) for m in range(spec.m_prime + 1)]
        series.append(("entropy", taus, entropies))
        _write_plot(args.out, series, f"N={spec.n_total}, M={spec.m_excited}",
                    "tau", "probability / ebits")
    return 0


def cmd_maxima(args: argparse.Namespace) -> int:
    if args.n_min < 2 or args.n_max < args.n_min:
        raise UsageError(f"need 2 <= n-min <= n-max, got {args.n_min}..{args.n_max}")
    if args.out is None:
        raise UsageError("maxima needs --out")
    rows = magic_number_scan(args.n_max, args.n_min)
    header = ["n", "tau_prime", "tau_double_prime", "max_entropy", "argmax_tau"]
    lines = [
        ",".join([
            str(row.n_total),
            _fmt(row.t_prime) if row.t_prime is not None else "",
            _fmt(row.t_double_prime),
            _fmt(row.max_entropy),
            _fmt(row.argmax_tau),
        ]) + "\n"
        for row in rows
    ]
    _write_csv(args.out, header, lines)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    n_max = args.n_max
    if n_max < 2:
        raise UsageError(f"n-max must be >= 2, got {n_max}")
    if args.m is not None and not 0 <= args.m <= n_max:
        raise UsageError(f"m must lie in 0..{n_max}, got {args.m}")
    if n_max > SECTOR_SITE_BUDGET:
        raise UsageError(
            f"verify is limited to n-max <= {SECTOR_SITE_BUDGET} (sector budget)"
        )
    pairs = []
    for n in range(2, n_max + 1):
        if args.m is None:
            pairs.extend((n, m) for m in range(0, n // 2 + 1))
        elif args.m <= n:
            pairs.append((n, args.m))

    # part of the stdout contract: kept byte-stable although the oracle holds a lowering table
    lines = ["closed-form verification against the dense sector Hamiltonian"]
    all_passed = True
    for n, m in pairs:
        report = verify_closed_form(ModelSpec(n, m), verify_times(n, m))
        status = "PASS" if report.passed else "FAIL"
        all_passed &= report.passed
        lines.append(
            f"N={n:2d} M={m:2d} samples={report.sample_count} "
            f"max|dP|={report.max_spectrum_deviation:.3e} "
            f"max|dE|={report.max_entropy_deviation:.3e} {status}"
        )
    lines.append(
        f"{'all sectors PASS' if all_passed else 'FAILURES detected'} "
        f"(tolerance {VerificationReport.tolerance:g})"
    )
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        args.out.write_text(text)
    return 0 if all_passed else 1


def cmd_figures(args: argparse.Namespace) -> int:
    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    # one M = 1 curve per N on family 2's grid; family 1 takes every second
    # point, which is np.linspace's grid of half as many steps bit for bit
    parts1, series1, parts2, series2 = [], [], [], []
    for n in FIG2_N_RANGE:
        taus = np.linspace(0.0, 2.0 * math.pi / n, FIG2_GRID + 1)
        probs, entropies = entropy_grid(ModelSpec(n, 1), taus)
        if n in FIG1_N_RANGE:
            # family 1: Schmidt probabilities and entropy over one period
            table = np.column_stack([taus[::2], probs[::2], entropies[::2]])
            parts1.append((f"{n},", table))
            taus1, p_0, p_1, entropies1 = table.T
            series1 += [(f"p_0 N={n}", taus1, p_0), (f"p_1 N={n}", taus1, p_1),
                        (f"E N={n}", taus1, entropies1)]
        # family 2: entropy against the rescaled time N*tau
        rescaled = n * taus
        parts2.append((f"{n},", np.column_stack([taus, rescaled, entropies])))
        series2.append((f"N={n}", rescaled, entropies))
    fig1, fig2, fig3 = (out_dir / f"fig{k}.csv" for k in (1, 2, 3))
    _write_csv(fig1, ["n", "tau", "p_0", "p_1", "entropy"], [_format_block(parts1)])
    _write_csv(fig2, ["n", "tau", "rescaled_tau", "entropy"], [_format_block(parts2)])

    # family 3: maximum entanglement against system size
    scan = magic_number_scan(FIG3_N_MAX)
    rows3 = [f"{row.n_total},{_fmt(row.max_entropy)}\n" for row in scan]
    _write_csv(fig3, ["n", "max_entropy"], rows3)

    if args.svg:
        _write_plot(fig1, series1, "Schmidt probabilities and entanglement, M=1",
                    "tau", "probability / ebits")
        _write_plot(fig2, series2, "Entanglement vs rescaled time, M=1", "N tau", "ebits")
        _write_plot(fig3, [("max entanglement", [row.n_total for row in scan],
                            [row.max_entropy for row in scan])],
                    "Maximum entanglement vs system size, M=1", "N", "ebits")
    return 0


# Each subcommand's handler, help and options.  Every option is declared once
# as (flag, type, default, help): the parser is built from these, and a config
# file key is a flag of the chosen subcommand with underscores for dashes.
# A bool option is a switch.
_COMMANDS = {
    "evolve": (cmd_evolve, "Schmidt spectrum and entropy along a time grid", (
        ("--n", int, 4, "total number of sites"),
        ("--m", int, 1, "initially excited sites"),
        ("--tau-max", float, None,
         "end of the tau grid (default 2*pi/N, a period only when min(M, N-M) = 1)"),
        ("--steps", int, 512, "number of grid points, endpoints included"),
        ("--out", Path, None, "output CSV path"),
        ("--svg", bool, False, "also write an SVG plot next to the CSV"),
    )),
    "maxima": (cmd_maxima, "maximum entanglement per system size (single excitation)", (
        ("--n-min", int, 2, "smallest number of sites N"),
        ("--n-max", int, FIG3_N_MAX, "largest number of sites N"),
        ("--out", Path, None, "output CSV path"),
    )),
    "verify": (cmd_verify, "cross-check closed forms against the sector hop Hamiltonian", (
        ("--n-max", int, 8, f"check every N from 2 up to this, at most {SECTOR_SITE_BUDGET}"),
        ("--m", int, None, "restrict to one excitation count (default: all M <= N/2)"),
        ("--out", Path, None, "optional report file"),
    )),
    "figures": (cmd_figures, "emit the bundled curve-family datasets", (
        ("--out-dir", Path, Path("figures"), "directory for the CSV and SVG files"),
        ("--svg", bool, False, "also write SVG plots"),
    )),
}


if __name__ == "__main__":
    sys.exit(main())
