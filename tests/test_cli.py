from __future__ import annotations

import concurrent.futures
import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinvdw import cli, entanglement
from spinvdw.combinatorics import b_table
from spinvdw.cli import _build_parser, _format_block, _parse_args, main
from spinvdw.entanglement import entropy_grid
from spinvdw.model import ModelSpec
from spinvdw.oracle import BudgetExceededError
from spinvdw.svgplot import line_plot

SVG_NS = "{http://www.w3.org/2000/svg}"


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def report_cpus(monkeypatch, count):
    """Make the package see ``count`` available CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


FORK = "fork" in multiprocessing.get_all_start_methods()
TEST_PID = os.getpid()


def _fail_in_worker(parts):
    """``cli._format_block`` that raises in every process but the test's own;
    module level, so that the pool can send it to its worker by name."""
    if os.getpid() != TEST_PID:
        raise RuntimeError("formatting failed in the worker")
    return _format_block(parts)


def run_module(*args, cwd):
    """``python -m spinvdw.cli ARGS`` in a fresh interpreter, output captured."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "spinvdw.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


class TestEvolve:
    def test_two_site_quarter_period(self, tmp_path):
        out = tmp_path / "evolve.csv"
        code = main(
            ["evolve", "--n", "2", "--m", "1", "--tau-max", repr(math.pi),
             "--steps", "5", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["tau", "p_0", "p_1", "entropy"]
        assert len(rows) == 5
        assert rows[1][0] == repr(math.pi / 4)
        assert abs(float(rows[1][3]) - 1.0) < 1e-12

    def test_three_site_initial_row(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--n", "3", "--m", "1", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert abs(float(rows[0][1]) - 1.0) < 1e-12
        assert float(rows[0][3]) < 1e-12

    def test_seven_site_near_unit_entropy(self, tmp_path):
        out = tmp_path / "evolve.csv"
        code = main(
            ["evolve", "--n", "7", "--m", "1", "--tau-max", repr(math.pi),
             "--steps", "8", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[1][0]) == pytest.approx(math.pi / 7, abs=1e-15)
        assert abs(float(rows[1][3]) - 0.9997) < 5e-5

    def test_deterministic_bytes(self, tmp_path):
        args = ["evolve", "--n", "5", "--m", "2", "--steps", "64"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_svg_polylines_match_rows(self, tmp_path):
        out = tmp_path / "evolve.csv"
        code = main(
            ["evolve", "--n", "4", "--m", "2", "--steps", "33",
             "--out", str(out), "--svg"]
        )
        assert code == 0
        svg = out.with_suffix(".svg")
        root = ET.fromstring(svg.read_text())
        lines = root.findall(f".//{SVG_NS}polyline")
        _, rows = read_csv(out)
        assert len(lines) == 4  # p_0, p_1, p_2, entropy for M' = 2
        for line in lines:
            assert len(line.attrib["points"].split()) == len(rows)

    def test_long_grid_svg_at_pixel_resolution(self, tmp_path):
        out = tmp_path / "evolve.csv"
        code = main(
            ["evolve", "--n", "24", "--m", "12", "--steps", "60000",
             "--out", str(out), "--svg"]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 60000
        lines = ET.fromstring(out.with_suffix(".svg").read_text()).findall(f".//{SVG_NS}polyline")
        assert len(lines) == 14  # p_0 .. p_12 and the entropy
        for line in lines:
            # at most four points in each of the 547 pixel columns of the plot
            assert len(line.attrib["points"].split()) <= 4 * 547

    def test_svg_suffix_out_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run.svg"
        assert main(["evolve", "--n", "3", "--out", str(out), "--svg"]) == 2
        assert "overwrite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # without --svg the suffix is just a file name
        assert main(["evolve", "--n", "3", "--out", str(out)]) == 0
        assert read_csv(out)[0] == ["tau", "p_0", "p_1", "entropy"]

    def test_unwritable_path_fails_with_runtime_code(self, tmp_path):
        code = main(["evolve", "--n", "2", "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert code == 1

    def test_missing_out_is_usage_error(self, capsys):
        assert main(["evolve", "--n", "3"]) == 2
        assert "evolve needs --out" in capsys.readouterr().err

    def test_bad_steps_is_usage_error(self, tmp_path):
        code = main(["evolve", "--n", "2", "--steps", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("tau_max", ["inf", "nan", "-inf"])
    def test_non_finite_tau_max_is_usage_error(self, tmp_path, tau_max):
        out = tmp_path / "x.csv"
        assert main(["evolve", "--n", "3", f"--tau-max={tau_max}", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_tau_max_is_runtime_error(self, tmp_path):
        # finite tau-max, but tau * phase overflows and the spectrum is NaN
        out = tmp_path / "x.csv"
        code = main(["evolve", "--n", "4", "--tau-max", "1e308", "--steps", "3", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        # the whole of stderr is the one error line, with no numpy warning
        proc = run_module(
            "evolve", "--n", "4", "--tau-max", "1e308", "--steps", "3", "--out", str(out),
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: normalization drift nan on tau grid"]

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(-1, 40),
        m=st.integers(-1, 42),
        steps=st.integers(-1, 40),
        tau_max=st.floats(-1e6, 1e6)
        | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    )
    def test_property_finite_rows_or_usage_error(self, n, m, steps, tau_max):
        valid = n >= 2 and 0 <= m <= n and steps >= 2 and math.isfinite(tau_max) and tau_max > 0
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "x.csv"
            code = main(
                ["evolve", f"--n={n}", f"--m={m}", f"--steps={steps}",
                 f"--tau-max={tau_max!r}", "--out", str(out)]
            )
            if not valid:
                assert code == 2
                assert not out.exists()
                return
            assert code == 0
            _, rows = read_csv(out)
            assert len(rows) == steps
            assert all(math.isfinite(float(value)) for row in rows for value in row)


class TestLongTables:
    """``_float_blocks`` formats a table of at least ``PARALLEL_FORMAT_VALUES``
    floats in two processes where fork and a second CPU exist; the bytes
    never depend on it.  The threshold is lowered here so that short grids
    cross it: an evolve row at N = 3, M = 1 holds 4 floats."""

    THRESHOLD_ROWS = 50
    TAU_MAX = 2.5

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker count of every process pool the CLI starts."""
        sizes = []

        class RecordedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
        monkeypatch.setattr(cli, "PARALLEL_FORMAT_VALUES", 4 * self.THRESHOLD_ROWS)
        return sizes

    def reference_bytes(self, steps):
        taus = np.linspace(0.0, self.TAU_MAX, steps)
        probs, entropies = entropy_grid(ModelSpec(3, 1), taus)
        rows = np.column_stack([taus, probs, entropies]).tolist()
        lines = ["tau,p_0,p_1,entropy"] + [",".join(map(repr, row)) for row in rows]
        return "".join(line + "\n" for line in lines).encode()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("steps", [THRESHOLD_ROWS - 1, THRESHOLD_ROWS, THRESHOLD_ROWS + 1, 101])
    def test_evolve_bytes_match_reference(self, tmp_path, monkeypatch, pools, cpus, steps):
        report_cpus(monkeypatch, cpus)
        out = tmp_path / "evolve.csv"
        code = main(["evolve", "--n", "3", "--m", "1", "--tau-max", repr(self.TAU_MAX),
                     "--steps", str(steps), "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == self.reference_bytes(steps)
        two_processes = FORK and cpus > 1 and steps >= self.THRESHOLD_ROWS
        assert pools == ([1] if two_processes else [])
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not FORK, reason="the second process needs the fork start method")
    def test_worker_failure_writes_nothing(self, tmp_path, monkeypatch, capsys, pools):
        report_cpus(monkeypatch, 2)
        monkeypatch.setattr(cli, "_format_block", _fail_in_worker)
        out = tmp_path / "evolve.csv"
        code = main(["evolve", "--n", "3", "--steps", str(2 * self.THRESHOLD_ROWS),
                     "--out", str(out), "--svg"])
        assert code == 1
        assert pools == [1]
        assert capsys.readouterr().err.splitlines() == ["error: formatting failed in the worker"]
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []


class TestMaxima:
    def test_magic_number_table(self, tmp_path):
        out = tmp_path / "maxima.csv"
        assert main(["maxima", "--n-min", "2", "--n-max", "7", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["n", "tau_prime", "tau_double_prime", "max_entropy", "argmax_tau"]
        assert [row[0] for row in rows] == ["2", "3", "4", "5", "6", "7"]
        for row in rows[:5]:
            assert row[3] == "1.0"
            assert row[1] != ""
        assert rows[5][1] == ""  # no unit-entanglement root at N = 7
        assert abs(float(rows[5][3]) - 0.9997) < 5e-5

    def test_full_scan_bytes(self, tmp_path):
        # every column is a math-module closed form; the grid only checks it
        out = tmp_path / "maxima.csv"
        assert main(["maxima", "--n-max", "200", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d2a95c278393d7996d044d1008ed936e87211fae7e9b21dc96d7491d623a030d"
        )

    def test_narrow_range_scans_only_its_sizes(self, tmp_path, monkeypatch):
        full = tmp_path / "full.csv"
        assert main(["maxima", "--n-max", "200", "--out", str(full)]) == 0
        built = []

        def counted(spec):
            built.append(spec)
            return b_table(spec)

        monkeypatch.setattr(entanglement, "b_table", counted)
        entanglement.exact_table.cache_clear()
        out = tmp_path / "maxima.csv"
        assert main(["maxima", "--n-min", "190", "--n-max", "200", "--out", str(out)]) == 0
        header, *rows = full.read_text().splitlines(keepends=True)
        assert out.read_text().splitlines(keepends=True) == [header] + rows[-11:]
        assert built == [ModelSpec(n, 1) for n in range(190, 201)]

    def test_two_site_critical_time_bytes(self, tmp_path):
        out = tmp_path / "maxima.csv"
        assert main(["maxima", "--n-min", "2", "--n-max", "2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0][1] == "0.7853981633974483"

    def test_absent_roots_past_six(self, tmp_path):
        out = tmp_path / "maxima.csv"
        assert main(["maxima", "--n-min", "7", "--n-max", "8", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(row[1] == "" for row in rows)

    def test_multi_excitation_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("m=2\n")
        out = tmp_path / "maxima.csv"
        code = main(["--config", str(config), "maxima", "--n-max", "4", "--out", str(out)])
        assert code == 2

    def test_missing_out_is_usage_error(self, capsys):
        assert main(["maxima", "--n-max", "3"]) == 2
        assert "maxima needs --out" in capsys.readouterr().err

    def test_descending_range_rejected(self, tmp_path):
        code = main(["maxima", "--n-min", "9", "--n-max", "4", "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        assert main(["verify", "--n-max", "4"]) == 0
        captured = capsys.readouterr().out
        assert "PASS" in captured
        assert "FAIL" not in captured

    def test_single_excitation_row_range(self, tmp_path):
        report = tmp_path / "report.txt"
        assert main(["verify", "--n-max", "6", "--m", "1", "--out", str(report)]) == 0
        text = report.read_text()
        assert text.count("M= 1") == 5  # N = 2..6
        assert "all sectors PASS" in text

    def test_budget_guard(self):
        assert main(["verify", "--n-max", "26"]) == 2

    def test_budget_is_twenty_four_sites(self, capsys):
        assert main(["verify", "--n-max", "25"]) == 2
        assert "n-max <= 24 (sector budget)" in capsys.readouterr().err

    def test_m_above_n_max_is_usage_error(self, capsys):
        assert main(["verify", "--n-max", "6", "--m", "7"]) == 2
        assert "m must lie in 0..6" in capsys.readouterr().err

    @pytest.mark.parametrize("n_max", ["1", "0"])
    def test_n_max_below_two_is_usage_error(self, capsys, n_max):
        # verify has no --n-min, so the message must not name one
        assert main(["verify", "--n-max", n_max]) == 2
        err = capsys.readouterr().err
        assert f"n-max must be >= 2, got {n_max}" in err
        assert "n-min" not in err

    @pytest.mark.parametrize("error, code", [(BudgetExceededError, 2), (ValueError, 1)])
    def test_library_error_exit_code(self, monkeypatch, capsys, error, code):
        # a budget error from the library is a usage error; any other exits 1
        def failing(spec, taus):
            raise error("from the library")

        monkeypatch.setattr(cli, "verify_closed_form", failing)
        assert main(["verify", "--n-max", "2"]) == code
        captured = capsys.readouterr()
        assert captured.err == "error: from the library\n"
        assert captured.out == ""

    def test_restricted_to_balanced_sector(self, capsys):
        assert main(["verify", "--n-max", "10", "--m", "5"]) == 0
        captured = capsys.readouterr().out
        assert "N=10 M= 5" in captured

    def test_sample_stream_is_pinned(self):
        # another stream would silently move every deviation verify prints
        for (n, m), first, last in (
            ((2, 0), "5.6354770916740105", "7.130784172855389"),
            ((13, 6), "4.037845985122278", "1.2882972295868558"),
        ):
            taus = cli.verify_times(n, m)
            assert len(taus) == cli.VERIFY_SAMPLES
            assert (repr(float(taus[0])), repr(float(taus[-1]))) == (first, last)


@pytest.fixture(scope="module")
def fig_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("figs")
    assert main(["figures", "--out-dir", str(out_dir), "--svg"]) == 0
    return out_dir


class TestFigures:
    def test_files_exist(self, fig_dir):
        for name in ("fig1.csv", "fig2.csv", "fig3.csv", "fig1.svg", "fig2.svg", "fig3.svg"):
            assert (fig_dir / name).exists()

    def test_family3_bytes(self, fig_dir):
        # every value is a math-module closed form, as in the maxima scan
        digests = {
            name: hashlib.sha256((fig_dir / name).read_bytes()).hexdigest()
            for name in ("fig3.csv", "fig3.svg")
        }
        assert digests == {
            "fig3.csv": "65decee96f79564da9ef8384bc5cb58cdd53a92630ea99adffa7ea4203a71f92",
            "fig3.svg": "d172933dab712cf2bf26eee6d4a3662e9b915e82742013205a55afe47e0d3f73",
        }

    def test_family3_values(self, fig_dir):
        header, rows = read_csv(fig_dir / "fig3.csv")
        assert header == ["n", "max_entropy"]
        table = {int(row[0]): float(row[1]) for row in rows}
        assert set(table) == set(range(2, 31))
        for n in range(2, 7):
            assert table[n] == 1.0
        assert abs(table[7] - 0.9997) < 5e-5
        for n in range(7, 30):
            assert table[n + 1] < table[n]

    def test_family2_unit_maxima_through_six(self, fig_dir):
        _, rows = read_csv(fig_dir / "fig2.csv")
        peaks: dict[int, float] = {}
        for row in rows:
            n, ent = int(row[0]), float(row[3])
            peaks[n] = max(peaks.get(n, 0.0), ent)
        assert set(peaks) == set(range(2, 11))
        for n in range(2, 7):
            assert abs(peaks[n] - 1.0) < 1e-6
        for n in range(7, 11):
            assert peaks[n] < 1.0

    def test_family1_argmax_balances_probabilities(self, fig_dir):
        _, rows = read_csv(fig_dir / "fig1.csv")
        by_n: dict[int, list[tuple[float, float]]] = {}
        for row in rows:
            n = int(row[0])
            gap = abs(float(row[3]) - float(row[2]))
            by_n.setdefault(n, []).append((float(row[4]), gap))
        assert set(by_n) == set(range(2, 9))
        for n, points in by_n.items():
            entropies = np.array([e for e, _ in points])
            gaps = np.array([g for _, g in points])
            assert gaps[int(np.argmax(entropies))] <= gaps.min() + 1e-15

    def test_svg_polyline_counts(self, fig_dir):
        root = ET.fromstring((fig_dir / "fig2.svg").read_text())
        lines = root.findall(f".//{SVG_NS}polyline")
        assert len(lines) == 9  # N = 2..10
        _, rows = read_csv(fig_dir / "fig2.csv")
        per_n = len(rows) // 9
        # A 4097-point curve is drawn at pixel resolution: at most four points
        # in each of the 547 pixel columns, picked from the CSV's own values.
        series = [
            (f"N={n}", [float(r[2]) for r in rows if r[0] == str(n)],
             [float(r[3]) for r in rows if r[0] == str(n)])
            for n in range(2, 11)
        ]
        expected = ET.fromstring(line_plot(series)).findall(f".//{SVG_NS}polyline")
        for line, from_csv in zip(lines, expected, strict=True):
            assert len(line.attrib["points"].split()) <= 4 * 547 < per_n
            assert line.attrib["points"] == from_csv.attrib["points"]


    def test_one_kernel_call_per_curve(self, tmp_path, monkeypatch):
        # family 1 is every second point of family 2's curve; the maxima
        # scan calls the kernel through entanglement, not through the CLI
        calls = []

        def counted(spec, tau_grid):
            calls.append((spec, len(tau_grid)))
            return entropy_grid(spec, tau_grid)

        monkeypatch.setattr(cli, "entropy_grid", counted)
        assert main(["figures", "--out-dir", str(tmp_path)]) == 0
        assert calls == [(ModelSpec(n, 1), cli.FIG2_GRID + 1) for n in range(2, 11)]


class TestConfigPrecedence:
    def test_flags_beat_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# run settings\nn=3\nsteps=4\n")
        out = tmp_path / "evolve.csv"
        code = main(["--config", str(config), "evolve", "--steps", "6", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 6  # flag wins
        assert len(rows[0]) == 4  # n=3, m=1 from config/defaults: tau, p_0, p_1, entropy

    def test_default_period_follows_n(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--n", "8", "--steps", "3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[-1][0]) == pytest.approx(2.0 * math.pi / 8.0, abs=1e-15)

    def test_malformed_config_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("steps 12\n")
        out = tmp_path / "x.csv"
        assert main(["--config", str(config), "evolve", "--out", str(out)]) == 2

    @pytest.mark.parametrize(
        "command,line,flags",
        [
            ("evolve", "stpes=3", ["--n", "3"]),  # typo
            ("verify", "n=5", ["--n-max", "3"]),  # another command's key
            ("maxima", "tau_max=1", ["--n-max", "3"]),
            ("evolve", "steps=abc", ["--n", "3"]),  # bad value
            ("evolve", "svg=maybe", ["--n", "3"]),  # neither on nor off
        ],
    )
    def test_bad_config_line_rejected(self, tmp_path, command, line, flags):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "out.txt"
        assert main(["--config", str(config), command, *flags, "--out", str(out)]) == 2
        assert not out.exists()

    def test_config_switch_writes_svg(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("svg=true\n")
        out = tmp_path / "evolve.csv"
        code = main(["--config", str(config), "evolve", "--n", "3", "--steps", "4", "--out", str(out)])
        assert code == 0
        assert out.with_suffix(".svg").exists()

    def test_config_switch_off_writes_no_svg(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("svg=false\n")
        out = tmp_path / "evolve.csv"
        code = main(["--config", str(config), "evolve", "--n", "3", "--steps", "4", "--out", str(out)])
        assert code == 0
        assert out.exists() and not out.with_suffix(".svg").exists()

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        out = tmp_path / "evolve.csv"
        assert main(["--config", str(tmp_path / "absent.cfg"), "evolve", "--out", str(out)]) == 2
        assert "cannot read config file" in capsys.readouterr().err
        assert not out.exists()

    def test_every_flag_is_a_config_key(self, tmp_path):
        # (text in the file, parsed value) by the flag's type; None is a switch
        samples = {
            int: ("3", 3), float: ("0.5", 0.5), Path: ("x.csv", Path("x.csv")), None: ("true", True),
        }
        _, commands = _build_parser()
        config = tmp_path / "run.cfg"
        for name, command in commands.items():
            for action in command._actions:
                if not action.option_strings or action.dest == "help":
                    continue
                key = action.option_strings[0].lstrip("-").replace("-", "_")
                text, value = samples[action.type]
                config.write_text(f"{key}={text}\n")
                args = _parse_args(["--config", str(config), name])
                assert getattr(args, action.dest) == value, (name, key)


class TestModuleEntryPoint:
    """``python -m spinvdw.cli`` runs the same front end as the console script."""

    def test_maxima_writes_csv(self, tmp_path):
        out = tmp_path / "maxima.csv"
        proc = run_module("maxima", "--n-max", "3", "--out", str(out), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(out)
        assert header == ["n", "tau_prime", "tau_double_prime", "max_entropy", "argmax_tau"]
        assert [row[0] for row in rows] == ["2", "3"]

    def test_missing_subcommand_is_usage_error(self, tmp_path):
        proc = run_module(cwd=tmp_path)
        assert proc.returncode == 2
        assert "usage:" in proc.stderr

    @staticmethod
    def loaded_by_import(modules, cwd, argv=None):
        """Those of ``modules`` that a fresh ``import spinvdw.cli`` loads, or,
        where ``argv`` is given, that it and a successful ``main(argv)`` load."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        run = "0" if argv is None else f"spinvdw.cli.main({argv!r})"
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, spinvdw.cli; code = {run}; "
             f"print([m for m in {modules!r} if m in sys.modules]); sys.exit(code)"],
            capture_output=True, text=True, env=env, cwd=cwd,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_start_up_skips_the_url_stack(self, tmp_path):
        # urllib.request alone costs tens of milliseconds on every command
        assert self.loaded_by_import(["urllib.request"], tmp_path) == "[]"

    def test_start_up_skips_the_process_pool(self, tmp_path):
        # only a long table's formatting needs them; they cost every command
        # about 25 ms of start-up
        modules = ["multiprocessing", "concurrent.futures"]
        assert self.loaded_by_import(modules, tmp_path) == "[]"

    def test_multi_block_kernel_run_skips_the_process_pool(self, tmp_path):
        # 4000 rows at M'+1 = 13 make two kernel blocks, so a helper thread
        # starts where two CPUs exist, and the 60,000 values stay below
        # PARALLEL_FORMAT_VALUES, so the CSV is formatted in this process
        modules = ["concurrent.futures", "logging", "multiprocessing"]
        argv = ["evolve", "--n", "24", "--m", "12", "--steps", "4000", "--out", "e.csv"]
        assert self.loaded_by_import(modules, tmp_path, argv) == "[]"

    @pytest.mark.parametrize("argv", [
        ["verify", "--n-max", "4"],
        ["maxima", "--n-max", "8", "--out", "maxima.csv"],
        ["evolve", "--n", "5", "--m", "2", "--steps", "64", "--out", "evolve.csv", "--svg"],
        ["figures", "--out-dir", "figs", "--svg"],
    ], ids=lambda argv: argv[0])
    def test_commands_skip_numpy_random(self, argv, tmp_path):
        # numpy.random adds about 5.5 MiB to a process; verify draws its
        # times from the stdlib generator instead
        assert self.loaded_by_import(["numpy.random"], tmp_path, argv) == "[]"
