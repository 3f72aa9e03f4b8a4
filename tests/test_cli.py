from __future__ import annotations

import math
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

from spinvdw.cli import _build_parser, _parse_args, main

SVG_NS = "{http://www.w3.org/2000/svg}"


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


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

    def test_unwritable_path_fails_with_runtime_code(self, tmp_path):
        code = main(["evolve", "--n", "2", "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert code == 1

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
        assert main(["verify", "--n-max", "20"]) == 2

    def test_restricted_to_balanced_sector(self, capsys):
        assert main(["verify", "--n-max", "10", "--m", "5"]) == 0
        captured = capsys.readouterr().out
        assert "N=10 M= 5" in captured

    def test_parallel_workers(self, monkeypatch, capsys):
        monkeypatch.setenv("SPINVDW_WORKERS", "3")
        assert main(["verify", "--n-max", "4"]) == 0
        assert "all sectors PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["abc", "0", "-1", "1.5", ""])
    def test_bad_worker_count_is_usage_error(self, monkeypatch, capsys, workers):
        monkeypatch.setenv("SPINVDW_WORKERS", workers)
        assert main(["verify", "--n-max", "3"]) == 2
        assert "SPINVDW_WORKERS" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fig_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("figs")
    assert main(["figures", "--out-dir", str(out_dir), "--svg"]) == 0
    return out_dir


class TestFigures:
    def test_files_exist(self, fig_dir):
        for name in ("fig1.csv", "fig2.csv", "fig3.csv", "fig1.svg", "fig2.svg", "fig3.svg"):
            assert (fig_dir / name).exists()

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
        for line in lines:
            assert len(line.attrib["points"].split()) == per_n


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

    @staticmethod
    def run_module(*args, cwd):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        return subprocess.run(
            [sys.executable, "-m", "spinvdw.cli", *args],
            capture_output=True, text=True, env=env, cwd=cwd,
        )

    def test_maxima_writes_csv(self, tmp_path):
        out = tmp_path / "maxima.csv"
        proc = self.run_module("maxima", "--n-max", "3", "--out", str(out), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(out)
        assert header == ["n", "tau_prime", "tau_double_prime", "max_entropy", "argmax_tau"]
        assert [row[0] for row in rows] == ["2", "3"]

    def test_missing_subcommand_is_usage_error(self, tmp_path):
        proc = self.run_module(cwd=tmp_path)
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
