#!/usr/bin/env python3
"""Layered benchmark of spinvdw: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload scan|grid|verify|export|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere; the package is taken from ``src/`` of the checkout that
holds this file. Each *pass* of a workload runs in fresh interpreters
(``passrun.py``) with ``PYTHONPATH=src``, ``SPINVDW_WORKERS`` unset and one
BLAS thread, one process at a time, with a fresh output directory. Passes
repeat, closed loop, until the next one would end after ``--seconds``.
Outputs are checked after every pass; a failed check, a nonzero exit or CSV
digests that differ between passes fail the run.

End-to-end metrics (``--trace 0``), medians over the passes:
  wall_s       spawn to exit of the pass processes, summed over a pass
  setup_s      interpreter spawn to ``import spinvdw.cli`` done, over every
               process started, including import-only probes before each pass
  peak_rss_mb  peak resident set of the largest process of a pass
  pass_ratio   passes that passed every check / passes attempted
With ``--trace 1`` passes alternate untraced and traced; the traced ones give
the per-layer metrics of ``tracing.LAYER_METRICS`` (medians over passes) and
``trace.overhead_s`` is the traced minus the untraced median wall time.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Exit code 0 when every pass passed, 1 when one failed, 2 when the benchmark
could not start (for example, no ``src/spinvdw`` beside it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from workloads import make_workloads

ROOT = Path(__file__).resolve().parent.parent
PASSRUN = Path(__file__).resolve().parent / "passrun.py"
TMP_ROOT = ROOT / ".perfbench_tmp"
# the grid gate computes its reference values in this process
sys.path.insert(1, str(ROOT / "src"))

DEFAULT_SECONDS = 30
# import-only processes before each untraced pass, so that setup_s has many
# samples spread over the whole run
SETUP_PROBES = 2
PROCESS_TIMEOUT_S = 170
# One BLAS thread: on a small shared machine a second thread made the grid and
# verify passes slower and their times wider spread whenever a neighbour was busy.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_ratio", "ratio"),
)


class Runner:
    """Spawns pass processes with the benchmark's isolation settings."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env.pop("SPINVDW_WORKERS", None)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env.update(dict.fromkeys(BLAS_THREAD_VARS, BLAS_THREADS))
        self._count = 0

    def spawn(self, args: list[str], trace: bool) -> dict:
        """Run ``passrun.py`` once; wall time and peak RSS are taken here."""
        self._count += 1
        log = self.tmp / f"proc{self._count}"
        log.mkdir()
        result_path = log / "result.json"
        with open(log / "stdout", "wb") as out, open(log / "stderr", "wb") as err:
            spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(
                [sys.executable, str(PASSRUN), str(spawn_ns), str(result_path),
                 "1" if trace else "0", *args],
                stdout=out, stderr=err, env=self.env, cwd=log,
            )
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            proc.returncode = os.waitstatus_to_exitcode(status)
        record = {
            "rc": proc.returncode,
            "wall_s": (end_ns - spawn_ns) / 1e9,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": (log / "stdout").read_text(errors="replace"),
            "stderr": (log / "stderr").read_text(errors="replace"),
            "result": json.loads(result_path.read_text()) if result_path.is_file() else None,
        }
        shutil.rmtree(log)
        return record

    def run_pass(self, workload, seed: int, trace: bool) -> dict:
        """One pass: its processes in order, then the correctness gate."""
        self._count += 1
        out = self.tmp / f"out{self._count}"
        out.mkdir()
        procs = [self.spawn(args, trace) for args in workload.commands(out, seed)]
        errors = [
            f"process {i} exited {p['rc']}: {p['stderr'].strip()[-500:]}"
            for i, p in enumerate(procs) if p["rc"] != 0 or p["result"] is None
        ]
        results = [p["result"] or {} for p in procs]
        if not errors:
            try:
                errors = workload.check(out, seed, results, [p["stdout"] for p in procs])
            except (OSError, ValueError, IndexError, KeyError) as exc:
                errors = [f"output check raised {exc!r}"]
        files = sorted(path for path in out.rglob("*") if path.is_file())
        digests = {
            str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in files if path.suffix == ".csv"
        }
        for result in results:
            for key, value in result.get("grid", {}).items():
                digests[f"entropy_grid {key}"] = value["sha256"]
        record = {
            "traced": trace,
            "wall_s": sum(p["wall_s"] for p in procs),
            "setup_s": [r["setup_s"] for r in results if "setup_s" in r],
            "peak_rss_mb": max(p["peak_rss_mb"] for p in procs),
            "errors": errors,
            "digests": digests,
        }
        if trace:
            layers = tracing.merge_layer_metrics([r.get("layers", {}) for r in results])
            layers["cli.bytes_written"] = sum(path.stat().st_size for path in files)
            record["layers"] = layers
            record["absent_layers"] = sorted({a for r in results for a in r.get("absent_layers", ())})
        shutil.rmtree(out)
        return record


def run_workload(runner: Runner, workload, seed: int, seconds: float, trace: bool) -> dict:
    """Passes until the next would end past ``seconds``; metrics and verdict."""
    setup_samples = []
    passes = []
    durations = []
    start = time.monotonic()
    min_passes = 2 if trace else 1
    while True:
        began = time.monotonic()
        if not trace:
            probes = [runner.spawn(["setup"], False) for _ in range(SETUP_PROBES)]
            setup_samples += [p["result"]["setup_s"] for p in probes if p["result"]]
        passes.append(runner.run_pass(workload, seed, trace and len(passes) % 2 == 1))
        durations.append(time.monotonic() - began)
        if len(passes) >= min_passes and (
            time.monotonic() - start + statistics.median(durations) > seconds
        ):
            break

    first = passes[0]["digests"]
    for number, record in enumerate(passes[1:], start=2):
        if record["digests"] != first:
            changed = sorted(k for k in first.keys() | record["digests"].keys()
                             if first.get(k) != record["digests"].get(k))
            record["errors"].append(f"output digests differ from pass 1 in pass {number}: {changed}")
    failed = sum(1 for record in passes if record["errors"])
    untraced = [record for record in passes if not record["traced"]]
    setup_samples += [s for record in untraced for s in record["setup_s"]]
    wall = [record["wall_s"] for record in untraced]
    samples = {
        "wall_s": wall,
        "setup_s": setup_samples,
        "peak_rss_mb": [record["peak_rss_mb"] for record in untraced],
        "pass_ratio": [0.0 if record["errors"] else 1.0 for record in passes],
    }
    result = {
        "workload": workload.name,
        "seed": seed,
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "samples": samples,
        "errors": [e for record in passes for e in record["errors"]],
        "digests": first,
    }
    if trace:
        traced = [record for record in passes if record["traced"]]
        layers = {
            name: statistics.median(record["layers"].get(name, 0) for record in traced)
            for name, _ in tracing.LAYER_METRICS
        }
        layers["trace.overhead_s"] = (
            statistics.median(record["wall_s"] for record in traced) - statistics.median(wall)
        )
        result["layers"] = layers
        result["absent_layers"] = traced[0]["absent_layers"]
        result["metrics"] = {
            name: {"value": layers[name], "unit": unit} for name, unit in tracing.LAYER_METRICS
        }
    else:
        result["metrics"] = {
            name: {"value": _summary(name, samples[name])[1], "unit": unit}
            for name, unit in END_TO_END
        }
    return result


def _summary(name: str, values: list[float]) -> tuple[str, float]:
    """A metric's value over its samples: pass_ratio is a mean of 0/1 verdicts."""
    if name == "pass_ratio":
        return "mean", statistics.fmean(values)
    return "median", statistics.median(values)


def environment(runner: Runner, probe: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        **probe["env"],
        "blas_threads": BLAS_THREADS,
        "nproc": runner.nproc,
        "cpu": cpu,
        "spinvdw_workers": runner.env.get("SPINVDW_WORKERS", "unset"),
    }


def print_result(result: dict, trace: bool) -> None:
    status = "ok" if result["correct"] else "FAILED"
    print(f"[{result['workload']}] {status}: {result['attempted']} passes, "
          f"{result['failed']} failed (fail_ratio {result['failed'] / result['attempted']:.3f}), "
          f"seed {result['seed']}")
    for error in result["errors"]:
        print(f"  error: {error}")
    for name, digest in sorted(result["digests"].items()):
        print(f"  sha256 {digest}  {name}")
    if trace:
        print(f"  absent layers: {', '.join(result['absent_layers']) or 'none'}")
        for name, unit in tracing.LAYER_METRICS:
            print(f"  {name:48s} {result['layers'][name]:.6g} {unit}")
        return
    for name, unit in END_TO_END:
        values = result["samples"][name]
        label, value = _summary(name, values)
        print(f"  {name:12s} {value:.6g} {unit}  {label} of n={len(values)}"
              f"  [min {min(values):.6g}, max {max(values):.6g}]")


def summarize(results: list[dict]) -> dict:
    """The result line: one workload's metrics, or all of them prefixed."""
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": value
                   for r in results for name, value in r["metrics"].items()}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    workloads = make_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    chosen = list(workloads) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    if not (ROOT / "src" / "spinvdw" / "cli.py").is_file():
        print(f"no spinvdw package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = TMP_ROOT / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        runner = Runner(tmp)
        probe = runner.spawn(["probe"], False)
        if probe["rc"] != 0 or not probe["result"]:
            print(f"cannot import spinvdw from {ROOT / 'src'}:\n{probe['stderr']}", file=sys.stderr)
            return 2
        print("env " + json.dumps(environment(runner, probe["result"]), sort_keys=True))
        results = [
            run_workload(runner, workloads[name], args.seed, args.seconds, trace)
            for name in chosen
        ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP_ROOT.is_dir() and not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()

    for result in results:
        print_result(result, trace)
    summary = summarize(results)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
