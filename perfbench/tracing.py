"""Layer spans for the traced benchmark passes.

Tracing wraps the package's public functions at the names their callers look
up (``spinvdw.cli.entropy_grid``, ``spinvdw.backend.schmidt_entropy_grid``,
...), so the package source stays untouched. A wrapper opens a span, calls the
original and closes the span; spans nest along the single-threaded call stack
and are kept in memory until the pass ends, when :func:`layer_metrics` folds
them into the per-layer metrics. A target that does not exist on the code
under test is reported as an absent layer rather than raising.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

# Per-layer metrics, (name, unit), in report order. ``calls``/``points`` and the
# ``computed_*`` figures are counts derived from call arguments and array
# shapes; the ``*_s`` figures are times.
LAYER_METRICS = (
    ("combinatorics.b_table.calls", "count"),
    ("combinatorics.b_table.self_s", "s"),
    ("combinatorics.b_table.distinct_specs", "count"),
    ("combinatorics.b_table.useful_ratio", "ratio"),
    ("entanglement.entropy_grid.calls", "count"),
    ("entanglement.entropy_grid.self_s", "s"),
    ("entanglement.entropy_grid.points", "count"),
    ("entanglement.entropy_grid.single_point_calls", "count"),
    ("entanglement.magic_number_scan.self_s", "s"),
    ("backend.schmidt_entropy_grid.calls", "count"),
    ("backend.schmidt_entropy_grid.busy_s", "s"),
    ("backend.schmidt_entropy_grid.points", "count"),
    ("backend.schmidt_entropy_grid.points_per_s", "1/s"),
    ("backend.schmidt_entropy_grid.computed_flops", "flop"),
    ("backend.schmidt_entropy_grid.computed_bytes", "bytes"),
    ("evolution.amplitudes_at.calls", "count"),
    ("evolution.amplitudes_at.self_s", "s"),
    ("oracle.verify_closed_form.calls", "count"),
    ("oracle.verify_closed_form.self_s", "s"),
    ("oracle.build_sector_hamiltonian.calls", "count"),
    ("oracle.build_sector_hamiltonian.self_s", "s"),
    ("oracle.build_sector_hamiltonian.max_dim", "count"),
    ("oracle.SectorHamiltonian.eigensystem.calls", "count"),
    ("oracle.SectorHamiltonian.eigensystem.self_s", "s"),
    ("oracle.propagate.calls", "count"),
    ("oracle.propagate.self_s", "s"),
    ("oracle.propagate.computed_bytes", "bytes"),
    ("oracle.schmidt_eigenvalues.calls", "count"),
    ("oracle.schmidt_eigenvalues.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("svgplot.line_plot.calls", "count"),
    ("svgplot.line_plot.self_s", "s"),
    ("svgplot.line_plot.points", "count"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counters: dict = field(default_factory=dict)


class Recorder:
    """Spans of one pass, in opening order; ``parent`` indexes into ``spans``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.specs: dict[str, set] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered_length(kids, span.start, span.end)
        for span, kids in zip(spans, children)
    ]


# --- counters recorded at the layer boundaries -------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _note_spec(recorder, span, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    recorder.specs.setdefault(span.name, set()).add(
        (spec.n_total, spec.m_excited, spec.coupling)
    )


def _count_tau_points(recorder, span, args, kwargs, result):
    points = len(result[1])
    span.counters["points"] = points
    span.counters["single_point_calls"] = int(points == 1)


def _count_kernel(recorder, span, args, kwargs, result):
    """Work of one kernel call, computed from the array shapes.

    Per grid point with K = M'+1 modes: K angle products, 2K cos/sin, 4K^2 for
    the complex-by-real mixing product, 4K for degeneracy * |a|^2 and 3K for
    p log2 p and its sum. Bytes are the compulsory traffic: taus, mixing
    matrix, phases and degeneracies read; probabilities and entropies written.
    """
    probs = result[0]
    points, modes = probs.shape
    span.counters["points"] = points
    span.counters["computed_flops"] = points * (4 * modes * modes + 10 * modes)
    span.counters["computed_bytes"] = 8 * (2 * points + points * modes + modes * modes + 2 * modes)


def _note_dim(recorder, span, args, kwargs, result):
    span.counters["max_dim"] = result.matrix.shape[0]


def _count_propagate_bytes(recorder, span, args, kwargs, result):
    """Eigenvector matrix (float64) read twice plus five length-d vectors."""
    dim = result.amplitudes.size
    span.counters["computed_bytes"] = 16 * dim * dim + 72 * dim


def _count_plot_points(recorder, span, args, kwargs, result):
    series = _arg(args, kwargs, 0, "series")
    if isinstance(series, (list, tuple)):
        span.counters["points"] = sum(len(xs) for _, xs, _ in series)


# (module, attribute path where the caller looks the name up, layer, counter)
TARGETS = (
    ("spinvdw.cli", "main", "cli.main", None),
    ("spinvdw.cli", "entropy_grid", "entanglement.entropy_grid", _count_tau_points),
    ("spinvdw.cli", "magic_number_scan", "entanglement.magic_number_scan", None),
    ("spinvdw.cli", "verify_closed_form", "oracle.verify_closed_form", None),
    ("spinvdw.cli", "line_plot", "svgplot.line_plot", _count_plot_points),
    ("spinvdw.entanglement", "entropy_grid", "entanglement.entropy_grid", _count_tau_points),
    ("spinvdw.entanglement", "b_table", "combinatorics.b_table", _note_spec),
    # oracle.verify_closed_form imports b_table from here at call time
    ("spinvdw.combinatorics", "b_table", "combinatorics.b_table", _note_spec),
    ("spinvdw.backend", "schmidt_entropy_grid", "backend.schmidt_entropy_grid", _count_kernel),
    ("spinvdw.evolution", "amplitudes_at", "evolution.amplitudes_at", None),
    ("spinvdw.oracle", "build_sector_hamiltonian", "oracle.build_sector_hamiltonian", _note_dim),
    ("spinvdw.oracle", "SectorHamiltonian.eigensystem", "oracle.SectorHamiltonian.eigensystem", None),
    ("spinvdw.oracle", "propagate", "oracle.propagate", _count_propagate_bytes),
    ("spinvdw.oracle", "schmidt_eigenvalues", "oracle.schmidt_eigenvalues", None),
)


def _wrap(recorder: Recorder, fn, layer: str, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if counter is not None:
            counter(recorder, span, args, kwargs, result)
        return result

    return wrapper


def install(recorder: Recorder, targets=TARGETS) -> list[str]:
    """Wrap every target that exists; return the ``module.attr`` names absent."""
    absent = []
    for module_name, path, layer, counter in targets:
        owner_path, _, leaf = path.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            absent.append(f"{module_name}.{path}")
            continue
        setattr(owner, leaf, _wrap(recorder, original, layer, counter))
    return absent


def layer_metrics(recorder: Recorder, work_start: float, work_end: float) -> dict[str, float]:
    """Per-layer metrics of one pass, zero for layers that were not called.

    ``cli.bytes_written`` and ``trace.overhead_s`` are left out: the parent
    process measures them.
    """
    totals: dict[str, float] = {}
    for span, own in zip(recorder.spans, self_times(recorder.spans)):
        for key, value in (("calls", 1), ("self_s", own), ("busy_s", span.end - span.start)):
            totals[f"{span.name}.{key}"] = totals.get(f"{span.name}.{key}", 0) + value
        for key, value in span.counters.items():
            metric, before = f"{span.name}.{key}", totals.get(f"{span.name}.{key}", 0)
            totals[metric] = max(before, value) if key == "max_dim" else before + value

    totals["combinatorics.b_table.distinct_specs"] = len(
        recorder.specs.get("combinatorics.b_table", ())
    )
    roots = [(s.start, s.end) for s in recorder.spans if s.parent is None]
    totals["trace.unattributed_s"] = (work_end - work_start) - covered_length(
        roots, work_start, work_end
    )
    _derive_ratios(totals)
    return {
        name: totals.get(name, 0)
        for name, _ in LAYER_METRICS
        if name not in ("cli.bytes_written", "trace.overhead_s")
    }


def merge_layer_metrics(per_process: list[dict]) -> dict[str, float]:
    """Per-layer metrics of a pass from those of its processes: sums, except
    the maxima and the ratios, which are taken again from the sums."""
    merged: dict[str, float] = {}
    for metrics in per_process:
        for name, value in metrics.items():
            before = merged.get(name, 0)
            merged[name] = max(before, value) if name.endswith(".max_dim") else before + value
    _derive_ratios(merged)
    return merged


def _derive_ratios(totals: dict) -> None:
    b_calls = totals.get("combinatorics.b_table.calls", 0)
    totals["combinatorics.b_table.useful_ratio"] = (
        totals.get("combinatorics.b_table.distinct_specs", 0) / b_calls if b_calls else 0.0
    )
    kernel = "backend.schmidt_entropy_grid"
    busy = totals.get(f"{kernel}.busy_s", 0.0)
    totals[f"{kernel}.points_per_s"] = totals.get(f"{kernel}.points", 0) / busy if busy else 0.0
