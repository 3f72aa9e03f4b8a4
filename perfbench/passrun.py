"""One benchmark process, run in a fresh interpreter by ``run.py``.

    python passrun.py SPAWN_NS RESULT_JSON TRACE MODE [ARGS...]

SPAWN_NS is the CLOCK_MONOTONIC time (ns) at which the parent spawned this
process, so the setup time covers interpreter start-up as well as the import
of ``spinvdw.cli``. MODE is one of

- ``setup``: import only;
- ``probe``: import and record the run environment;
- ``cli ARGV...``: ``spinvdw.cli.main(ARGV)``, whose exit code becomes ours;
- ``grid SEED POINTS N:M...``: library ``entropy_grid`` on the grid workload.

The result JSON holds the setup time, and with TRACE=1 the per-layer
metrics of this process.
"""

import sys
import time


def main() -> int:
    spawn_ns, result_path, trace, mode, *args = sys.argv[1:]
    import spinvdw.cli

    setup_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(spawn_ns)
    import json

    result = {"setup_s": setup_ns / 1e9}
    code = 0
    if mode == "probe":
        result["env"] = _environment()
    elif mode in ("cli", "grid"):
        recorder = None
        if trace == "1":
            import tracing

            recorder = tracing.Recorder()
            result["absent_layers"] = tracing.install(recorder)
        t0 = time.perf_counter()
        if mode == "cli":
            code = spinvdw.cli.main(args)
        else:
            result["grid"] = _grid(int(args[0]), int(args[1]), args[2:])
        t1 = time.perf_counter()
        if recorder is not None:
            result["layers"] = tracing.layer_metrics(recorder, t0, t1)
    elif mode != "setup":
        raise ValueError(f"unknown mode {mode!r}")
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return code


def _grid(seed: int, points: int, specs: list[str]) -> dict:
    """Evaluate every spec on both tau sets; keep digests and sample values."""
    import hashlib

    import numpy as np

    import spinvdw.entanglement
    from spinvdw.model import ModelSpec
    from workloads import grid_sample_indices, grid_tau_sets

    tau_sets = grid_tau_sets(seed, points)
    sample = grid_sample_indices(seed, points)
    out = {}
    for text in specs:
        n, m = map(int, text.split(":"))
        spec = ModelSpec(n, m)
        ceiling = float(np.log2(spec.m_prime + 1))
        for kind, taus in tau_sets.items():
            probs, entropies = spinvdw.entanglement.entropy_grid(spec, taus)
            out[f"{text}/{kind}"] = {
                "sha256": hashlib.sha256(entropies.tobytes()).hexdigest(),
                "samples": entropies[sample].tolist(),
                "in_range": bool(entropies.min() >= 0.0 and entropies.max() <= ceiling + 1e-12),
                "shape": list(probs.shape),
            }
            del probs, entropies
    return out


def _environment() -> dict:
    import numpy as np

    import spinvdw

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "kernel_backend": spinvdw.KERNEL_BACKEND,
    }


if __name__ == "__main__":
    sys.exit(main())
