"""Print the traced memory peak of one experiment per benchmark workload.

    python3 tools/chunk_peak.py [WORKLOAD ...]

For each workload of ``perfbench/workloads.py`` at the default benchmark
seed, it prints the ``tracemalloc`` peak of one ``run_experiment`` call,
one chunk of the workload's 100 trials, in MiB (2**20 bytes, the unit of
perfbench's ``peak_rss_mb``). The name ``paper-full-chunk``
(printed after the workloads by default) runs the ``paper-full`` preset's
shape, L=256, M=8 and three 6,000-sample segments drawn in blocks of 250,
on 100 trials, one chunk as ``apamix simulate --preset paper-full`` runs
ten; traced, it takes about 20 s on one core. ``numpy.random`` is imported before
any trace starts, so that neither its import nor the package's is counted.

The package is imported from ``src/`` next to this script's directory.
``workloads.py`` is read as it is, and no bytecode is written beside it.
"""

from __future__ import annotations

import importlib.util
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAPER_FULL = "paper-full-chunk"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def config(wl, name: str):
    """The experiment of workload ``name`` of module ``wl``, or of one ``paper-full`` chunk."""
    from apamix import harness

    seed = wl.config_seed(wl.DEFAULT_SEED)
    if name == PAPER_FULL:
        return harness.preset_paper_scenario("full", "white", "zaapa", runs=wl.RUNS, seed=seed)
    if name not in wl.WORKLOADS:
        raise KeyError(name)
    return wl.build(name, seed)


def peak(cfg) -> int:
    """The traced peak, in bytes, of one ``run_experiment`` call on ``cfg``."""
    import numpy.random  # noqa: F401  (its import is not the engine's memory)

    from apamix import harness

    tracemalloc.start()
    try:
        harness.run_experiment(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    wl = _workloads()
    try:
        configs = [(name, config(wl, name)) for name in argv or [*wl.WORKLOADS, PAPER_FULL]]
    except KeyError as exc:
        print(f"unknown workload {exc}", file=sys.stderr)
        return 2
    for name, cfg in configs:
        print(f"{name:<18} {peak(cfg) / 2**20:6.2f} MiB", flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
