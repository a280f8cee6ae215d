"""Where one benchmark workload's host time goes.

    python tools/profile_workload.py NAME [--seed S] [--top N]

Runs the ``prepare`` + ``run`` phases of the ``perf/workloads.py``
workload ``NAME`` twice in this process.  The first run is under
cProfile and prints the top-N rows by self time — candidates only:
cProfile charges every Python call and no C-level work, so it inflates
call-heavy code.  The second run is unprofiled and counts, through
``gc.callbacks``, the cycle collector's passes per generation and the
seconds spent inside them, which no profile row shows.  ``perf/`` is
imported by path and not edited; timings to *claim* come from ``make
perf-compare``, never from here.  ``make profile WORKLOAD=<name>``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load_workloads() -> Dict[str, Any]:
    """``perf/workloads.py``'s table, imported by path against this
    tree's ``src/`` (the way ``tests/conftest.py::perf_layers`` does)."""
    for path in (ROOT / "perf", ROOT / "src"):
        sys.path.insert(0, str(path))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perf"))
    return WORKLOADS


def profiled_run(workload: Any, seed: int) -> pstats.Stats:
    profile = cProfile.Profile()
    profile.enable()
    try:
        workload.run(workload.prepare(1.0, seed), seed)
    finally:
        profile.disable()
    return pstats.Stats(profile)


def collector_run(workload: Any, seed: int) -> Tuple[float, List[int], float]:
    """Unprofiled ``run`` seconds, collector passes per generation and
    the seconds spent inside them."""
    passes, inside, started = [0, 0, 0], 0.0, 0.0

    def on_collection(phase: str, info: Dict[str, int]) -> None:
        nonlocal inside, started
        if phase == "start":
            started = time.perf_counter()
        else:
            passes[info["generation"]] += 1
            inside += time.perf_counter() - started

    prepared = workload.prepare(1.0, seed)
    gc.callbacks.append(on_collection)
    try:
        start = time.perf_counter()
        workload.run(prepared, seed)
        run_s = time.perf_counter() - start
    finally:
        gc.callbacks.remove(on_collection)
    return run_s, passes, inside


def main() -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads), metavar="NAME",
                        help=" | ".join(sorted(workloads)))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=25, help="profile rows to print")
    args = parser.parse_args()
    workload = workloads[args.workload]

    stats = profiled_run(workload, args.seed)
    print(f"{args.workload}, seed {args.seed}: prepare + run under cProfile, by self time")
    stats.sort_stats("tottime").print_stats(args.top)

    run_s, passes, inside = collector_run(workload, args.seed)
    print(
        f"unprofiled run: {run_s:.3f} s; collector passes gen 0 / 1 / 2: "
        f"{passes[0]} / {passes[1]} / {passes[2]}, {inside:.3f} s inside them "
        f"({100 * inside / run_s:.0f} % of the run)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
