"""Where one benchmark workload's host time goes.

    python tools/profile_workload.py NAME [--seed S] [--top N]

Runs the ``prepare`` + ``run`` phases of the ``perf/workloads.py``
workload ``NAME`` twice in this process.  The first run is under
cProfile and prints the top-N rows by self time — candidates only:
cProfile charges every Python call and no C-level work, so it inflates
call-heavy code — then a second table for one ``post`` call (oracle,
record, hash) on that finished run, and, for a workload whose result is
one run, its trace's retained records and the bytes its columns take
per record (``sys.getsizeof`` of each kind's arrays and values list,
not of the values they point to), next to its traffic as the metrics
count it: sends, drops by reason and duplicate copies (the trace holds
no traffic unless the run set ``trace_traffic``).  The second run is
unprofiled and counts, through ``gc.callbacks``, the cycle collector's
passes and the seconds spent inside them per generation, which no
profile row shows; then, with the run's result still alive and after
one collection, the objects the collector tracks and their six most
common types — what every later full collection walks.  A third run,
with the collector disabled around it, drops its result and counts
what only the collector can reclaim: the objects of every finished
deployment that reference counting did not free.  ``perf/`` is
imported by path and not edited; timings to *claim* come from
``make perf-compare``, never from here.  ``make profile WORKLOAD=<name>``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

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


def profiled(call: Callable[[], Any]) -> Tuple[pstats.Stats, Any]:
    """``call()`` under cProfile: its stats and its result."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = call()
    finally:
        profile.disable()
    return pstats.Stats(profile), result


def _prepare_and_run(workload: Any, seed: int) -> Tuple[Any, Any]:
    prepared = workload.prepare(1.0, seed)
    return prepared, workload.run(prepared, seed)


def trace_columns(result: Any) -> Optional[Tuple[int, float, str]]:
    """Retained records of ``result``'s trace, its column bytes per
    retained record and its traffic as the metrics count it, or None
    when ``result`` holds no trace (a sweep's records)."""
    trace = getattr(getattr(result, "ctx", None), "trace", None)
    if trace is None:
        return None
    metrics = result.metrics
    drops = ", ".join(
        f"{reason} {count:,}" for reason, count in sorted(metrics.dropped_by_reason().items())
    )
    traffic = (
        f"{metrics.total_messages:,} sends, drops {drops or 'none'}, "
        f"{metrics.total_duplicates:,} duplicates"
    )
    retained = len(trace) - trace.dropped()
    # A diagnostic read of the recorder's private columns: five per kind.
    column_bytes = sum(
        sys.getsizeof(column) for ring in trace._rings.values() for column in ring[:5]
    )
    return retained, column_bytes / retained if retained else 0.0, traffic


def collector_run(workload: Any, seed: int) -> Tuple[float, List[int], List[float], Counter]:
    """Unprofiled ``run`` seconds, collector passes and seconds inside
    them per generation, and the tracked objects alive at its end by
    type."""
    passes, inside, started = [0, 0, 0], [0.0, 0.0, 0.0], 0.0

    def on_collection(phase: str, info: Dict[str, int]) -> None:
        nonlocal started
        if phase == "start":
            started = time.perf_counter()
        else:
            passes[info["generation"]] += 1
            inside[info["generation"]] += time.perf_counter() - started

    prepared = workload.prepare(1.0, seed)
    gc.callbacks.append(on_collection)
    try:
        start = time.perf_counter()
        result = workload.run(prepared, seed)
        run_s = time.perf_counter() - start
    finally:
        gc.callbacks.remove(on_collection)
    # ``result`` is still alive here: what the run retains is counted,
    # its garbage (and the profiled run's) is not.
    gc.collect()
    live = Counter(type(obj).__name__ for obj in gc.get_objects())
    return run_s, passes, inside, live


def left_for_collector(workload: Any, seed: int) -> int:
    """Objects in reference cycles once ``run``'s result is dropped,
    counted with the collector off for the whole run, so the cells a
    sweep drops along the way are counted too."""
    prepared = workload.prepare(1.0, seed)
    gc.collect()
    gc.disable()
    try:
        result = workload.run(prepared, seed)
        del result
        return gc.collect()
    finally:
        gc.enable()


def main() -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads), metavar="NAME",
                        help=" | ".join(sorted(workloads)))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=25, help="profile rows to print")
    args = parser.parse_args()
    workload = workloads[args.workload]

    stats, (prepared, outcome) = profiled(lambda: _prepare_and_run(workload, args.seed))
    print(f"{args.workload}, seed {args.seed}: prepare + run under cProfile, by self time")
    stats.sort_stats("tottime").print_stats(args.top)
    stats, _ = profiled(lambda: workload.post(prepared, outcome, args.seed, repetitions=1))
    print(f"{args.workload}, seed {args.seed}: one post call under cProfile, by self time")
    stats.sort_stats("tottime").print_stats(args.top)
    columns = trace_columns(outcome)
    if columns is not None:
        retained, per_record, traffic = columns
        print(
            f"trace: {retained:,} retained records, {per_record:.1f} B of columns per record; "
            f"traffic (metrics): {traffic}"
        )
    del prepared, outcome  # the collector run below counts only its own result

    run_s, passes, inside, live = collector_run(workload, args.seed)
    print(
        f"unprofiled run: {run_s:.3f} s; collector passes gen 0 / 1 / 2: "
        f"{passes[0]} / {passes[1]} / {passes[2]}, seconds inside them "
        f"{inside[0]:.3f} / {inside[1]:.3f} / {inside[2]:.3f} "
        f"({100 * sum(inside) / run_s:.0f} % of the run)"
    )
    top = ", ".join(f"{name} {count:,}" for name, count in live.most_common(6))
    print(f"tracked objects alive at the end: {sum(live.values()):,}; top types: {top}")
    print(f"objects left for the collector: {left_for_collector(workload, args.seed):,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
