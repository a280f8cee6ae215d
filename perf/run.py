"""Host-time benchmark of the simulator: end-to-end and per-layer.

    python3 perf/run.py [--workload NAME] [--seed S] [--seconds T | --repeats K]
                        [--trace 0|1] [--scale F] [--out FILE]

Every repeat of every workload is one fresh child process (child.py),
run one at a time.  ``--trace 0`` runs untraced repeats and reports the
end-to-end metrics over them (the three timings as the fastest repeat,
memory as the median; both are printed); ``--trace 1`` runs
(untraced, traced) pairs and reports the per-layer metrics from the
traced halves; without ``--trace`` both are reported, from the untraced
repeats plus one traced repeat.  Every metric is printed by name with
its unit, and the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` per workload.

Outputs are checked on every repeat (oracle verdicts, agreement, commit
counts, cell counts), and ``record_sha256`` must be identical across
all repeats, traced or not; any failure exits non-zero.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = ROOT / "BENCHMARK.json"

DEFAULT_REPEATS = 5
#: the three timings report the fastest repeat, not the median: every
#: repeat executes the same instructions (record_sha256 is checked), so
#: any excess over the fastest is the host, and this host slows by
#: 20-40 % for half a minute at a time — longer than a whole invocation.
BEST_OF_REPEATS = ("setup_s", "run_s", "post_s")
#: with --seconds, never report a median over fewer untraced repeats.
MIN_TIMED_REPEATS = 3
#: a child that runs this long is stuck (a repeat takes ~4 s).
CHILD_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """A repeat crashed or its outputs failed a correctness check."""


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: context for spotting a
    noisy host.  Reported only — never a metric, never used to rescale."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def git_commit() -> str:
    """HEAD's commit, read from .git without running git (the driver's
    checkout is not a repository, and nothing outside it may be read)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_child(workload: str, seed: int, scale: float,
              untraced_run_s: Optional[float] = None) -> Dict[str, Any]:
    """One repeat in a fresh process; waits for it (or kills it)."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--scale", str(scale),
    ]
    if untraced_run_s is not None:
        command += ["--untraced-run-s", repr(untraced_run_s)]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: a repeat exceeded {CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload}: repeat exited {done.returncode}\n{done.stderr.strip()}"
        )
    report = json.loads(done.stdout.splitlines()[-1])
    if report["failures"]:
        raise BenchmarkError(f"{workload}: " + "; ".join(report["failures"]))
    return report


def summarise(values: List[float], best_of: bool = False) -> Dict[str, Any]:
    """The reported value (fastest repeat if ``best_of``, else the
    median) with median, quartiles, extremes and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {
        "value": min(values) if best_of else median,
        "median": median, "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values), "values": values,
    }


def measure(workload: str, args: argparse.Namespace, end_to_end: List[str]) -> Dict[str, Any]:
    """All repeats of one workload; raises BenchmarkError if any
    output is wrong or the repeats disagree on ``record_sha256``."""
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    started = time.perf_counter()
    laps: List[float] = []

    def budget_spent() -> bool:
        if args.repeats is not None or args.seconds is None:
            return len(laps) >= (args.repeats or DEFAULT_REPEATS)
        floor = 1 if args.trace == "1" else MIN_TIMED_REPEATS
        elapsed = time.perf_counter() - started
        return len(laps) >= floor and elapsed + statistics.median(laps) > args.seconds

    while not budget_spent():
        lap = time.perf_counter()
        untraced.append(run_child(workload, args.seed, args.scale))
        if args.trace == "1":
            baseline = statistics.median(r["run_s"] for r in untraced)
            traced.append(run_child(workload, args.seed, args.scale, baseline))
        laps.append(time.perf_counter() - lap)
    if args.trace is None:
        baseline = statistics.median(r["run_s"] for r in untraced)
        traced.append(run_child(workload, args.seed, args.scale, baseline))

    reports = untraced + traced
    first = reports[0]
    exact = ("record_sha256", "ops", "ops_failed", "events", "msgs", "sim_commit_rate")
    for key in exact:
        if any(report[key] != first[key] for report in reports):
            raise BenchmarkError(
                f"{workload}: {key} differs between repeats "
                f"({sorted({str(r[key]) for r in reports})}): the run is not "
                "deterministic, or the span wrappers perturbed it"
            )
    row: Dict[str, Any] = {
        "seed": args.seed,
        "repeats": len(untraced),
        "traced_repeats": len(traced),
        **{key: first[key] for key in exact + ("in_flight_at_cutoff", "definition")},
    }
    if args.trace != "1":
        row["end_to_end"] = {
            name: summarise([report[name] for report in untraced], name in BEST_OF_REPEATS)
            for name in end_to_end
        }
    if traced:
        row["per_layer"] = {
            name: statistics.median(report["per_layer"][name] for report in traced)
            for name in traced[0]["per_layer"]
        }
        row["traced_run_s"] = statistics.median(r["run_s"] for r in traced)
        row["spans"] = traced[-1]["spans"]
    return row


def print_row(workload: str, row: Dict[str, Any], units: Dict[str, str]) -> None:
    print(
        f"# {workload}: seed {row['seed']}, {row['repeats']} untraced + "
        f"{row['traced_repeats']} traced repeats, ops {row['ops']} "
        f"(failed {row['ops_failed']}, in flight at cut-off {row['in_flight_at_cutoff']}), "
        f"record_sha256 {row['record_sha256'][:16]}"
    )
    for name, stats in row.get("end_to_end", {}).items():
        print(
            f"{workload:18s} {name:34s} {stats['value']:14.6g} {units[name]:6s} "
            f"median {stats['median']:.6g} q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
            f"min {stats['min']:.6g} n {stats['n']}"
        )
    for name, value in row.get("per_layer", {}).items():
        print(f"{workload:18s} {name:34s} {value:14.6g} {units[name]}")


def result_line(row: Dict[str, Any], units: Dict[str, str]) -> str:
    """The contract's last-line JSON object for one workload."""
    metrics = {
        name: {"value": stats["value"], "unit": units[name]}
        for name, stats in row.get("end_to_end", {}).items()
    }
    metrics.update(
        (name, {"value": value, "unit": units[name]})
        for name, value in row.get("per_layer", {}).items()
    )
    runs = row["repeats"] + row["traced_repeats"]
    return json.dumps({
        "correct": True,
        "attempted": row["ops"] * runs,
        "failed": row["ops_failed"] * runs,
        "metrics": metrics,
    })


def main() -> int:
    contract = json.loads(CONTRACT.read_text())
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names, help="default: all four, in order")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="repeat for about this long (at least "
                             f"{MIN_TIMED_REPEATS} untraced repeats)")
    parser.add_argument("--repeats", type=int,
                        help=f"exact repeat count (default {DEFAULT_REPEATS} "
                             "when --seconds is not given)")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: end-to-end only; 1: per-layer only; default: both")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every virtual duration (self-test uses 0.1)")
    parser.add_argument("--out", help="write provenance, all samples and spans as JSON")
    args = parser.parse_args()
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: {ROOT / 'src' / 'repro'} not found: nothing to measure",
              file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    end_to_end = [m["name"] for m in contract["end_to_end"]]
    calib_before = calibrate()
    rows: Dict[str, Dict[str, Any]] = {}
    for workload in [args.workload] if args.workload else names:
        try:
            rows[workload] = measure(workload, args, end_to_end)
        except BenchmarkError as error:
            print(f"perf: INCORRECT: {error}", file=sys.stderr)
            return 1
        print_row(workload, rows[workload], units)
    calib_after = calibrate()
    print(f"# calib_s before {calib_before:.4f} after {calib_after:.4f} "
          "(fixed pure-Python loop; context only)")

    if args.out:
        payload = {
            "provenance": {
                "git_commit": git_commit(),
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "seed": args.seed,
                "scale": args.scale,
                "calib_s": {"before": calib_before, "after": calib_after},
            },
            "workloads": rows,
        }
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    for row in rows.values():
        print(result_line(row, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
