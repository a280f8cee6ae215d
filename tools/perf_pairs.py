"""Paired host-time runs of two source trees, one workload at a time.

    python tools/perf_pairs.py BASE_TREE CHANGE_TREE WORKLOAD [WORKLOAD ...]
                               [--pairs N] [--seed S]

Runs ``perf/child.py`` — one fresh process, one repeat, as
``perf/run.py`` runs it — N times on each tree, as N pairs: pair i runs
BASE first when i is even and CHANGE first when it is odd, so a slow
stretch of the host lands on both sides alike.  Per end-to-end metric
of ``BENCHMARK.json`` it prints each side's median and quartiles, the
BASE side's interquartile range, and in how many pairs CHANGE beat
BASE (a tie counts for neither side).  A gain is one to claim when
CHANGE wins at least nine pairs in ten and its median beats BASE's by
more than BASE's interquartile range; the "claimable" column says so.
A loss is confirmed when CHANGE's median is worse than BASE's by more
than the metric's ``BENCHMARK.json`` bound; the "worse" column says so.

Exit 1 on a confirmed worse metric, if a child fails (non-zero exit,
or a correctness check of the workload reports a failure) or if one
side's ``record_sha256`` is not the same in every pair; exit 2 on an
unknown workload.  ``make perf-compare`` runs this, N = 10, on any
workload its single alternation reads ``worse``, and fails only if it
confirms the loss.  Nothing under
``perf/`` is edited.  ``make perf-pairs BASE=<rev> WORKLOAD=<w> [N=10]
[PERF_SEED=0]`` extracts BASE as ``make perf-compare`` does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: as perf/run.py's CHILD_TIMEOUT_S: a repeat that runs this long is stuck.
CHILD_TIMEOUT_S = 150
SIDES = ("base", "change")


class PairError(Exception):
    """A child failed, or a side's record_sha256 moved between pairs."""


def run_child(tree: Path, workload: str, seed: int) -> Dict[str, Any]:
    """One ``perf/child.py`` repeat of ``workload`` on ``tree``."""
    try:
        done = subprocess.run(
            [sys.executable, "perf/child.py", "--workload", workload, "--seed", str(seed)],
            cwd=tree, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise PairError(f"{workload} on {tree}: a repeat exceeded {CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise PairError(f"{workload} on {tree}: exited {done.returncode}\n{done.stderr.strip()}")
    report = json.loads(done.stdout.splitlines()[-1])
    if report["failures"]:
        raise PairError(f"{workload} on {tree}: " + "; ".join(report["failures"]))
    return report


def quartiles(values: List[float]) -> List[float]:
    """q1, median, q3 (perf/run.py's method)."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def pairs(trees: Dict[str, Path], workload: str, count: int, seed: int) -> Dict[str, List[Dict[str, Any]]]:
    """``count`` reports per side, pair i's run first on BASE for even i."""
    reports: Dict[str, List[Dict[str, Any]]] = {side: [] for side in SIDES}
    for index in range(count):
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            reports[side].append(run_child(trees[side], workload, seed))
        print(f"perf-pairs: {workload}, pair {index + 1}/{count} done", file=sys.stderr)
    for side in SIDES:
        hashes = sorted({report["record_sha256"] for report in reports[side]})
        if len(hashes) > 1:
            raise PairError(f"{workload}: {side}'s record_sha256 varies across pairs: {hashes}")
    return reports


def table(workload: str, reports: Dict[str, List[Dict[str, Any]]],
          metrics: List[Dict[str, Any]]) -> Tuple[List[str], List[str]]:
    """The per-metric lines for one workload, and the metrics confirmed
    worse."""
    count = len(reports["base"])
    hashes = [reports[side][0]["record_sha256"][:8] for side in SIDES]
    lines = [
        f"{workload}: {count} pairs; record_sha256 base {hashes[0]}, change {hashes[1]}"
        + ("" if hashes[0] == hashes[1] else " (differ)"),
        f"  {'metric':<14}{'base median [q1, q3]':>30}{'change median [q1, q3]':>30}"
        f"{'delta':>9}{'base IQR':>10}{'wins':>7}  claimable  worse",
    ]
    worse: List[str] = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [report[name] for report in reports["base"]]
        change = [report[name] for report in reports["change"]]
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        gain = (bm - cm) if lower else (cm - bm)
        claimable = wins >= 0.9 * count and gain > b3 - b1
        lost = bool(bm) and -gain / abs(bm) > metric["bound"]
        if lost:
            worse.append(f"{workload} {name}")
        delta = f"{100 * (cm - bm) / bm:+.1f}%" if bm else "n/a"
        lines.append(
            f"  {name:<14}{f'{bm:.4g} [{b1:.4g}, {b3:.4g}]':>30}"
            f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>30}{delta:>9}{b3 - b1:>10.4g}"
            f"{f'{wins}/{count}':>7}  {'yes' if claimable else 'no':<9}  {'yes' if lost else 'no'}"
        )
    return lines, worse


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="BASE_TREE")
    parser.add_argument("change", type=Path, help="CHANGE_TREE")
    parser.add_argument("workloads", nargs="+", metavar="WORKLOAD", help=" | ".join(known))
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    unknown = [name for name in args.workloads if name not in known]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {known}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    worse: List[str] = []
    try:
        for workload in args.workloads:
            reports = pairs(trees, workload, args.pairs, args.seed)
            lines, confirmed = table(workload, reports, contract["end_to_end"])
            print("\n".join(lines))
            worse += confirmed
    except PairError as error:
        print(f"perf-pairs: {error}", file=sys.stderr)
        return 1
    for entry in worse:
        print(f"FAIL: {entry}: median worse than BASE's by more than its bound")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
