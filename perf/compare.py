"""Compare two ``run.py --out`` files: before/after, or A/A.

    python3 perf/compare.py A.json B.json

For every workload and end-to-end metric, prints both reported values
(the fastest repeat for the three timings, the median otherwise) with
median and quartiles, the relative change of the reported value
(positive = B is worse) and a verdict:

``same``        B's value is within the metric's bound of A's
``worse``       B's value is worse than A's by more than the bound
``better``      B's value is better by more than the bound, or every
                sample of B beats every sample of A
``unresolved``  the run-to-run spread (IQR / median, the wider side) is
                wider than the bound and the two sample ranges overlap,
                so a difference of the bound's size cannot be seen

Exits 1 on any ``worse``; on a changed ``record_sha256`` or
``sim_commit_rate`` when both files used the same seed (simulated
behaviour moved — a host-time comparison is then meaningless); and on a
larger ``ops_failed / ops``.  Bounds and directions come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> Tuple[float, str]:
    """(relative change with positive = worse, verdict) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    spread = max(
        (side["q3"] - side["q1"]) / abs(side["median"]) for side in (a, b)
    )
    if better == "lower":
        b_wins_all, a_wins_all = b["max"] < a["min"], a["max"] < b["min"]
    else:
        b_wins_all, a_wins_all = b["min"] > a["max"], a["min"] > b["max"]
    if spread > bound and not (b_wins_all or a_wins_all):
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound or (b_wins_all and worse_by < 0):
        return worse_by, "better"
    return worse_by, "same"


def compare(a: Dict[str, Any], b: Dict[str, Any], contract: Dict[str, Any]) -> List[str]:
    """Print the table; return the reasons to exit non-zero."""
    problems: List[str] = []
    metrics = {m["name"]: m for m in contract["end_to_end"]}
    print(f"{'workload':18s} {'metric':13s} {'A value (median [q1, q3])':>42s} "
          f"{'B value (median [q1, q3])':>42s} {'B vs A':>8s}  verdict")
    for workload, row_a in a["workloads"].items():
        row_b = b["workloads"].get(workload)
        if row_b is None or "end_to_end" not in row_a or "end_to_end" not in row_b:
            continue
        for name, spec in metrics.items():
            stats_a, stats_b = row_a["end_to_end"][name], row_b["end_to_end"][name]
            change, outcome = verdict(stats_a, stats_b, spec["better"], spec["bound"])
            cells = [
                f"{s['value']:.5g} ({s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}])"
                for s in (stats_a, stats_b)
            ]
            print(f"{workload:18s} {name:13s} {cells[0]:>42s} {cells[1]:>42s} "
                  f"{change:+8.1%}  {outcome}")
            if outcome == "worse":
                problems.append(f"{workload} {name} worse by {change:.1%} (bound {spec['bound']:.0%})")
        if row_a["seed"] == row_b["seed"]:
            # Both repeat exactly for one (code, seed), so != is the test.
            for key in ("record_sha256", "sim_commit_rate"):
                if row_a[key] != row_b[key]:
                    problems.append(f"{workload} {key} changed: {row_a[key]} -> {row_b[key]}")
        else:
            print(f"{workload:18s} seeds differ ({row_a['seed']} vs {row_b['seed']}): "
                  "record_sha256 / sim_commit_rate not compared")
        failed_a = row_a["ops_failed"] / row_a["ops"]
        failed_b = row_b["ops_failed"] / row_b["ops"]
        print(f"{workload:18s} ops_failed/ops   {row_a['ops_failed']}/{row_a['ops']} -> "
              f"{row_b['ops_failed']}/{row_b['ops']}")
        if failed_b > failed_a:
            problems.append(f"{workload} fails more operations: {failed_a:.4%} -> {failed_b:.4%}")
    return problems


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in sys.argv[1:])
    problems = compare(a, b, json.loads(CONTRACT.read_text()))
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
