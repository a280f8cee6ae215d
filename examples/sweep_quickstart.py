#!/usr/bin/env python3
"""Sweep quickstart: grid a scenario over committee sizes and seeds.

Expands the registered ``honest`` scenario over four committee sizes
x three seeds (12 independent jobs), runs them on two worker
processes, prints the per-grid-point aggregates and writes the records
to ``sweep_quickstart.json`` in the working directory.  Swap the scenario name for any entry in
``repro list-scenarios`` — e.g. ``liveness`` or ``partition-fork`` —
to sweep an attack instead.

Run:  PYTHONPATH=src python examples/sweep_quickstart.py
"""

from repro.analysis import render_table
from repro.experiments import get_scenario, run_sweep, write_json


def main() -> None:
    scenario = get_scenario("honest").with_params(rounds=2)
    sweep = run_sweep(scenario, grid={"n": [4, 6, 8, 10]}, seeds=3, jobs=2)

    rows = [
        [
            summary["params"]["n"],
            summary["runs"],
            summary["robust_fraction"],
            summary["mean_final_blocks"],
            summary["mean_messages"],
            summary["mean_bytes"],
        ]
        for summary in sweep.aggregates()
    ]
    print(render_table(
        ["n", "runs", "robust", "blocks", "messages", "bytes"],
        rows,
        title=f"honest sweep: {len(sweep.records)} runs in {sweep.wall_time:.2f}s",
    ))

    write_json("sweep_quickstart.json", sweep.records, meta=sweep.meta())
    print("\nfull records written to ./sweep_quickstart.json")
    print("same thing from the shell:")
    print("  repro sweep honest --grid n=4,6,8,10 --seeds 3 --jobs 2 --out results.json")


if __name__ == "__main__":
    main()
