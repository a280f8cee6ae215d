"""Experiment orchestration: scenario registry, sweeps, results.

The modules layer as::

    registry  — declarative Scenario dataclasses + the named catalog
    sweep     — grid expansion and serial / multiprocess execution
    results   — flat RunRecord rows, JSON/CSV i/o, aggregation
    fuzz      — seeded scenario generation, oracle checks, shrinking
    warehouse — SQLite store over run records, with axis and
                campaign-triage queries (`repro report campaign`)

Typical use::

    from repro.experiments import get_scenario, run_sweep

    sweep = run_sweep(get_scenario("honest"), grid={"n": [4, 8, 16]},
                      seeds=10, jobs=4)
    for summary in sweep.aggregates():
        print(summary["params"], summary["robust_fraction"])
"""

from repro.experiments.registry import (
    ATTACKS,
    DELAY_MODELS,
    PROTOCOL_FACTORIES,
    Scenario,
    get_scenario,
    register,
    register_scenario,
    scenario_catalog,
)
from repro.experiments.results import (
    RunRecord,
    aggregate,
    mean,
    percentile,
    read_json,
    records_to_json,
    write_csv,
    write_json,
)
from repro.experiments.warehouse import (
    CampaignSummary,
    IngestReport,
    Warehouse,
)
from repro.experiments.sweep import (
    SweepJob,
    SweepResult,
    expand_grid,
    resolve_seeds,
    run_job,
    run_sweep,
)

__all__ = [
    "ATTACKS",
    "DELAY_MODELS",
    "PROTOCOL_FACTORIES",
    "Scenario",
    "get_scenario",
    "register",
    "register_scenario",
    "scenario_catalog",
    "RunRecord",
    "aggregate",
    "mean",
    "percentile",
    "read_json",
    "records_to_json",
    "write_csv",
    "write_json",
    "CampaignSummary",
    "IngestReport",
    "Warehouse",
    "SweepJob",
    "SweepResult",
    "expand_grid",
    "resolve_seeds",
    "run_job",
    "run_sweep",
]
