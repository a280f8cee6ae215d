"""Command-line interface: scenarios, sweeps, fuzzing and the catalog.

Subcommands::

    repro run <scenario|file.json> [...]  # one scenario, one run
    repro sweep <scenario> [...]          # parameter grid x seeds, parallel
    repro fuzz [...]                      # generated scenarios + oracle + shrinking
    repro search equilibrium [...]        # best-response deviation search (Table 2)
    repro search campaign [...]           # guided, checkpointed fuzz campaign
    repro check-catalog                   # trace oracle over every catalog entry
    repro list-scenarios                  # the registered catalog
    repro ingest FILE...                  # load sweep or fuzz JSON into the
                                          # SQLite results warehouse
    repro report campaign                 # violation triage over the warehouse

Examples::

    repro run honest --protocol prft -n 8 --rounds 3
    repro run fork -n 9 --rational 2 --byzantine 1 --check
    repro run honest --workload poisson --rate 50 --duration 500 --check
    repro run honest --workload burst --burst 5:20 --burst 50:20 --duration 200
    repro run fuzz-artifacts/fuzz-0-0012.json      # replay a shrunk repro
    repro sweep honest --grid n=4,8,16,32 --seeds 10 --jobs 8 --out results.json
    repro sweep lossy-honest --grid loss_rate=0,0.1 --seeds 5 --check
    repro sweep poisson-honest --grid arrival_rate=0.25,0.5,1,2 --seeds 5
    repro fuzz --budget 200 --seed 0 --jobs 8 --artifacts fuzz-artifacts
    repro fuzz --budget 500 --guided --db warehouse.sqlite --resume
    repro search equilibrium --protocol prft --jobs 8
    repro search equilibrium --protocol pbft --artifacts search-artifacts
    repro search campaign --budget 200 --db warehouse.sqlite --jobs 8
    repro check-catalog
    repro list-scenarios
    repro ingest results.json fuzz-report.json --db warehouse.sqlite
    repro report campaign --db warehouse.sqlite

``run`` resolves its positional — any catalog name, or a scenario /
repro JSON file — and then applies the flags on top, by one rule: *a
flag left unset keeps the scenario's value, a flag passed overrides
it*, for every name and every file (``repro run crash-leader
--loss-rate 0.1``, ``repro run repro.json --rounds 1``).  ``run``,
``sweep`` and ``list-scenarios`` therefore mean the same scenario by
the same name.

``run`` prints the terminal system state, the ledger lengths,
penalised players, and the robustness verdict — the same quantities
the paper's analysis is about; ``--check`` adds the trace oracle's
invariant verdicts (exit status 1 on a violation).  ``sweep`` prints
per-grid-point aggregates and can persist full records as JSON/CSV.
``fuzz`` runs the deterministic scenario fuzzer: seeded random
composition of the full axis space, every run oracle-checked, any
violating configuration shrunk to a minimal reproducing scenario and
written as a ready-to-register JSON that ``repro run <file>`` replays.
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import render_table
from repro.analysis.robustness import check_robustness
from repro.experiments.registry import (
    PROTOCOL_FACTORIES,
    WORKLOAD_AXIS,
    Scenario,
    get_scenario,
    scenario_catalog,
)
from repro.experiments.results import write_csv, write_json
from repro.experiments.sweep import expand_grid, run_sweep
from repro.protocols.runner import RunResult
from repro.workloads import WORKLOAD_KINDS


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------
def _crash_entry(spec: str) -> tuple:
    """One ``PID@T0[:T1]`` flag as a Scenario.crash_spec entry."""
    pid, separator, times = spec.partition("@")
    try:
        if not separator:
            raise ValueError(spec)
        return (int(pid), *(float(time) for time in times.split(":", 1)))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --crash spec {spec!r}; expected PID@T0[:T1]"
        ) from None


def _burst_entry(spec: str) -> tuple:
    """One ``T:COUNT`` flag as a Scenario.burst_schedule entry."""
    when, separator, count = spec.partition(":")
    try:
        if not separator:
            raise ValueError(spec)
        return (float(when), int(count))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --burst spec {spec!r}; expected T:COUNT"
        ) from None


#: Every `repro run` flag that sets a Scenario axis: (option string, the
#: Scenario field it overrides, add_argument kwargs).  This table is the
#: only place a flag is declared — the parser is built from it and so is
#: the override fold — and every flag defaults to None, "unset", so a
#: passed value (even one equal to the dataclass default) is
#: distinguishable from an absent one and overrides whatever the
#: positional resolved to.
RUN_FLAGS: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    ("--protocol", "protocol", dict(
        choices=sorted(PROTOCOL_FACTORIES), help="consensus protocol")),
    ("-n", "n", dict(type=int, help="committee size")),
    ("--rounds", "rounds", dict(type=int, help="consensus rounds")),
    ("--rational", "rational", dict(
        type=int, help="rational players k (placed at the lowest ids)")),
    ("--byzantine", "byzantine", dict(
        type=int, help="byzantine players t (placed at the lowest free ids)")),
    ("--timeout", "timeout", dict(type=float, help="phase timeout Δ")),
    ("--gst", "gst", dict(
        type=float,
        help="run partially synchronous with this GST (selects the "
             "partial delay model)")),
    ("--loss-rate", "loss_rate", dict(
        type=float,
        help="link-layer drop probability per delivery (0 = reliable)")),
    ("--duplicate-rate", "duplicate_rate", dict(
        type=float, help="link-layer duplication probability per delivery")),
    ("--reorder-jitter", "reorder_jitter", dict(
        type=float,
        help="uniform per-delivery jitter bound (reorders traffic)")),
    ("--crash", "crash_spec", dict(
        action="append", type=_crash_entry, metavar="PID@T0[:T1]",
        help="crash replica PID at T0, recovering at T1 (omit T1 for a "
             "permanent crash); repeatable, replaces the scenario's own "
             "crash schedule")),
    ("--workload", "workload", dict(
        choices=WORKLOAD_KINDS,
        help="client arrival process; anything but 'static' switches to "
             "the continuous multi-slot mode and needs a duration")),
    ("--rate", "arrival_rate", dict(
        type=float, metavar="RATE",
        help="poisson arrival rate in transactions per virtual time unit "
             "(implies --workload poisson)")),
    ("--outstanding", "outstanding", dict(
        type=int,
        help="closed-loop in-flight window size (implies --workload closed)")),
    ("--burst", "burst_schedule", dict(
        action="append", type=_burst_entry, metavar="T:COUNT",
        help="submit COUNT transactions at time T; repeatable (implies "
             "--workload burst)")),
    ("--duration", "duration", dict(
        type=float,
        help="continuous-workload run length in virtual time (replicas "
             "keep opening slots until it elapses or the load quiesces)")),
    ("--pipeline-depth", "pipeline_depth", dict(
        type=int,
        help="leaders may open up to this many slots speculatively "
             "ahead of the commit frontier (1 = strictly sequential)")),
    ("--block-txs", "max_block_txs", dict(
        type=int, metavar="BLOCK_TXS",
        help="per-block transaction cap for batched mempool drains "
             "(unset: the protocol block_size)")),
    ("--coalesce-window", "coalesce_window", dict(
        type=float,
        help="batch open-loop client arrivals landing within this "
             "window into one submission event (0 = submit each arrival "
             "immediately)")),
    ("--regions", "regions", dict(
        type=int,
        help="spread the committee round-robin over this many regions "
             "with a seeded inter-region latency matrix (selects the "
             "regional delay model)")),
    ("--region-spread", "region_spread", dict(
        type=float,
        help="worst inter-region base delay as a multiple of Δ")),
    ("--region-jitter", "region_jitter", dict(
        type=float,
        help="per-message jitter bound relative to the pair's base delay")),
    ("--trace-window", "trace_window", dict(
        type=int,
        help="keep only the last N trace events per kind "
             "(lifetime counters stay exact)")),
    ("--commit-window", "commit_window", dict(
        type=int,
        help="bound the commit log's first-commit maps and each mempool's "
             "inclusion history to the newest N transactions")),
    ("--submission-window", "submission_window", dict(
        type=int, help="keep only the last N workload submission records")),
    ("--ledger-window", "ledger_window", dict(
        type=int,
        help="strip transaction bodies from final blocks more than N "
             "below the commit head (digests and heights survive)")),
    ("--backlog-resolution", "backlog_resolution", dict(
        type=int,
        help="downsample the throughput backlog series to about N "
             "points (peak and final stay exact)")),
    ("--aggregate-certs", "aggregate_certs", dict(
        action="store_true",
        help="carry quorum certificates as aggregate signatures (one "
             "digest + signer bitmap + tag) instead of n signed "
             "statements — a pure wire-format change")),
    ("--check", "check_invariants", dict(
        action="store_true",
        help="run the trace oracle post-hoc and print its invariant "
             "verdicts (exit status 1 on a violation)")),
)

_OPTION = {field: option for option, field, _ in RUN_FLAGS}


def _add_fuzz_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags `repro fuzz` and `repro search campaign` share."""
    parser.add_argument("--budget", type=int, default=100, help="generated trials")
    parser.add_argument("--seed", type=int, default=0, help="fuzz campaign seed")
    parser.add_argument(
        "--profile", choices=("safe", "wild"), default="safe",
        help="safe: in-tolerance envelope where any violation is a bug "
             "(liveness skipped on attack trials by design); wild: "
             "adversarial axis space, conditional checkers may skip",
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--artifacts", default="fuzz-artifacts",
        help="directory for shrunk-repro JSONs (created on first violation)",
    )
    parser.add_argument("--out", default=None, help="write the full fuzz report as JSON")
    parser.add_argument(
        "--shrink-budget", type=int, default=64,
        help="max re-runs spent shrinking each violating configuration",
    )
    parser.add_argument(
        "--max-shrinks", type=int, default=5,
        help="how many violating trials to shrink into repro artifacts "
             "(the rest keep their full records in --out)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted campaign from its checkpointed "
             "cursor (needs --db or REPRO_WAREHOUSE)",
    )
    parser.add_argument(
        "--campaign-id", default=None,
        help="checkpoint key for --resume (default: derived from "
             "seed/profile/budget)",
    )
    parser.add_argument(
        "--db", default=None,
        help="warehouse for guided ordering, per-chunk record persistence "
             "and cursor checkpoints (default: $REPRO_WAREHOUSE)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=16,
        help="trials per checkpoint chunk when a warehouse is attached",
    )


def build_cli_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rational-consensus scenarios, sweeps and catalog.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run one scenario once and print its report"
    )
    # Validated in cmd_run (not by `choices`) so the error can list the
    # catalog and a path can name a scenario JSON, e.g. a fuzzer repro.
    run_parser.add_argument(
        "scenario", metavar="SCENARIO|FILE.json",
        help="a registered scenario name, or a scenario/repro JSON file",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="run seed (default: the file's embedded seed, else 0)",
    )
    for option, field, kwargs in RUN_FLAGS:
        run_parser.add_argument(option, dest=field, default=None, **kwargs)
    run_parser.set_defaults(func=cmd_run)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a parameter grid x seeds sweep, optionally in parallel"
    )
    sweep_parser.add_argument(
        "scenario", help="a registered scenario (see `repro list-scenarios`)"
    )
    sweep_parser.add_argument(
        "--grid", action="append", default=[], metavar="AXIS=V1,V2,...",
        help="sweep axis over scenario fields; repeatable, e.g. --grid n=4,8,16",
    )
    sweep_parser.add_argument("--seeds", type=int, default=1, help="seeds 0..S-1 per grid point")
    sweep_parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep_parser.add_argument("--out", default=None, help="write records + aggregates as JSON")
    sweep_parser.add_argument("--csv", default=None, help="write flat records as CSV")
    sweep_parser.add_argument(
        "--timings", action="store_true",
        help="include per-run wall times in files (breaks byte-for-byte determinism)",
    )
    sweep_parser.add_argument(
        "--check", action="store_true",
        help="oracle-check every run (verdicts land in the records; "
             "exit status 1 if any run violates an invariant)",
    )
    sweep_parser.set_defaults(func=cmd_sweep)

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="generate scenarios from a seeded RNG, oracle-check each run, "
             "shrink violations to minimal repro JSONs",
    )
    _add_fuzz_arguments(fuzz_parser)
    fuzz_parser.add_argument(
        "--inject-violation", action="store_true",
        help="replace trial 0 with a config that must violate the "
             "accountability invariant (self-test of the oracle+shrinker)",
    )
    fuzz_parser.add_argument(
        "--guided", action="store_true",
        help="order trials by warehouse near-miss history (boundary-"
             "pressing buckets first); trial identity is unchanged, "
             "only the execution order moves",
    )
    fuzz_parser.set_defaults(func=cmd_fuzz)

    search_parser = subparsers.add_parser(
        "search",
        help="adversary search engine: best-response strategy iteration "
             "over the gene space, and oracle-guided fuzz campaigns",
    )
    search_sub = search_parser.add_subparsers(dest="search_command", required=True)

    equilibrium_parser = search_sub.add_parser(
        "equilibrium",
        help="per-θ best-response search (Table 2): find the most "
             "profitable deviation per protocol and rational type; exit "
             "2 when one beats honest play",
    )
    equilibrium_parser.add_argument(
        "--protocol", action="append", default=[], choices=sorted(PROTOCOL_FACTORIES),
        help="protocol(s) to search (repeatable; default: prft)",
    )
    equilibrium_parser.add_argument(
        "--theta", action="append", type=int, default=[], choices=(1, 2, 3),
        help="rational type(s) θ to search (repeatable; default: 1 2 3)",
    )
    equilibrium_parser.add_argument("-n", type=int, default=9, help="committee size")
    equilibrium_parser.add_argument(
        "--seeds", type=int, default=1,
        help="seeds 0..S-1 averaged per evaluated point",
    )
    equilibrium_parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    equilibrium_parser.add_argument(
        "--max-iters", type=int, default=2,
        help="coordinate-descent passes per coalition size",
    )
    equilibrium_parser.add_argument(
        "--max-coalition", type=int, default=None,
        help="cap the searched coalition size (default: the class caps)",
    )
    equilibrium_parser.add_argument(
        "--artifacts", default="search-artifacts",
        help="directory for discovered-deviation repro JSONs "
             "(created on first profitable deviation)",
    )
    equilibrium_parser.add_argument(
        "--out", default=None, help="write the full report as JSON"
    )
    equilibrium_parser.set_defaults(func=cmd_search_equilibrium)

    search_campaign_parser = search_sub.add_parser(
        "campaign",
        help="near-miss-guided, checkpointed fuzz campaign "
             "(= repro fuzz --guided with warehouse persistence)",
    )
    _add_fuzz_arguments(search_campaign_parser)
    search_campaign_parser.set_defaults(func=cmd_fuzz, guided=True, inject_violation=False)

    catalog_parser = subparsers.add_parser(
        "check-catalog",
        help="run the trace oracle over every registered catalog scenario",
    )
    catalog_parser.add_argument("--seeds", type=int, default=1, help="seeds 0..S-1 per scenario")
    catalog_parser.set_defaults(func=cmd_check_catalog)

    list_parser = subparsers.add_parser(
        "list-scenarios", help="list the registered scenario catalog"
    )
    list_parser.set_defaults(func=cmd_list_scenarios)

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="load sweep/fuzz JSON record files into the SQLite results warehouse",
    )
    ingest_parser.add_argument(
        "files", nargs="+", metavar="FILE", help="sweep/fuzz JSON files to ingest"
    )
    ingest_parser.add_argument(
        "--db", default="warehouse.sqlite",
        help="warehouse database path (created if missing; default: %(default)s)",
    )
    ingest_parser.set_defaults(func=cmd_ingest)

    report_parser = subparsers.add_parser(
        "report", help="query the results warehouse"
    )
    report_sub = report_parser.add_subparsers(dest="report_command", required=True)

    campaign_parser = report_sub.add_parser(
        "campaign",
        help="violation triage over every stored run (fuzz campaigns)",
    )
    campaign_parser.add_argument("--db", default="warehouse.sqlite")
    campaign_parser.set_defaults(func=cmd_report_campaign)
    return parser


# ----------------------------------------------------------------------
# The `run` subcommand
# ----------------------------------------------------------------------
def _run_overrides(args: argparse.Namespace, scenario: Scenario) -> Dict[str, Any]:
    """The Scenario overrides a `repro run` invocation asks for.

    Every flag actually passed lands on its field, whatever the
    positional resolved to; unset flags contribute nothing.  A flag
    that selects a mode implies it rather than being silently ignored
    (`--burst 5:10` the burst workload, `--gst` the partial delay model,
    `--regions` the regional one); flags that contradict each other, or
    that the resolved scenario would ignore, are one-line errors.
    """
    overrides = {
        field: getattr(args, field)
        for _, field, _ in RUN_FLAGS
        if getattr(args, field) is not None
    }
    asked = {  # workload kind → the passed flag that implies it
        kind: _OPTION[field]
        for kind, (_, field) in WORKLOAD_AXIS.items()
        if field in overrides
    }
    if "workload" in overrides:
        stray = {k: flag for k, flag in asked.items() if k != overrides["workload"]}
        if stray:
            raise SystemExit(
                f"{'/'.join(stray.values())} only applies to the "
                f"{'/'.join(stray)} workload, not {overrides['workload']!r}"
            )
    elif len(asked) > 1:
        raise SystemExit(
            f"{'/'.join(asked.values())} imply different workloads "
            f"({', '.join(asked)}); pass --workload to disambiguate"
        )
    elif asked:
        (overrides["workload"],) = asked
    if "gst" in overrides and "regions" in overrides:
        raise SystemExit("--gst and --regions select different delay models")
    if "gst" in overrides:
        overrides["delay"] = "partial"
    if "regions" in overrides:
        overrides["delay"] = "regional"
    for field in ("region_spread", "region_jitter"):
        if field in overrides and overrides.get("delay", scenario.delay) != "regional":
            raise SystemExit(f"{_OPTION[field]} needs --regions")
    return overrides


def scenario_report(result: RunResult, scenario: Scenario) -> str:
    censored = list(scenario.censored_tx_ids) or None
    verdict = check_robustness(result, censored_tx_ids=censored)
    rows = [
        ["scenario", scenario.name],
        ["protocol", scenario.protocol],
        ["system state", verdict.state.name],
        ["final blocks", result.final_block_count()],
        ["penalised players", sorted(result.penalised_players())],
        ["agreement", verdict.agreement],
        ["eventual liveness", verdict.eventual_liveness],
        ["(t,k)-robust", verdict.robust],
        ["messages", result.metrics.total_messages],
        ["bytes", result.metrics.total_bytes],
    ]
    if result.throughput is not None:
        tp = result.throughput
        rows.append(["blocks/sec", round(tp.blocks_per_sec, 4)])
        rows.append([
            "commit latency mean/p99",
            f"{tp.latency_mean:.2f} / {tp.latency_p99:.2f}",
        ])
        rows.append(["peak mempool backlog", tp.peak_backlog])
        rows.append(["submitted / committed tx", f"{tp.submitted} / {tp.committed}"])
    if censored is not None:
        rows.append(["censorship resistant", verdict.censorship_resistance])
    if result.metrics.total_dropped:
        dropped = ", ".join(
            f"{reason}:{count}" for reason, count in sorted(result.metrics.dropped_by_reason().items())
        )
        rows.append(["dropped", dropped])
    if result.metrics.total_duplicates:
        rows.append(["duplicated copies", result.metrics.total_duplicates])
    return render_table(["quantity", "value"], rows, title="repro scenario result")


def _error_line(error: Exception) -> str:
    """An exception as a one-line CLI message (``str(KeyError)`` would
    be the quoted repr of its argument)."""
    return str(error.args[0]) if error.args else str(error)


def _resolve_run_scenario(name: str, explicit_seed: Optional[int]) -> tuple:
    """Map the `run` positional to (scenario, seed): a catalog entry,
    or a scenario/repro JSON file (whose embedded seed is used unless
    an explicit --seed overrides it)."""
    seed = 0 if explicit_seed is None else explicit_seed
    if name.endswith(".json") or os.path.sep in name:
        if not os.path.exists(name):
            raise SystemExit(f"scenario file {name!r} does not exist")
        from repro.experiments.fuzz import load_scenario_file

        try:
            scenario, embedded_seed, _ = load_scenario_file(name)
        except (KeyError, TypeError, ValueError) as error:
            # TypeError covers hand-edited files with wrong-typed
            # field values (e.g. "crash_spec": 5).
            raise SystemExit(f"{name}: {_error_line(error)}")
        if explicit_seed is None and embedded_seed is not None:
            seed = embedded_seed
        return scenario, seed
    try:
        return get_scenario(name), seed
    except KeyError as error:
        raise SystemExit(_error_line(error))


def cmd_run(args: argparse.Namespace) -> int:
    scenario, seed = _resolve_run_scenario(args.scenario, args.seed)
    try:
        # The single application point for every flag: the overrides
        # land on whatever the positional resolved to, and the scenario
        # re-validates as a whole.
        scenario = scenario.with_params(**_run_overrides(args, scenario))
    except (KeyError, TypeError, ValueError) as error:
        raise SystemExit(_error_line(error))
    result = scenario.run(seed=seed)
    print(scenario_report(result, scenario))
    if result.oracle is not None:
        print()
        print(result.oracle.render())
        if not result.oracle.ok:
            return 1
    return 0


# ----------------------------------------------------------------------
# Sweep and catalog subcommands
# ----------------------------------------------------------------------
def _parse_grid_value(raw: str) -> Any:
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def parse_grid(specs: Sequence[str]) -> Dict[str, List[Any]]:
    """Parse repeated ``axis=v1,v2,...`` flags into a grid mapping."""
    grid: Dict[str, List[Any]] = {}
    for spec in specs:
        axis, separator, values = spec.partition("=")
        if not separator or not axis or not values:
            raise SystemExit(f"bad --grid spec {spec!r}; expected AXIS=V1,V2,...")
        if axis in grid:
            raise SystemExit(f"duplicate --grid axis {axis!r}")
        grid[axis] = [_parse_grid_value(value) for value in values.split(",")]
    return grid


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        scenario = get_scenario(args.scenario)
    except KeyError as error:
        raise SystemExit(_error_line(error))
    if args.check and not scenario.check_invariants:
        scenario = scenario.with_params(check_invariants=True)
    grid = parse_grid(args.grid)
    if args.jobs < 1:
        raise SystemExit("jobs must be at least 1")
    try:
        # Expanding the grid exercises all scenario validation up front,
        # so bad inputs die with a one-line message while genuine
        # simulator failures during the run keep their traceback.
        expand_grid(scenario, grid=grid, seeds=args.seeds)
    except (KeyError, TypeError, ValueError) as error:
        raise SystemExit(_error_line(error))
    sweep = run_sweep(scenario, grid=grid, seeds=args.seeds, jobs=args.jobs)
    rows = []
    for summary in sweep.aggregates():
        point = ", ".join(f"{k}={v}" for k, v in summary["params"].items()) or "-"
        states = ", ".join(f"{name}:{count}" for name, count in summary["states"].items())
        rows.append([
            point,
            summary["runs"],
            summary["robust_fraction"],
            states,
            summary["mean_final_blocks"],
            summary["mean_messages"],
        ])
    print(render_table(
        ["grid point", "runs", "robust", "states", "blocks", "msgs"],
        rows,
        title=(
            f"sweep {scenario.name}: {len(sweep.records)} runs, "
            f"jobs={args.jobs}, wall {sweep.wall_time:.2f}s"
        ),
    ))
    if args.out:
        write_json(args.out, sweep.records, meta=sweep.meta(), include_timing=args.timings)
        print(f"wrote {len(sweep.records)} records to {args.out}")
    if args.csv:
        write_csv(args.csv, sweep.records, include_timing=args.timings)
        print(f"wrote CSV to {args.csv}")
    if args.check:
        violating = [r for r in sweep.records if r.invariant_violations]
        if violating:
            for record in violating:
                point = ", ".join(f"{k}={v}" for k, v in record.params) or "-"
                print(
                    f"invariant violation: {record.scenario} [{point}] seed {record.seed}: "
                    f"{', '.join(record.invariant_violations)}"
                )
            return 1
        print(f"trace oracle: all {len(sweep.records)} runs clean")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.experiments.fuzz import run_fuzz, write_repro

    if args.budget < 1:
        raise SystemExit("budget must be at least 1")
    if args.jobs < 1:
        raise SystemExit("jobs must be at least 1")
    if args.shrink_budget < 0:
        raise SystemExit("shrink-budget must be non-negative")
    if args.max_shrinks < 0:
        raise SystemExit("max-shrinks must be non-negative")
    try:
        fuzz = run_fuzz(
            budget=args.budget,
            fuzz_seed=args.seed,
            profile=args.profile,
            jobs=args.jobs,
            inject_violation=args.inject_violation,
            shrink_budget=args.shrink_budget,
            max_shrinks=args.max_shrinks,
            guided=args.guided,
            campaign_id=args.campaign_id,
            db=args.db,
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    except sqlite3.DatabaseError as error:
        raise SystemExit(f"fuzz: warehouse: {error}")
    rows = [
        [checker, totals["ok"], totals["violated"], totals["skipped"]]
        for checker, totals in sorted(fuzz.checker_totals().items())
    ]
    print(render_table(
        ["invariant", "ok", "violated", "skipped"],
        rows,
        title=(
            f"fuzz seed={args.seed} profile={args.profile}: "
            f"{len(fuzz.trials)}/{args.budget} trials, "
            f"{fuzz.violation_count} violating, wall {fuzz.wall_time:.1f}s"
        ),
    ))
    if fuzz.shrunk:
        os.makedirs(args.artifacts, exist_ok=True)
        for repro in fuzz.shrunk:
            path = os.path.join(args.artifacts, f"{repro.original_name}.json")
            write_repro(path, repro)
            print(
                f"shrunk {repro.original_name} -> {path} "
                f"(violates {', '.join(repro.violations)}; replay: repro run {path})"
            )
    dropped = fuzz.violation_count - len(fuzz.shrunk)
    if dropped > 0:
        print(
            f"{dropped} violating trial(s) not shrunk "
            f"(--max-shrinks {args.max_shrinks}); their full records are in "
            + (f"{args.out}" if args.out else "the report (pass --out to keep it)")
        )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(fuzz.to_json())
            handle.write("\n")
        print(f"wrote fuzz report to {args.out}")
    return 2 if fuzz.violation_count else 0


def cmd_search_equilibrium(args: argparse.Namespace) -> int:
    from repro.search.bestresponse import search_equilibrium

    if args.seeds < 1:
        raise SystemExit("seeds must be at least 1")
    if args.jobs < 1:
        raise SystemExit("jobs must be at least 1")
    if args.max_iters < 1:
        raise SystemExit("max-iters must be at least 1")
    protocols = list(dict.fromkeys(args.protocol)) or ["prft"]
    thetas = tuple(dict.fromkeys(args.theta)) or (1, 2, 3)
    try:
        report = search_equilibrium(
            protocols,
            thetas=thetas,
            n=args.n,
            seeds=tuple(range(args.seeds)),
            jobs=args.jobs,
            max_iters=args.max_iters,
            max_coalition=args.max_coalition,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    print(report.render())
    profitable = report.profitable_results()
    for result in profitable:
        best = result.best
        # Replay the discovered point under the trace oracle: the
        # deviation must sit inside the oracle's expectation envelope
        # (a profitable fork that also trips a checker is a simulator
        # bug, not a strategic finding).
        checked = best.scenario.with_params(check_invariants=True)
        oracle = checked.run(seed=best.seeds[0]).oracle
        verdict = "oracle clean" if oracle.ok else (
            "ORACLE VIOLATION: " + ", ".join(oracle.violated_names)
        )
        print(
            f"profitable deviation [{result.protocol} θ={result.theta}]: "
            f"{best.describe()} — margin {best.margin:+.3f} ({verdict})"
        )
        os.makedirs(args.artifacts, exist_ok=True)
        path = os.path.join(
            args.artifacts, f"deviation-{result.protocol}-th{result.theta}.json"
        )
        with open(path, "w") as handle:
            json.dump(best.repro_entry(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path} (replay: repro run {path})")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print(f"wrote search report to {args.out}")
    if not profitable:
        print(
            f"no profitable deviation for {', '.join(protocols)} "
            f"(θ ∈ {sorted(thetas)}): honest play is a best response"
        )
    return 2 if profitable else 0


def cmd_check_catalog(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise SystemExit("seeds must be at least 1")
    rows = []
    failures = 0
    for name, scenario in scenario_catalog().items():
        checked = scenario.with_params(check_invariants=True)
        violated: Dict[str, List[int]] = {}
        skipped: set = set()
        for seed in range(args.seeds):
            report = checked.run(seed=seed).oracle
            for verdict_name in report.violated_names:
                violated.setdefault(verdict_name, []).append(seed)
            skipped.update(v.name for v in report.verdicts if v.status == "skipped")
        status = "PASS" if not violated else "VIOLATED"
        failures += bool(violated)
        rows.append([
            name,
            status,
            ", ".join(f"{k}@{v}" for k, v in sorted(violated.items())) or "-",
            ", ".join(sorted(skipped)) or "-",
        ])
    print(render_table(
        ["scenario", "status", "violations", "inapplicable (envelope)"],
        rows,
        title=f"trace oracle over {len(rows)} catalog scenarios x {args.seeds} seed(s)",
    ))
    return 1 if failures else 0


def cmd_list_scenarios(args: argparse.Namespace) -> int:
    rows = []
    for name, scenario in scenario_catalog().items():
        deviators = f"{len(scenario.resolved_rational_ids())}R+{len(scenario.resolved_byzantine_ids())}B"
        rows.append([
            name,
            scenario.protocol,
            scenario.n,
            deviators,
            scenario.attack or "-",
            scenario.delay,
            scenario.description[:60],
        ])
    print(render_table(
        ["scenario", "protocol", "n", "deviators", "attack", "delay", "description"],
        rows,
        title=f"{len(rows)} registered scenarios",
    ))
    return 0


# ----------------------------------------------------------------------
# Warehouse subcommands: ingest and report
# ----------------------------------------------------------------------
def cmd_ingest(args: argparse.Namespace) -> int:
    from repro.experiments.warehouse import Warehouse

    rows = []
    with Warehouse(args.db) as store:
        for path in args.files:
            if not os.path.exists(path):
                raise SystemExit(f"ingest: {path!r} does not exist")
            try:
                outcome = store.ingest_file(path)
            except (ValueError, KeyError, TypeError) as error:
                raise SystemExit(f"ingest: {path}: {error}")
            rows.append([outcome.path, outcome.seen, outcome.added])
        runs = store.run_count()
    print(render_table(
        ["file", "records", "new rows"],
        rows,
        title=f"ingest -> {args.db}",
    ))
    print(f"warehouse now holds {runs} run record(s)")
    return 0


def cmd_report_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.warehouse import Warehouse

    with Warehouse(args.db) as store:
        summary = store.campaign_summary()
    rows = [
        [
            group.checker,
            group.runs,
            ", ".join(group.scenarios[:4]) + (", …" if len(group.scenarios) > 4 else ""),
            "; ".join(f"{scenario}@{seed}" for scenario, seed in group.examples),
        ]
        for group in summary.by_checker
    ]
    print(render_table(
        ["violated checker", "runs", "scenarios", "examples (scenario@seed)"],
        rows,
        title=(
            f"campaign triage ({args.db}): {summary.total_runs} run(s), "
            f"{summary.checked_runs} oracle-checked, "
            f"{summary.violating_runs} violating"
        ),
    ))
    if not summary.by_checker:
        print("no stored violations — campaign clean")
    if summary.skipped:
        print(
            "skipped verdicts (retention/applicability): "
            + ", ".join(f"{checker}:{count}" for checker, count in summary.skipped)
        )
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_cli_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed the pipe (`repro ... | head`); exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
