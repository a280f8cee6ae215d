"""The four benchmark workloads, their sizes and their correctness checks.

Every workload is built through the public ``Scenario`` API and has the
same three timed phases, which :mod:`child` runs once per fresh
process:

``prepare``  build and validate the scenario(s)         -> end of ``setup_s``
``run``      ``Scenario.run(seed)`` / the ``run_sweep`` loop   -> ``run_s``
``post``     oracle + ``RunRecord`` + canonical SHA-256  -> ``post_s``
             (timed a few times in-process, fastest kept)

``--seed`` is the only input that reaches the program: it is passed as
``Scenario.run(seed=...)`` or as the sweep's first seed.

Sizes.  ISSUE 11 sized a repeat at 4-7 s; the benchmark contract caps a
whole invocation near 30 s and wants at least five repeats in it, so
every virtual duration below is the issue's value times
``DURATION_SCALE`` = 0.5 (and the sweep uses two seeds, not four).
``hotstuff-soak-n64`` halves ``commit_window`` with its duration so the
run still overshoots the mempool history window by the same factor
(1.46x) and keeps exercising eviction.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.checks import run_oracle
from repro.experiments.registry import Scenario, get_scenario, scenario_catalog
from repro.experiments.results import RunRecord, records_to_json
from repro.experiments.sweep import run_sweep

DURATION_SCALE = 0.5
MAX_EVENTS = 50_000_000
MATRIX_PROTOCOLS = ("prft", "pbft", "hotstuff", "polygraph", "trap")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fastest(function: Callable[[], Any], repetitions: int) -> Tuple[float, Any]:
    """Call ``function`` ``repetitions`` times; the fastest call's
    seconds and the last result.  The post phases are short (7-250 ms)
    and read-only, so one descheduling is a visible share of one call."""
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def _scaled_windows(windows: Tuple[Tuple[Any, ...], ...], factor: float):
    return tuple((w[0],) + tuple(t * factor for t in w[1:]) for w in windows)


@dataclass(frozen=True)
class SingleRun:
    """One long deployment: ``Scenario.run`` then the audit a
    ``repro run --check`` user waits for."""

    name: str
    why: str
    #: the issue-sized scenario; its virtual durations are scaled by
    #: DURATION_SCALE * --scale in `prepare`.
    base: Scenario
    #: untraced repeats time `post` this often and keep the fastest.
    post_repetitions: int = 7

    def prepare(self, scale: float, seed: int) -> Scenario:
        factor = DURATION_SCALE * scale
        overrides: Dict[str, Any] = {"duration": self.base.duration * factor}
        if self.base.crash_spec:
            overrides["crash_spec"] = _scaled_windows(self.base.crash_spec, factor)
        if self.base.commit_window is not None:
            overrides["commit_window"] = max(1, int(self.base.commit_window * factor))
        return self.base.with_params(**overrides)

    def definition(self, scale: float) -> Dict[str, Any]:
        return self.prepare(scale, 0).to_dict()

    def run(self, scenario: Scenario, seed: int) -> Any:
        return scenario.run(seed=seed)

    def post(self, scenario: Scenario, result: Any, seed: int,
             repetitions: int) -> Dict[str, Any]:
        def audit():
            report = run_oracle(result, scenario, seed)
            record = RunRecord.from_result(scenario, seed, result)
            return report, record, _sha256(json.dumps(record.canonical(), sort_keys=True))

        post_s, (report, record, sha) = _fastest(audit, repetitions)
        throughput = result.throughput
        committed = result.ctx.commit_log.commit_times()
        # The simulator stops opening slots at `duration`, so whatever
        # clients sent in the last moments is cut off in flight by
        # design; only a transaction that had two timeouts to commit
        # and still did not counts as failed.
        cutoff = scenario.duration - 2 * scenario.timeout
        in_flight = sum(
            1 for tx_id, when in result.ctx.workload.submissions()
            if when >= cutoff and tx_id not in committed
        )
        failures = []
        if not report.ok:
            failures.append(f"oracle violated: {', '.join(report.violated_names)}")
        if not record.agreement:
            failures.append("honest chains disagree")
        if not 0 < throughput.committed <= throughput.submitted:
            failures.append(
                f"committed {throughput.committed} of {throughput.submitted} submitted"
            )
        return {
            "record_sha256": sha,
            "ops": throughput.submitted,
            "ops_failed": throughput.submitted - throughput.committed - in_flight,
            "in_flight_at_cutoff": in_flight,
            "sim_commit_rate": throughput.committed / throughput.horizon,
            "events": record.events,
            "msgs": record.total_messages,
            "post_s": post_s,
            "failures": failures,
        }


@dataclass(frozen=True)
class CatalogSweep:
    """Many short cold deployments: every catalog entry, oracle on,
    plus ``protocol-matrix`` across the five protocols."""

    name: str
    why: str
    #: seeds per cell at --scale 1 (the issue's four, halved).
    seeds: int = 2
    #: here `post` is only 7 ms, so many more repetitions than above.
    post_repetitions: int = 20

    def prepare(self, scale: float, seed: int) -> Dict[str, Any]:
        count = max(1, round(self.seeds * scale))
        cells = [
            (entry.with_params(check_invariants=True, max_events=MAX_EVENTS), None)
            for entry in scenario_catalog().values()
        ]
        matrix = get_scenario("protocol-matrix").with_params(
            check_invariants=True, max_events=MAX_EVENTS
        )
        cells.append((matrix, {"protocol": list(MATRIX_PROTOCOLS)}))
        return {"cells": cells, "seeds": list(range(seed, seed + count))}

    def definition(self, scale: float) -> Dict[str, Any]:
        plan = self.prepare(scale, 0)
        return {
            "scenarios": [scenario.name for scenario, _ in plan["cells"]],
            "matrix_protocols": list(MATRIX_PROTOCOLS),
            "seeds_per_cell": len(plan["seeds"]),
            "cells": self.expected_cells(plan),
        }

    @staticmethod
    def expected_cells(plan: Dict[str, Any]) -> int:
        return len(plan["seeds"]) * sum(
            len(grid["protocol"]) if grid else 1 for _, grid in plan["cells"]
        )

    def run(self, plan: Dict[str, Any], seed: int) -> List[RunRecord]:
        records: List[RunRecord] = []
        for scenario, grid in plan["cells"]:
            records.extend(
                run_sweep(scenario, grid=grid, seeds=plan["seeds"], jobs=1).records
            )
        return records

    def post(self, plan: Dict[str, Any], records: List[RunRecord], seed: int,
             repetitions: int) -> Dict[str, Any]:
        post_s, sha = _fastest(
            lambda: _sha256(records_to_json(records, meta={"seeds": plan["seeds"]})),
            repetitions,
        )
        violated = [r for r in records if r.invariant_violations]
        reports = [dict(r.throughput) for r in records if r.throughput is not None]
        failures = []
        if len(records) != self.expected_cells(plan):
            failures.append(
                f"{len(records)} cells, expected {self.expected_cells(plan)}"
            )
        for record in violated:
            failures.append(
                f"{record.scenario} seed {record.seed}: "
                f"{', '.join(record.invariant_violations)} violated"
            )
        return {
            "record_sha256": sha,
            "ops": len(records),
            "ops_failed": len(violated),
            "in_flight_at_cutoff": 0,
            "sim_commit_rate": (
                sum(t["committed"] for t in reports) / sum(t["horizon"] for t in reports)
            ),
            "events": sum(r.events for r in records),
            "msgs": sum(r.total_messages for r in records),
            "post_s": post_s,
            "failures": failures,
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        SingleRun(
            name="prft-closed-n16",
            why="pRFT closed loop: justifications re-verified per receiver, so "
                "crypto + core.pof dominate and the verify cache is exercised",
            base=get_scenario("closed-loop-prft").with_params(
                n=16, duration=400, max_time=2000, max_events=MAX_EVENTS,
                # Seeded delays (not the catalog's FixedDelay) so --seed
                # reaches the execution: with fixed delays every seed
                # replays one schedule and only the HMAC keys differ.
                delay="synchronous",
            ),
        ),
        SingleRun(
            name="hotstuff-soak-n64",
            why="HotStuff open-loop soak with aggregate certs and retention windows: "
                "mempool, workload ingest and hashing dominate; the verify memo is bypassed",
            base=Scenario(
                name="hotstuff-soak-n64", protocol="hotstuff", tolerance="bft", n=64,
                workload="poisson", arrival_rate=40, duration=600, timeout=30,
                max_time=4000, aggregate_certs=True, pipeline_depth=4,
                max_block_txs=256, coalesce_window=0.5,
                # 32 regions (two replicas a site), not the issue's 3: a
                # 3-region matrix is three seeded draws, and the message
                # count then swings 10 % from seed to seed.
                delay="regional", regions=32, delta=0.5,
                trace_window=1024, commit_window=16384, submission_window=1024,
                ledger_window=8, backlog_resolution=512, max_events=MAX_EVENTS,
            ),
        ),
        SingleRun(
            name="pbft-faulty-n16",
            why="pBFT all-to-all over a lossy, duplicating, reordering link with two "
                "crash windows: net.faults, engine and trace dominate, crypto is small",
            base=Scenario(
                name="pbft-faulty-n16", protocol="pbft", tolerance="bft", n=16,
                workload="poisson", arrival_rate=0.8, duration=1500, timeout=10,
                max_time=4000, loss_rate=0.05, duplicate_rate=0.05,
                reorder_jitter=0.5, crash_spec=((1, 200, 320), (7, 800, 900)),
                max_events=MAX_EVENTS,
            ),
        ),
        CatalogSweep(
            name="catalog-sweep",
            why="every catalog scenario under the oracle plus the five-protocol matrix: "
                "many cold deployments, so assembly, checkers and record building matter",
        ),
    )
}
