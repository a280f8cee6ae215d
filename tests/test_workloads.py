"""Tests for the RunSpec/Deployment API and the workload subsystem.

Covers repro.protocols.spec (the composable typed specs), the
Deployment/run execution path,
repro.workloads (StaticBatch byte-identity, Poisson/closed/burst
determinism and semantics), the continuous round loop
(duration/quiesce), throughput metrics, the golden-record gate over
every pre-existing catalog scenario, and the workload axes end to end
through Scenario, sweeps and the CLI.
"""

import json
import sys
from pathlib import Path
from typing import get_type_hints

import pytest

from repro.agents.player import honest_player
from repro.cli import main
from repro.core.replica import prft_factory
from repro.experiments import Scenario, get_scenario, run_sweep, scenario_catalog
from repro.experiments.results import RunRecord, records_to_json
from repro.protocols.base import ProtocolConfig
from repro.protocols.runner import (
    CryptoSpec,
    Deployment,
    FaultSpec,
    NetworkSpec,
    ProductionSpec,
    RetentionSpec,
    RunResult,
    RunSpec,
    WorkloadSpec,
    run,
)
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import CommitLog, ThroughputReport, report_from_accumulator
from repro.workloads import (
    WORKLOAD_KINDS,
    Burst,
    ClosedLoop,
    PoissonOpenLoop,
    StaticBatch,
    make_transactions,
)
from tests.conftest import replay_throughput

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "golden_records.json"

CONTINUOUS_SCENARIOS = (
    "poisson-honest",
    "closed-loop-prft",
    "burst-under-loss",
    "poisson-crash-churn",
)


def players_of(n):
    return tuple(honest_player(i) for i in range(n))


def canonical_json(scenario, seed=0):
    result = scenario.run(seed=seed)
    record = RunRecord.from_result(scenario, seed=seed, result=result)
    return json.dumps(record.canonical(), sort_keys=True)


# ----------------------------------------------------------------------
# Satellite regression: RunResult type hints must resolve
# ----------------------------------------------------------------------
class TestRunResultTypeHints:
    def test_type_hints_resolve(self):
        # `oracle: Optional[Any]` used to reference an unimported Any;
        # get_type_hints crashed on any introspection of RunResult.
        hints = get_type_hints(RunResult)
        assert "oracle" in hints
        assert "throughput" in hints


# ----------------------------------------------------------------------
# Spec validation and composition
# ----------------------------------------------------------------------
class TestSpecs:
    def test_runspec_rejects_bad_roster(self):
        config = ProtocolConfig.for_prft(n=5)
        with pytest.raises(ValueError, match="ids 0..n-1"):
            RunSpec(factory=prft_factory, players=players_of(4), config=config)

    def test_continuous_workload_requires_duration(self):
        config = ProtocolConfig.for_prft(n=5)  # no duration
        with pytest.raises(ValueError, match="duration"):
            RunSpec(
                factory=prft_factory, players=players_of(5), config=config,
                workload=WorkloadSpec(kind="poisson"),
            )

    def test_workload_spec_validation(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            WorkloadSpec(kind="avalanche")
        with pytest.raises(ValueError, match="rate"):
            WorkloadSpec(kind="poisson", rate=0.0)
        with pytest.raises(ValueError, match="outstanding"):
            WorkloadSpec(kind="closed", outstanding=0)
        with pytest.raises(ValueError, match="bursts"):
            WorkloadSpec(kind="burst")
        with pytest.raises(ValueError, match="static"):
            WorkloadSpec(kind="poisson", count=4)

    def test_network_spec_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec(loss_rate=1.5)
        with pytest.raises(ValueError):
            NetworkSpec(reorder_jitter=-1.0)

    def test_config_duration_validation(self):
        with pytest.raises(ValueError, match="duration"):
            ProtocolConfig.for_prft(n=5, duration=0.0)

    @pytest.mark.parametrize("owner,field,value", [
        # accepted and run: depth 2.5 ran as depth 2 does
        (ProductionSpec, "pipeline_depth", 2.5),
        (ProductionSpec, "pipeline_depth", True),
        (CryptoSpec, "cache_size", 2.5),
        (RetentionSpec, "backlog_resolution", 2.5),
        (RetentionSpec, "ledger_window", True),
        (ProtocolConfig, "n", 4.0),
        # accepted, then crashing mid-run (TypeError, islice, ...)
        (RetentionSpec, "submission_window", 2.5),
        (RetentionSpec, "ledger_window", 2.5),
        (ProductionSpec, "max_block_txs", 2.5),
        (WorkloadSpec, "outstanding", 2.5),
    ])
    def test_a_spec_refuses_what_its_declared_int_is_not(self, owner, field, value):
        """The declared field type is the one validator, as on Scenario."""
        required = {"t0": 1} if owner is ProtocolConfig else {}
        with pytest.raises(ValueError) as caught:
            owner(**required, **{field: value})
        assert str(caught.value).startswith(f"{owner.__name__}: {field} must be int")

    def test_deployment_executes_once(self):
        config = ProtocolConfig.for_prft(n=4, max_rounds=1)
        deployment = Deployment(RunSpec(factory=prft_factory, players=players_of(4), config=config))
        deployment.execute()
        with pytest.raises(RuntimeError):
            deployment.execute()

    def test_static_spec_count_and_transactions(self):
        config = ProtocolConfig.for_prft(n=4, max_rounds=2, block_size=3)
        assert len(WorkloadSpec(count=5).build(config)._batch) == 5
        explicit = tuple(make_transactions(3, prefix="mine"))
        built = WorkloadSpec(transactions=explicit).build(config)
        assert [t.tx_id for t in built._batch] == ["mine-0", "mine-1", "mine-2"]
        # historical default: 2 * block_size * max_rounds
        assert len(WorkloadSpec().build(config)._batch) == 12


# ----------------------------------------------------------------------
# Golden-record gate: every pre-existing catalog scenario, byte for byte
# ----------------------------------------------------------------------
class TestGoldenRecords:
    def test_all_pre_existing_scenarios_byte_identical(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert len(golden) >= 13
        for name in sorted(golden):
            assert canonical_json(get_scenario(name)) == json.dumps(
                golden[name], sort_keys=True
            ), f"{name} diverged from the golden record under the RunSpec API"


# ----------------------------------------------------------------------
# Workload semantics
# ----------------------------------------------------------------------
class TestWorkloadSemantics:
    def run_with(self, workload_spec, n=5, duration=None, seed="wl/0", timeout=10.0, **cfg):
        config = ProtocolConfig.for_prft(n=n, timeout=timeout, duration=duration, **cfg)
        spec = RunSpec(
            factory=prft_factory, players=players_of(n), config=config,
            workload=workload_spec, seed=seed, max_time=duration * 3 if duration else 10_000.0,
        )
        return run(spec)

    def test_static_batch_keeps_legacy_tx_names(self):
        result = self.run_with(WorkloadSpec(count=6))
        assert result.submitted_tx_ids == [f"tx-{i}" for i in range(6)]

    def test_poisson_submissions_increase_and_stop_at_duration(self):
        result = self.run_with(WorkloadSpec(kind="poisson", rate=0.5), duration=60.0)
        deployment_workload = result.ctx.workload
        submissions = deployment_workload.submissions()
        assert submissions, "poisson produced no arrivals"
        times = [t for _, t in submissions]
        assert times == sorted(times)
        assert all(0 < t < 60.0 for t in times)
        assert deployment_workload.finished(60.0)

    def test_burst_arrival_times_match_schedule(self):
        result = self.run_with(
            WorkloadSpec(kind="burst", bursts=((4.0, 3), (20.0, 2))), duration=50.0
        )
        submissions = result.ctx.workload.submissions()
        assert [t for _, t in submissions] == [4.0] * 3 + [20.0] * 2

    def test_burst_quiesces_before_duration(self):
        result = self.run_with(
            WorkloadSpec(kind="burst", bursts=((2.0, 4),)), duration=400.0
        )
        assert result.throughput.final_backlog == 0
        # the run drained long before the configured duration
        assert result.ctx.engine.last_event_time < 100.0

    def test_static_with_duration_quiesces_when_batch_drains(self):
        result = self.run_with(WorkloadSpec(count=12), duration=300.0, block_size=4)
        assert result.throughput is not None
        assert result.throughput.committed == 12
        assert result.ctx.engine.last_event_time < 300.0

    def test_closed_loop_peak_backlog_bounded_by_window(self):
        result = self.run_with(WorkloadSpec(kind="closed", outstanding=5), duration=80.0)
        report = result.throughput
        assert report.peak_backlog <= 5
        assert report.submitted > 5  # the window turned over
        assert report.committed >= report.submitted - 5

    def test_continuous_run_outruns_max_rounds(self):
        # max_rounds defaults to 3; a duration-driven run must keep
        # opening slots far beyond it.
        result = self.run_with(WorkloadSpec(kind="poisson", rate=0.5), duration=100.0)
        assert result.final_block_count() > 3

    def test_throughput_report_sanity(self):
        result = self.run_with(WorkloadSpec(kind="poisson", rate=0.8), duration=100.0)
        report = result.throughput
        assert isinstance(report, ThroughputReport)
        assert report.blocks == result.final_block_count()
        assert report.blocks_per_sec == pytest.approx(report.blocks / report.horizon)
        assert 0 < report.committed <= report.submitted
        assert 0 <= report.latency_mean <= report.latency_p99 <= report.latency_max
        assert report.latency_p50 <= report.latency_p99
        assert report.final_backlog == report.submitted - report.committed
        assert report.peak_backlog >= report.final_backlog
        # the series ends at the final backlog
        assert report.backlog_series[-1][1] == report.final_backlog

    def test_legacy_run_has_no_throughput_report(self):
        result = self.run_with(WorkloadSpec(count=6))
        assert result.throughput is None

    def test_gst_past_duration_suspends_liveness_expectation(self):
        # Duration-driven runs stop opening slots at `duration` and do
        # not get the fixed-slot GST budget extension: a GST at or past
        # the duration leaves no stabilised window, so the oracle must
        # skip liveness instead of reporting a spurious violation.
        scenario = Scenario(
            name="pre-gst-poisson", n=5, workload="poisson",
            arrival_rate=0.5, duration=40.0, delay="partial", gst=150.0,
            timeout=10.0, check_invariants=True,
        )
        result = scenario.run(seed=0)
        verdict = result.oracle.verdict("liveness")
        assert verdict.status == "skipped"
        assert any("GST" in reason for reason in result.oracle.expectations.reasons)
        assert result.oracle.ok

    def test_zero_arrival_poisson_run_is_not_a_liveness_violation(self):
        # A Poisson draw whose first gap exceeds the duration produces
        # zero arrivals; replicas quiesce at round 0 with zero blocks,
        # which the oracle must treat as correct, not failed progress.
        scenario = Scenario(
            name="zero-arrivals", n=5, workload="poisson",
            arrival_rate=0.001, duration=0.5, check_invariants=True,
        )
        result = scenario.run(seed=0)
        assert result.submitted_tx_ids == []
        assert result.final_block_count() == 0
        assert result.oracle.verdict("liveness").status == "ok"
        assert result.oracle.ok


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestWorkloadDeterminism:
    @pytest.mark.parametrize("name", CONTINUOUS_SCENARIOS)
    def test_catalog_scenario_replays_identically(self, name):
        scenario = get_scenario(name)
        assert canonical_json(scenario, seed=3) == canonical_json(scenario, seed=3)

    def test_different_seeds_differ(self):
        scenario = get_scenario("poisson-honest")
        first = scenario.run(seed=0).ctx.workload.submissions()
        second = scenario.run(seed=1).ctx.workload.submissions()
        assert first != second

    def test_serial_parallel_sweep_identical_with_workload_axes(self):
        scenario = get_scenario("poisson-honest").with_params(duration=40.0)
        grid = {"arrival_rate": [0.25, 0.5], "workload": ["poisson", "closed"]}
        serial = run_sweep(scenario, grid=grid, seeds=2, jobs=1)
        parallel = run_sweep(scenario, grid=grid, seeds=2, jobs=2)
        assert records_to_json(serial.records, meta=serial.meta()) == records_to_json(
            parallel.records, meta=parallel.meta()
        )

    def test_sweep_aggregates_carry_throughput_rates(self):
        scenario = get_scenario("poisson-honest").with_params(duration=40.0)
        sweep = run_sweep(scenario, grid={"arrival_rate": [0.5]}, seeds=2)
        summary = sweep.aggregates()[0]
        assert summary["mean_blocks_per_sec"] > 0
        assert "mean_latency_p99" in summary and "max_peak_backlog" in summary
        for record in sweep.records:
            assert record.throughput is not None


# ----------------------------------------------------------------------
# Record serialisation round-trips
# ----------------------------------------------------------------------
class TestThroughputRecords:
    def test_record_roundtrip_with_throughput(self):
        scenario = get_scenario("poisson-honest").with_params(duration=40.0)
        result = scenario.run(seed=0)
        record = RunRecord.from_result(scenario, seed=0, result=result)
        assert record.throughput is not None
        assert dict(record.throughput)["blocks_per_sec"] > 0
        rebuilt = RunRecord.from_dict(record.to_dict())
        assert rebuilt.throughput == record.throughput
        assert rebuilt.canonical() == record.canonical()

    def test_legacy_record_omits_throughput_key(self):
        scenario = get_scenario("honest")
        result = scenario.run(seed=0)
        record = RunRecord.from_result(scenario, seed=0, result=result)
        assert record.throughput is None
        assert "throughput" not in record.to_dict()

    def test_scenario_dict_roundtrip_with_workload_axes(self):
        scenario = get_scenario("burst-under-loss")
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert rebuilt.burst_schedule == ((5.0, 12), (40.0, 12))


# ----------------------------------------------------------------------
# Scenario validation and catalog registration
# ----------------------------------------------------------------------
class TestScenarioWorkloadAxes:
    def test_new_scenarios_registered(self):
        catalog = scenario_catalog()
        for name in CONTINUOUS_SCENARIOS:
            assert name in catalog

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            Scenario(name="x", workload="avalanche", duration=10.0)

    def test_continuous_without_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            Scenario(name="x", workload="poisson")

    def test_burst_needs_schedule(self):
        with pytest.raises(ValueError, match="burst_schedule"):
            Scenario(name="x", workload="burst", duration=10.0)
        with pytest.raises(ValueError, match="before the duration"):
            Scenario(
                name="x", workload="burst", duration=10.0,
                burst_schedule=((20.0, 4),),
            )

    def test_tx_count_only_static(self):
        with pytest.raises(ValueError, match="tx_count"):
            Scenario(name="x", workload="poisson", duration=10.0, tx_count=4)

    def test_duration_must_fit_inside_max_time(self):
        # A duration past the engine bound would silently truncate the
        # run while rates and oracle expectations assume the full window.
        with pytest.raises(ValueError, match="max_time"):
            Scenario(
                name="x", workload="poisson", duration=5_000.0, max_time=2_000.0
            )

    def test_workload_is_a_sweep_axis(self):
        scenario = get_scenario("honest").with_params(
            workload="poisson", arrival_rate=0.5, duration=30.0
        )
        assert scenario.run(seed=0).throughput is not None

    def test_burst_rules_only_apply_to_burst_workload(self):
        # Re-pointing a burst catalog entry at another workload keeps
        # its (now ignored) schedule without tripping burst validation.
        scenario = get_scenario("burst-under-loss").with_params(
            workload="poisson", arrival_rate=0.5, duration=3.0
        )
        assert scenario.workload == "poisson"
        with pytest.raises(ValueError, match="before the duration"):
            get_scenario("burst-under-loss").with_params(duration=3.0)

    def test_bad_burst_entries_rejected_at_scenario_level(self):
        # Entry rules are single-sourced in WorkloadSpec; the scenario
        # delegates by compiling its spec at construction time.
        with pytest.raises(ValueError, match="time >= 0"):
            Scenario(
                name="x", workload="burst", duration=10.0,
                burst_schedule=((-1.0, 4),),
            )
        with pytest.raises(ValueError, match="rate"):
            Scenario(name="x", workload="poisson", duration=10.0, arrival_rate=0.0)


# ----------------------------------------------------------------------
# Crash recovery under continuous load (the batch catch-up regression)
# ----------------------------------------------------------------------
class TestCatchUpUnderContinuousLoad:
    @pytest.mark.parametrize("protocol", ["prft", "pbft", "hotstuff", "trap"])
    def test_recovered_replica_converges(self, protocol):
        # Shrunk from fuzz trial fuzz-0-0034 (pre-fix): a replica that
        # recovered mid-run caught up one round per timeout while peers
        # kept minting slots, so its chain never converged by cut-off.
        # Batch catch-up serves the whole decided backlog per request.
        scenario = Scenario(
            name=f"catchup-{protocol}", protocol=protocol, n=5,
            workload="poisson", arrival_rate=0.9, duration=90.0,
            crash_spec=((0, 13.0, 23.0),), timeout=12.0, max_time=200.0,
            check_invariants=True,
        )
        result = scenario.run(seed=1)
        heights = {
            pid: len(chain.final_blocks())
            for pid, chain in result.honest_chains().items()
        }
        spread = max(heights.values()) - min(heights.values())
        assert spread <= 1, f"{protocol} heights diverged: {heights}"
        assert result.oracle.ok, result.oracle.violated_names


# ----------------------------------------------------------------------
# Engine: last_event_time
# ----------------------------------------------------------------------
class TestLastEventTime:
    def test_tracks_fired_events_not_run_bound(self):
        engine = SimulationEngine()
        engine.schedule(5.0, lambda: None)
        engine.run(until=100.0)
        assert engine.now == 100.0
        assert engine.last_event_time == 5.0


# ----------------------------------------------------------------------
# Throughput-report arithmetic
# ----------------------------------------------------------------------
class TestThroughputReport:
    def test_latency_and_backlog_walk(self):
        submissions = [("a", 0.0), ("b", 1.0), ("c", 2.0)]
        commits = {"a": 4.0, "b": 4.0}
        report = report_from_accumulator(
            replay_throughput(submissions, commits), blocks=1, horizon=10.0
        )
        assert report.submitted == 3 and report.committed == 2
        assert report.latency_mean == pytest.approx(3.5)
        assert report.latency_max == pytest.approx(4.0)
        assert report.peak_backlog == 3
        assert report.final_backlog == 1
        assert report.blocks_per_sec == pytest.approx(0.1)

    @pytest.mark.parametrize("submit_first", [False, True])
    def test_same_instant_commit_and_submission_do_not_inflate_peak(self, submit_first):
        # A commit and an unrelated submission at the same instant must
        # not inflate the peak (the closed-loop top-up pattern),
        # whichever of the two the accumulator hears of first.
        submissions = [("a", 0.0), ("b", 5.0)]
        commits = {"a": 5.0}
        report = report_from_accumulator(
            replay_throughput(submissions, commits, submit_first=submit_first),
            blocks=1, horizon=10.0,
        )
        assert report.peak_backlog == 1
        assert report.backlog_series == ((0.0, 1), (5.0, 1))

    def test_commit_log_restricts_and_notifies(self):
        class Block:
            def __init__(self, digest, tx_ids):
                self.digest = digest
                self.transactions = [type("Tx", (), {"tx_id": t})() for t in tx_ids]

        log = CommitLog()
        log.restrict_to([0, 1])
        seen = []
        log.subscribe(lambda tx_id, now: seen.append((tx_id, now)))
        log.note(4, 1.0, Block("d1", ["a"]))          # deviator: ignored
        log.note(0, 2.0, Block("d1", ["a"]))
        log.note(1, 3.0, Block("d1", ["a"]))          # duplicate: ignored
        assert log.first_commit("a") == 2.0
        assert seen == [("a", 2.0)]
        assert log.committed_blocks == 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestWorkloadCli:
    def test_run_poisson_reports_throughput(self, capsys):
        argv = [
            "run", "honest", "-n", "5", "--workload", "poisson", "--rate", "0.5",
            "--duration", "40", "--check",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "blocks/sec" in first
        assert "commit latency mean/p99" in first
        assert "peak mempool backlog" in first
        assert "trace oracle: PASS" in first
        # deterministic across repeated invocations
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_run_burst_flags(self, capsys):
        assert main([
            "run", "honest", "-n", "5", "--workload", "burst",
            "--burst", "2:4", "--burst", "10:4", "--duration", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "submitted / committed tx" in out
        assert "8 / 8" in out

    def test_workload_flags_apply_to_catalog_entries(self, capsys):
        assert main([
            "run", "protocol-matrix", "--workload", "poisson", "--rate", "0.5",
            "--duration", "30",
        ]) == 0
        assert "blocks/sec" in capsys.readouterr().out

    def test_explicit_default_values_still_override(self, capsys):
        # `--workload static` must really force the static batch on a
        # poisson catalog entry (flags are None-default sentinels, so
        # passing a scenario-default value is still an override): the
        # legacy batch is 2 * block_size * max_rounds = 24 generated tx.
        assert main(["run", "poisson-honest", "--workload", "static"]) == 0
        assert "24 / 24" in capsys.readouterr().out

    def test_continuous_workload_without_duration_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["run", "honest", "--workload", "poisson"])

    def test_kind_flag_implies_its_workload(self, capsys):
        # --burst alone must select the burst workload, not be silently
        # ignored in favour of the static batch.
        assert main([
            "run", "honest", "-n", "5", "--burst", "2:10", "--duration", "50",
        ]) == 0
        assert "10 / 10" in capsys.readouterr().out

    def test_conflicting_kind_flags_are_an_error(self):
        with pytest.raises(SystemExit, match="imply different workloads"):
            main(["run", "honest", "--rate", "2", "--outstanding", "3",
                  "--duration", "30"])
        with pytest.raises(SystemExit, match="only applies"):
            main(["run", "honest", "--workload", "closed", "--rate", "2",
                  "--duration", "30"])

    def test_bad_burst_spec_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["run", "honest", "--workload", "burst", "--burst", "nope",
                  "--duration", "30"])

    def test_sweep_accepts_workload_grid(self, capsys):
        assert main([
            "sweep", "poisson-honest", "--grid", "arrival_rate=0.25,0.5",
            "--grid", "duration=30", "--seeds", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 runs" in out


# ----------------------------------------------------------------------
# Workload classes in isolation
# ----------------------------------------------------------------------
class TestWorkloadClasses:
    def test_kinds_exported(self):
        assert WORKLOAD_KINDS == ("static", "poisson", "closed", "burst")
        for cls, kind in (
            (StaticBatch, "static"), (PoissonOpenLoop, "poisson"),
            (ClosedLoop, "closed"), (Burst, "burst"),
        ):
            assert cls.kind == kind

    def test_install_only_once(self):
        config = ProtocolConfig.for_prft(n=4, max_rounds=1)
        deployment = Deployment(RunSpec(
            factory=prft_factory, players=players_of(4), config=config,
        ))
        with pytest.raises(RuntimeError):
            deployment.workload.install(deployment.ctx, deployment.replicas)

    def test_submit_fan_out_costs_o_n_calls_whatever_the_batch_size(self):
        """Ingest cost, counted not timed: handing a batch to all n
        mempools makes a fixed number of Python-level calls per replica
        and none per transaction."""
        n = 8
        deployment = Deployment(get_scenario("honest").with_params(n=n).build_run_spec())

        def python_calls(batch):
            calls = 0

            def profiler(frame, event, arg):
                nonlocal calls
                calls += event == "call"

            previous = sys.getprofile()
            sys.setprofile(profiler)
            try:
                deployment.workload.submit(batch)
            finally:
                sys.setprofile(previous)
            return calls

        one = python_calls(make_transactions(1, prefix="one"))
        many = python_calls(make_transactions(64, prefix="many"))
        assert one == many <= 4 * n
        assert all("one-0" in replica.mempool and "many-63" in replica.mempool
                   for replica in deployment.replicas.values())

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            PoissonOpenLoop(rate=0.0, duration=10.0)
        with pytest.raises(ValueError):
            PoissonOpenLoop(rate=1.0, duration=0.0)

    def test_burst_validation(self):
        with pytest.raises(ValueError, match="no bursts before"):
            Burst([(20.0, 4)], duration=10.0)
        with pytest.raises(ValueError, match="non-negative"):
            Burst([(-1.0, 4)], duration=10.0)
        with pytest.raises(ValueError, match="at least 1"):
            Burst([(1.0, 0)], duration=10.0)

    def test_closed_loop_validation(self):
        with pytest.raises(ValueError):
            ClosedLoop(outstanding=0, duration=10.0)
