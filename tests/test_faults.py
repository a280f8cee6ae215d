"""Tests for the link-layer fault pipeline and the replica lifecycle.

Covers repro.net.faults (the five steps of the pipeline, determinism),
repro.protocols.lifecycle (CrashSchedule, crash/recovery state
machine), the Network's drop/duplicate accounting, and the
adversarial-network scenario axes end to end.
"""

import json

import pytest

from repro.experiments import Scenario, get_scenario, run_sweep, scenario_catalog
from repro.experiments.results import RunRecord, records_to_json
from repro.net.delays import FixedDelay
from repro.net.envelope import Envelope
from repro.net.faults import LinkPipeline, stage_seed
from repro.net.network import Network
from repro.net.partition import Partition, PartitionSchedule
from repro.protocols.lifecycle import CrashSchedule, CrashWindow, ReplicaStatus
from repro.sim.engine import SimulationEngine


# ----------------------------------------------------------------------
# Stages and pipeline
# ----------------------------------------------------------------------
class TestStages:
    def test_stage_seed_stable_and_distinct(self):
        assert stage_seed("run/0", "loss") == stage_seed("run/0", "loss")
        assert stage_seed("run/0", "loss") != stage_seed("run/0", "duplicate")
        assert stage_seed("run/0", "loss") != stage_seed("run/1", "loss")

    def test_delay_and_partition_reproduce_legacy_formula(self):
        """delay → partition must equal max(now + delay, heal_time)."""
        schedule = PartitionSchedule()
        schedule.add(Partition.of({0}, {1}), 0.0, 50.0)
        pipeline = LinkPipeline(delay_model=FixedDelay(2.0), partitions=schedule)
        assert pipeline.transmit(0, 1, 5.0) == [50.0]   # deferred to heal
        assert pipeline.transmit(0, 2, 5.0) == [7.0]    # unpartitioned
        assert not pipeline.fault_injecting

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            LinkPipeline(loss_rate=-0.1)
        with pytest.raises(ValueError):
            LinkPipeline(loss_rate=1.0)
        with pytest.raises(ValueError):
            LinkPipeline(duplicate_rate=1.5)
        with pytest.raises(ValueError):
            LinkPipeline(reorder_jitter=-1.0)

    def test_loss_deterministic_per_seed(self):
        a = LinkPipeline(delay_model=FixedDelay(1.0), loss_rate=0.5, seed="run/7")
        b = LinkPipeline(delay_model=FixedDelay(1.0), loss_rate=0.5, seed="run/7")
        pattern_a = [a.transmit(0, 1, 0.0) for _ in range(50)]
        pattern_b = [b.transmit(0, 1, 0.0) for _ in range(50)]
        assert pattern_a == pattern_b
        assert any(times == [] for times in pattern_a)      # some dropped
        assert any(times == [1.0] for times in pattern_a)   # some kept

    def test_zero_loss_never_drops(self):
        pipeline = LinkPipeline(delay_model=FixedDelay(1.0), loss_rate=0.0)
        for _ in range(20):
            assert pipeline.transmit(0, 1, 0.0) == [1.0]

    def test_duplicate_lands_half_a_unit_later(self):
        pipeline = LinkPipeline(delay_model=FixedDelay(3.0), duplicate_rate=1.0)
        assert pipeline.transmit(0, 1, 0.0) == [3.0, 3.5]

    def test_jitter_bounds(self):
        pipeline = LinkPipeline(delay_model=FixedDelay(5.0), reorder_jitter=2.0, seed="run/3")
        for _ in range(50):
            (t,) = pipeline.transmit(0, 1, 0.0)
            assert 5.0 <= t <= 7.0

    def test_a_lost_envelope_is_not_duplicated(self):
        pipeline = LinkPipeline(
            delay_model=FixedDelay(1.0), loss_rate=0.999999, duplicate_rate=1.0, seed="run/1"
        )
        results = [pipeline.transmit(0, 1, 0.0) for _ in range(20)]
        assert all(times == [] for times in results)

    def test_each_fault_draws_from_its_own_stream(self):
        """Turning duplication and jitter on never changes *which*
        envelopes are lost: a zero knob draws nothing, and each step
        has its own seeded stream."""
        lossy = LinkPipeline(loss_rate=0.5, seed="run/0")
        noisy = LinkPipeline(
            loss_rate=0.5, duplicate_rate=0.5, reorder_jitter=1.0, seed="run/0"
        )
        lost = [not lossy.transmit(0, 1, 0.0) for _ in range(50)]
        assert lost == [not noisy.transmit(0, 1, 0.0) for _ in range(50)]

    def test_fault_injecting_flag(self):
        assert LinkPipeline(loss_rate=0.1).fault_injecting
        assert LinkPipeline(duplicate_rate=0.1).fault_injecting
        assert LinkPipeline(reorder_jitter=0.1).fault_injecting
        assert not LinkPipeline().fault_injecting


# ----------------------------------------------------------------------
# Network integration
# ----------------------------------------------------------------------
def _lossy_network(**build_kwargs):
    engine = SimulationEngine()
    network = Network(engine, pipeline=LinkPipeline(**build_kwargs))
    inboxes = {i: [] for i in range(3)}
    for i in range(3):
        network.register(i, lambda env, i=i: inboxes[i].append(env))
    return engine, network, inboxes


class TestNetworkFaults:
    def test_dropped_send_counted_and_traced(self):
        engine, network, inboxes = _lossy_network(
            delay_model=FixedDelay(1.0), loss_rate=0.999999, seed="drop-test"
        )
        for _ in range(5):
            network.send(Envelope(0, 1, "x", "msg", 10))
        engine.run()
        assert inboxes[1] == []
        assert network.metrics.dropped_by_reason() == {"loss": 5}
        assert network.metrics.total_messages == 5  # sends still counted
        assert len(network.trace.events("drop")) == 5
        assert network.unreliable

    def test_duplicates_delivered_and_counted(self):
        engine, network, inboxes = _lossy_network(
            delay_model=FixedDelay(1.0), duplicate_rate=1.0
        )
        network.send(Envelope(0, 1, "x", "msg", 10))
        engine.run()
        assert len(inboxes[1]) == 2
        assert network.metrics.total_duplicates == 1
        assert network.metrics.total_messages == 1  # protocol-level count

    def test_reliable_network_unaffected(self):
        engine, network, inboxes = _lossy_network(delay_model=FixedDelay(1.0))
        network.send(Envelope(0, 1, "x", "msg", 10))
        engine.run()
        assert len(inboxes[1]) == 1
        assert network.metrics.total_dropped == 0
        assert not network.unreliable

    def test_mark_unreliable(self):
        engine, network, _ = _lossy_network(delay_model=FixedDelay(1.0))
        assert not network.unreliable
        network.mark_unreliable()
        assert network.unreliable


# ----------------------------------------------------------------------
# CrashSchedule
# ----------------------------------------------------------------------
class TestCrashSchedule:
    def test_from_spec_accepts_two_and_three_tuples(self):
        schedule = CrashSchedule.from_spec([(1, 5.0), (2, 3.0, 9.0)])
        assert schedule.replicas() == (1, 2)
        assert schedule.status_at(1, 10.0) is ReplicaStatus.CRASHED   # permanent
        assert schedule.status_at(2, 5.0) is ReplicaStatus.CRASHED
        assert schedule.status_at(2, 9.0) is ReplicaStatus.UP
        assert schedule.status_at(3, 0.0) is ReplicaStatus.UP

    def test_bad_windows_rejected(self):
        with pytest.raises(ValueError):
            CrashWindow(replica=0, crash_time=-1.0)
        with pytest.raises(ValueError):
            CrashWindow(replica=0, crash_time=5.0, recover_time=5.0)
        with pytest.raises(ValueError):
            CrashSchedule.from_spec([(0, 1.0, 2.0, 3.0)])

    def test_overlapping_windows_rejected(self):
        schedule = CrashSchedule()
        schedule.add(0, 1.0, 10.0)
        with pytest.raises(ValueError):
            schedule.add(0, 5.0, 15.0)
        with pytest.raises(ValueError):
            schedule.add(0, 5.0)  # permanent crash starting mid-outage
        # different replica, and later windows for the same one, are fine
        schedule.add(1, 5.0, 15.0)
        schedule.add(0, 12.0)

    def test_sequential_windows_same_replica_allowed(self):
        schedule = CrashSchedule()
        schedule.add(0, 1.0, 10.0)
        schedule.add(0, 10.0, 20.0)
        assert len(schedule.windows) == 2

    def test_window_before_permanent_crash_allowed(self):
        schedule = CrashSchedule()
        schedule.add(0, 50.0)        # never recovers
        schedule.add(0, 10.0, 20.0)  # earlier outage is legal
        with pytest.raises(ValueError):
            schedule.add(0, 60.0)    # inside the permanent outage

    def test_install_rejects_unknown_replica(self):
        schedule = CrashSchedule.from_spec([(7, 1.0)])
        with pytest.raises(ValueError):
            schedule.install(SimulationEngine(), {})


# ----------------------------------------------------------------------
# Replica lifecycle end to end
# ----------------------------------------------------------------------
class TestReplicaLifecycle:
    def test_crashed_replica_drops_inbound_and_timers(self):
        from repro.agents.player import honest_player
        from repro.core.replica import prft_factory
        from repro.protocols.base import ProtocolConfig
        from repro.protocols.runner import build_context

        config = ProtocolConfig.for_prft(n=4, max_rounds=2, timeout=10.0)
        ctx = build_context(config, range(4))
        replicas = {
            i: prft_factory(honest_player(i), config, ctx) for i in range(4)
        }
        for replica in replicas.values():
            replica.start()
        replicas[3].crash()
        assert replicas[3].status is ReplicaStatus.CRASHED
        assert not ctx.timers.is_armed(3, "round-0")
        before = ctx.network.metrics.total_dropped
        ctx.engine.run(until=5.0)
        dropped = ctx.network.metrics.dropped_by_reason()
        assert dropped.get("crashed", 0) > before
        # crash is idempotent; recover flips back to UP
        replicas[3].crash()
        replicas[3].recover()
        assert replicas[3].status is ReplicaStatus.UP
        # a second recover without a crash is a no-op
        replicas[3].recover()
        assert replicas[3].status is ReplicaStatus.UP

    def test_halted_recipient_counted_as_dropped(self):
        scenario = get_scenario("honest").with_params(n=4, rounds=1)
        result = scenario.run(seed=0)
        # late finals arriving after replicas halt are accounted
        assert result.metrics.dropped_by_reason().get("halted", 0) > 0

    def test_crash_leader_scenario_view_changes_and_commits(self):
        result = get_scenario("crash-leader").run(seed=0)
        kinds = [event.kind for event in result.trace.events()]
        assert "crash" in kinds
        assert "recover" in kinds
        assert "view_change_committed" in kinds
        assert result.final_block_count() >= 1
        from repro.analysis.robustness import check_robustness

        assert check_robustness(result).robust

    def test_crash_leader_catch_up_across_protocols(self):
        """A replica recovering after its peers have halted must still
        catch up — halted replicas keep serving decided state in every
        protocol, not just pRFT."""
        for protocol in ("prft", "pbft", "polygraph", "hotstuff"):
            scenario = get_scenario("crash-leader").with_params(protocol=protocol)
            result = scenario.run(seed=0)
            heights = {
                pid: len(replica.chain.final_blocks())
                for pid, replica in result.replicas.items()
            }
            assert max(heights.values()) >= 1, protocol
            assert max(heights.values()) - min(heights.values()) <= 1, (
                f"{protocol}: recovered replica left behind at {heights}"
            )

    def test_churn_recovered_replicas_catch_up(self):
        result = get_scenario("churn-liveness").run(seed=0)
        kinds = [event.kind for event in result.trace.events()]
        assert kinds.count("crash") == 2 and kinds.count("recover") == 2
        heights = {
            pid: len(replica.chain.final_blocks())
            for pid, replica in result.replicas.items()
        }
        assert max(heights.values()) - min(heights.values()) <= 1
        # Rounds 0-2 commit (replica 3 adopts them retroactively after
        # recovery); round 3 aborts by view change — its leader is the
        # recovering laggard, which deliberately does not re-propose.
        assert result.final_block_count() == 3


# ----------------------------------------------------------------------
# Scenario axes and determinism
# ----------------------------------------------------------------------
class TestScenarioAxes:
    def test_new_catalog_entries_registered(self):
        catalog = scenario_catalog()
        for name in (
            "lossy-honest",
            "lossy-prft-fork",
            "crash-leader",
            "churn-liveness",
            "duplicate-storm",
        ):
            assert name in catalog, name

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(name="x", loss_rate=1.0)
        with pytest.raises(ValueError):
            Scenario(name="x", loss_rate=-0.1)
        with pytest.raises(ValueError):
            Scenario(name="x", duplicate_rate=2.0)
        with pytest.raises(ValueError):
            Scenario(name="x", reorder_jitter=-1.0)
        with pytest.raises(ValueError):
            Scenario(name="x", n=4, crash_spec=((9, 1.0),))  # unknown replica
        with pytest.raises(ValueError):
            Scenario(name="x", crash_spec=((0, 5.0, 2.0),))  # recover < crash

    def test_crash_spec_normalised_from_lists(self):
        scenario = Scenario(name="x", n=4, crash_spec=[[1, 2.0, 5.0]])
        assert scenario.crash_spec == ((1, 2.0, 5.0),)

    def test_fault_axes_sweepable_and_deterministic(self):
        base = get_scenario("lossy-honest").with_params(n=5, rounds=1, max_time=200.0)
        grid = {"loss_rate": [0.0, 0.15]}
        serial = run_sweep(base, grid=grid, seeds=2, jobs=1)
        parallel = run_sweep(base, grid=grid, seeds=2, jobs=2)
        assert records_to_json(serial.records, meta=serial.meta()) == records_to_json(
            parallel.records, meta=parallel.meta()
        )

    def test_empty_fault_pipeline_matches_golden_pre_refactor_records(self):
        """Fast subset of the golden byte-identity gate.

        The golden file was captured from the simulator *before* the
        link-layer pipeline existed, so this detects regressions in the
        delay/partition stage arithmetic itself — an in-run self-
        comparison could not.  The full 13-scenario sweep is
        ``test_off_path_all_golden_records_byte_identical`` in
        tests/test_aggregate_differential.py.
        """
        import pathlib

        golden_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "golden_records.json"
        )
        golden = json.loads(golden_path.read_text())
        for name in ("honest", "fork", "gst-sweep", "partition-fork"):
            scenario = get_scenario(name)
            record = RunRecord.from_result(scenario, seed=0, result=scenario.run(seed=0))
            assert json.dumps(record.canonical(), sort_keys=True) == json.dumps(
                golden[name], sort_keys=True
            ), f"{name} diverged from the pre-refactor golden record"

    def test_lossy_honest_agreement_across_protocols(self):
        from repro.analysis.robustness import check_robustness

        for protocol in ("prft", "pbft", "hotstuff"):
            scenario = get_scenario("lossy-honest").with_params(protocol=protocol)
            for seed in range(3):
                result = scenario.run(seed=seed)
                verdict = check_robustness(result)
                assert verdict.agreement, (protocol, seed)
                assert not result.penalised_players(), (protocol, seed)
                assert result.final_block_count() >= 1, (protocol, seed)

    def test_lossy_fork_still_burned(self):
        result = get_scenario("lossy-prft-fork").run(seed=0)
        assert result.penalised_players() == {0, 1, 2}

    def test_duplicate_storm_idempotent(self):
        from repro.analysis.robustness import check_robustness

        result = get_scenario("duplicate-storm").run(seed=0)
        assert result.metrics.total_duplicates > 0
        assert check_robustness(result).robust

    def test_cli_run_accepts_fault_flags(self, capsys):
        from repro.cli import main

        assert main(
            [
                "run", "honest", "-n", "5", "--rounds", "1",
                "--loss-rate", "0.1", "--crash", "2@1.0:30",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "dropped" in out

    def test_cli_rejects_bad_crash_spec(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "honest", "--crash", "nonsense"])