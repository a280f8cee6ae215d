"""Differential conformance for pipelined, batched block production.

The ProductionSpec axes must be *pure scheduling* changes: whatever the
pipeline depth or per-block transaction cap, honest replicas finalise
the same transactions in agreement, and attacks are punished with the
same burn sets.  Depth 1 with every knob at its default must replay the
legacy sequential loop byte-identically (the golden-record suites in
test_workloads.py and benchmarks/ enforce the byte-level half; this
file enforces the semantic half for the non-default points).
"""

import warnings

import pytest

from repro.agents.player import honest_player
from repro.core.replica import prft_factory
from repro.experiments import Scenario
from repro.protocols.base import ProtocolConfig
from repro.protocols.hotstuff import hotstuff_factory
from repro.protocols.pbft import pbft_factory
from repro.protocols.polygraph import polygraph_factory
from repro.protocols.runner import (
    ProductionSpec,
    RunSpec,
    WorkloadSpec,
    run,
)
from repro.protocols.trap import trap_factory

PROTOCOLS = {
    "prft": prft_factory,
    "pbft": pbft_factory,
    "polygraph": polygraph_factory,
    "trap": trap_factory,
    "hotstuff": hotstuff_factory,
}


def players_of(n):
    return tuple(honest_player(i) for i in range(n))


def final_digests(result, player_id=0):
    return [b.digest for b in result.replicas[player_id].chain.final_blocks()]


def final_tx_ids(result, player_id=0):
    return [
        tx.tx_id
        for block in result.replicas[player_id].chain.final_blocks()
        for tx in block.transactions
    ]


# ----------------------------------------------------------------------
# The ProductionSpec value itself
# ----------------------------------------------------------------------
class TestProductionSpec:
    def test_defaults_are_inactive(self):
        assert not ProductionSpec().active
        assert ProductionSpec(pipeline_depth=2).active
        assert ProductionSpec(max_block_txs=16).active
        assert ProductionSpec(coalesce_window=0.5).active

    def test_validation(self):
        with pytest.raises(ValueError):
            ProductionSpec(pipeline_depth=0)
        with pytest.raises(ValueError):
            ProductionSpec(max_block_txs=0)
        with pytest.raises(ValueError):
            ProductionSpec(coalesce_window=-1.0)

    def test_block_tx_limit_defers_to_config(self):
        config = ProtocolConfig.for_prft(n=5, block_size=4)
        assert ProductionSpec().block_tx_limit(config) == 4
        assert ProductionSpec(max_block_txs=64).block_tx_limit(config) == 64

    def test_replace_revalidates(self):
        spec = ProductionSpec(pipeline_depth=2)
        assert spec.replace(pipeline_depth=4).pipeline_depth == 4
        assert spec.pipeline_depth == 2  # frozen original untouched
        with pytest.raises(ValueError):
            spec.replace(pipeline_depth=0)


class TestDeriveHelpers:
    def test_derive_folds_dicts_into_sub_specs(self):
        config = ProtocolConfig.for_prft(n=5, max_rounds=2)
        spec = RunSpec(factory=prft_factory, players=players_of(5), config=config)
        derived = spec.derive(
            seed="derived/1",
            network={"loss_rate": 0.05},
            production={"pipeline_depth": 3, "max_block_txs": 32},
        )
        assert derived.seed == "derived/1"
        assert derived.network.loss_rate == 0.05
        assert derived.production.pipeline_depth == 3
        assert derived.production.max_block_txs == 32
        # untouched sub-specs carried over wholesale
        assert derived.crypto is spec.crypto
        assert spec.production.pipeline_depth == 1

    def test_derive_accepts_whole_subspec_values(self):
        config = ProtocolConfig.for_prft(n=5, max_rounds=2)
        spec = RunSpec(factory=prft_factory, players=players_of(5), config=config)
        production = ProductionSpec(pipeline_depth=2)
        assert spec.derive(production=production).production is production

    def test_derive_revalidates(self):
        config = ProtocolConfig.for_prft(n=5, max_rounds=2)
        spec = RunSpec(factory=prft_factory, players=players_of(5), config=config)
        with pytest.raises(ValueError):
            spec.derive(production={"pipeline_depth": 0})


# ----------------------------------------------------------------------
class TestRunSpecPath:
    def test_runspec_path_does_not_warn(self):
        config = ProtocolConfig.for_prft(n=5, max_rounds=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run(RunSpec(factory=prft_factory, players=players_of(5), config=config))


# ----------------------------------------------------------------------
# Differential: pipelining/batching on vs off
# ----------------------------------------------------------------------
class TestPipeliningDifferential:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    @pytest.mark.parametrize("depth", [2, 4])
    def test_same_ledger_at_any_depth(self, protocol, depth):
        config = ProtocolConfig.for_bft(n=4, max_rounds=8)
        base = RunSpec(
            factory=PROTOCOLS[protocol], players=players_of(4), config=config
        )
        sequential = run(base)
        pipelined = run(base.derive(production={"pipeline_depth": depth}))
        assert final_tx_ids(sequential) == final_tx_ids(pipelined)
        assert sequential.penalised_players() == pipelined.penalised_players()
        # every honest replica lands the identical pipelined chain
        chains = {
            tuple(final_digests(pipelined, pid)) for pid in pipelined.honest_ids
        }
        assert len(chains) == 1

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_batching_drains_the_saturated_backlog(self, protocol):
        """At an arrival rate past the sequential knee, the plain run
        leaves a backlog; batched production commits a superset (FIFO
        drains are prefix-monotone) and clears what the plain run
        could not."""
        scenario = Scenario(
            name="pipe-batch", protocol=protocol, n=4, workload="poisson",
            arrival_rate=1.5, duration=60.0, timeout=10.0, max_time=300.0,
            tolerance="bft",
        )
        plain = scenario.run(seed=3)
        batched = scenario.with_params(
            pipeline_depth=2, max_block_txs=32
        ).run(seed=3)
        committed_plain = set(final_tx_ids(plain))
        committed_batched = set(final_tx_ids(batched))
        assert committed_plain <= committed_batched
        assert len(committed_batched) > len(committed_plain)
        assert batched.throughput.final_backlog < plain.throughput.final_backlog

    def test_attack_burn_sets_survive_pipelining(self):
        """pRFT's accountability is production-schedule independent:
        the fork collusion burns the same deviators at depth 2."""
        scenario = Scenario(
            name="pipe-fork", n=9, rounds=4, rational=2, byzantine=1,
            attack="fork",
        )
        sequential = scenario.run(seed=0)
        pipelined = scenario.with_params(pipeline_depth=2).run(seed=0)
        assert sequential.penalised_players() == pipelined.penalised_players()
        assert (
            sequential.system_state().name == pipelined.system_state().name
        )


# ----------------------------------------------------------------------
# Workload interactions
# ----------------------------------------------------------------------
class TestWorkloadInteractions:
    def test_closed_loop_topup_with_multi_tx_blocks(self):
        """A block committing k window transactions must trigger k
        replacements: the window turns over fully even when one block
        absorbs most of it."""
        scenario = Scenario(
            name="pipe-closed", n=4, workload="closed", outstanding=8,
            duration=80.0, timeout=10.0, max_time=300.0, tolerance="bft",
            pipeline_depth=2, max_block_txs=8,
        )
        result = scenario.run(seed=1)
        tp = result.throughput
        assert tp.peak_backlog <= 8
        # the window turned over many times (not just the initial batch)
        assert tp.committed > 8
        # closed loop: in-flight never exceeds the window
        assert tp.submitted - tp.committed <= 8

    def test_coalescing_batches_arrivals_but_keeps_transactions(self):
        scenario = Scenario(
            name="pipe-coalesce", n=4, workload="poisson", arrival_rate=2.0,
            duration=60.0, timeout=10.0, max_time=300.0, tolerance="bft",
        )
        plain = scenario.run(seed=2)
        coalesced = scenario.with_params(
            coalesce_window=1.0, max_block_txs=16
        ).run(seed=2)
        # identical arrival draws -> identical transaction population
        assert set(plain.submitted_tx_ids) == set(coalesced.submitted_tx_ids)
        # the coalesced+batched run clears (nearly) everything; only a
        # tail arriving inside the final window can miss the last slot
        assert len(final_tx_ids(coalesced)) >= len(coalesced.submitted_tx_ids) - 16
        assert len(final_tx_ids(coalesced)) > len(final_tx_ids(plain))

    def test_crash_recovery_converges_at_depth_two(self):
        """A replica crashing mid-pipeline recovers and catches back up
        to the committee head via the batch catch-up paths."""
        scenario = Scenario(
            name="pipe-crash", n=9, rounds=3, crash_spec=((1, 0.5, 60.0),),
            timeout=10.0, max_time=400.0, pipeline_depth=2,
            check_invariants=True,
        )
        result = scenario.run(seed=0)
        assert result.oracle is not None and result.oracle.ok
        heights = [
            len(result.replicas[pid].chain.final_blocks())
            for pid in result.honest_ids
        ]
        assert max(heights) >= 1
        # every honest replica (including the recovered one) is within
        # the pipeline window of the head, on the same prefix
        digests = [final_digests(result, pid) for pid in result.honest_ids]
        longest = max(digests, key=len)
        assert all(longest[: len(d)] == d for d in digests)


# ----------------------------------------------------------------------
# Scenario / CLI surface
# ----------------------------------------------------------------------
class TestScenarioSurface:
    def test_axes_validate(self):
        with pytest.raises(ValueError):
            Scenario(name="bad", pipeline_depth=0)
        with pytest.raises(ValueError):
            Scenario(name="bad", max_block_txs=0)
        with pytest.raises(ValueError):
            Scenario(name="bad", coalesce_window=-0.5)

    def test_to_dict_omits_defaults(self):
        assert "pipeline_depth" not in Scenario(name="plain").to_dict()
        data = Scenario(name="deep", pipeline_depth=4).to_dict()
        assert data["pipeline_depth"] == 4
        rebuilt = Scenario.from_dict(data)
        assert rebuilt.pipeline_depth == 4

    def test_axes_are_sweepable(self):
        from repro.experiments import expand_grid

        jobs = expand_grid(
            Scenario(name="sweep-pipe", n=4, rounds=2, tolerance="bft"),
            grid={"pipeline_depth": [1, 2], "max_block_txs": [None, 16]},
            seeds=1,
        )
        assert len(jobs) == 4
        depths = {job.scenario.pipeline_depth for job in jobs}
        assert depths == {1, 2}

    def test_cli_flags_thread_through(self, capsys):
        from repro.cli import main

        code = main([
            "run", "honest", "-n", "4", "--rounds", "2",
            "--pipeline-depth", "2", "--block-txs", "16", "--check",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro scenario result" in out

    def test_cli_rejects_bad_depth(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "honest", "--pipeline-depth", "0"])
