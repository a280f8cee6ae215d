"""Tests for the runner, config validation, checkers and report tools."""

import pytest

from repro.agents.player import Player, Role, honest_player, rational_player
from repro.agents.strategies import EquivocateStrategy, HonestStrategy
from repro.analysis.accountability import check_accountability
from repro.analysis.complexity import measure_complexity
from repro.analysis.report import render_table
from repro.analysis.robustness import check_robustness
from repro.core.replica import prft_factory
from repro.experiments import get_scenario
from repro.gametheory.empirical import empirical_utility
from repro.gametheory.payoff import PlayerType
from repro.ledger.transaction import Transaction
from repro.protocols.base import ProtocolConfig
from repro.protocols.runner import (
    NetworkSpec,
    RunSpec,
    WorkloadSpec,
    make_transactions,
    run,
)

from tests.conftest import roster, run_prft


class TestProtocolConfig:
    def test_prft_preset(self):
        config = ProtocolConfig.for_prft(n=9)
        assert config.t0 == 2  # ceil(9/4) - 1
        assert config.quorum_size == 7

    def test_bft_preset(self):
        config = ProtocolConfig.for_bft(n=10)
        assert config.t0 == 3  # ceil(10/3) - 1
        assert config.quorum_size == 7

    def test_small_n_preset_floor(self):
        assert ProtocolConfig.for_prft(n=3).t0 == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(n=0, t0=0)
        with pytest.raises(ValueError):
            ProtocolConfig(n=4, t0=4)
        with pytest.raises(ValueError):
            ProtocolConfig(n=4, t0=1, quorum=5)
        with pytest.raises(ValueError):
            ProtocolConfig(n=4, t0=1, timeout=0)
        with pytest.raises(ValueError):
            ProtocolConfig(n=4, t0=1, max_rounds=0)

    def test_quorum_override(self):
        assert ProtocolConfig(n=9, t0=2, quorum=6).quorum_size == 6


class TestPlayers:
    def test_honest_player_cannot_deviate(self):
        with pytest.raises(ValueError):
            Player(player_id=0, role=Role.HONEST, strategy=EquivocateStrategy())
        with pytest.raises(ValueError):
            Player(player_id=0, role=Role.HONEST, theta=PlayerType.FORK_SEEKING)

    def test_role_flags(self):
        assert honest_player(0).is_honest
        player = rational_player(1, PlayerType.FORK_SEEKING)
        assert player.is_rational and not player.is_byzantine


class TestRunner:
    def test_mismatched_ids_rejected(self):
        config = ProtocolConfig.for_prft(n=3)
        players = [honest_player(i) for i in (0, 1, 5)]
        with pytest.raises(ValueError):
            run(RunSpec(factory=prft_factory, players=tuple(players), config=config))

    def test_make_transactions(self):
        txs = make_transactions(3, prefix="p")
        assert [t.tx_id for t in txs] == ["p-0", "p-1", "p-2"]

    def test_explicit_transactions_used(self):
        txs = [Transaction("only-tx")]
        result = run_prft(roster(4), max_rounds=1)
        assert result.submitted_tx_ids  # default workload generated

        config = ProtocolConfig.for_prft(n=4, max_rounds=1)
        from repro.net.delays import FixedDelay

        explicit = run(RunSpec(
            factory=prft_factory, players=tuple(roster(4)), config=config,
            network=NetworkSpec(delay_model=FixedDelay(1.0)),
            workload=WorkloadSpec(transactions=tuple(txs)),
        ))
        assert explicit.submitted_tx_ids == ["only-tx"]
        chain = next(iter(explicit.honest_chains().values()))
        assert chain.contains_transaction("only-tx", final_only=True)

    def test_role_views(self):
        players = roster(5, rational_ids=[1], byzantine_ids=[2])
        result = run_prft(players, max_rounds=1)
        assert result.honest_ids == [0, 3, 4]
        assert result.rational_ids == [1]
        assert result.byzantine_ids == [2]

    def test_empirical_utility_includes_penalty(self):
        players = roster(9, rational_ids=[5])
        players[5].strategy = EquivocateStrategy(colluders={5})
        result = run_prft(players, max_rounds=2)
        utility = empirical_utility(result, 5, PlayerType.FORK_SEEKING)
        assert utility == pytest.approx(-result.config.deposit)


class TestRobustnessChecker:
    def test_liveness_slack(self):
        result = run_prft(roster(4), max_rounds=2)
        report = check_robustness(result, liveness_slack=0)
        assert report.eventual_liveness

    def test_strongly_robust_none_without_censor_set(self):
        result = run_prft(roster(4), max_rounds=1)
        report = check_robustness(result)
        assert report.censorship_resistance is None
        assert report.strongly_robust is None


class TestAccountabilityChecker:
    def test_clean_run_sound(self):
        result = run_prft(roster(5), max_rounds=2)
        report = check_accountability(result)
        assert report.sound
        assert report.burned == set()
        assert report.ground_truth_deviators == set()

    def test_deviator_detected_and_attributed(self):
        players = roster(9, rational_ids=[5])
        players[5].strategy = EquivocateStrategy(colluders={5})
        result = run_prft(players, max_rounds=2)
        report = check_accountability(result)
        assert report.sound
        assert report.burned == {5}
        assert report.provably_guilty == {5}
        assert report.ground_truth_deviators == {5}


ONE_ROUND = get_scenario("honest").with_params(rounds=1)


class TestComplexityMeasurement:
    def test_prft_growth_superlinear(self):
        measurement = measure_complexity(ONE_ROUND, sizes=[4, 8, 12])
        assert measurement.message_exponent > 1.5
        assert measurement.size_exponent > measurement.message_exponent

    def test_rows_align(self):
        measurement = measure_complexity(ONE_ROUND, sizes=[4, 8])
        assert len(measurement.sizes) == len(measurement.messages_per_round) == 2


class TestRenderTable:
    def test_alignment_and_content(self):
        table = render_table(
            ["protocol", "msgs"],
            [["pbft", 100], ["hotstuff", 12.5]],
            title="demo",
        )
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "protocol" in lines[1]
        assert "pbft" in table and "12.5" in table

    def test_bool_rendering(self):
        table = render_table(["x"], [[True], [False]])
        assert "yes" in table and "no" in table

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])
