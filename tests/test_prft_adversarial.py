"""pRFT under attack: Lemma 4 (DSIC), Theorem 5 (robustness), the
impossibility constructions (Theorems 1-2), and boundary violations."""

import pytest

from repro.agents.strategies import AbstainStrategy, EquivocateStrategy
from repro.analysis.accountability import check_accountability
from repro.analysis.robustness import check_robustness
from repro.gametheory.empirical import empirical_utility
from repro.gametheory.payoff import PlayerType
from repro.gametheory.states import SystemState
from repro.net.delays import FixedDelay
from repro.net.partition import Partition, PartitionSchedule
from repro.protocols.base import ProtocolConfig
from repro.protocols.runner import NetworkSpec, RunSpec, run
from repro.core.replica import prft_factory

from tests.conftest import (
    censorship_collusion,
    fork_collusion,
    liveness_collusion,
    roster,
    run_prft,
)


class TestByzantineTolerance:
    """t ≤ t0 byzantine players must not break agreement or liveness."""

    def test_crash_faults_tolerated(self):
        players = roster(9, byzantine_ids=[8])
        players[8].strategy = AbstainStrategy()
        result = run_prft(players, max_rounds=4, timeout=15.0)
        report = check_robustness(result)
        assert report.agreement
        # the crashed player's leader round view-changes; others finalize
        assert result.final_block_count() >= 3

    def test_equivocating_byzantine_leader_never_forks(self):
        players = roster(9, byzantine_ids=[0])
        players[0].strategy = EquivocateStrategy(colluders={0})
        result = run_prft(players, max_rounds=3, timeout=15.0)
        assert check_robustness(result).agreement

    def test_equivocating_byzantine_gets_burned(self):
        players = roster(9, byzantine_ids=[0])
        players[0].strategy = EquivocateStrategy(colluders={0})
        result = run_prft(players, max_rounds=3, timeout=15.0)
        assert 0 in result.penalised_players()

    def test_accountability_never_frames_honest(self):
        players = roster(9, byzantine_ids=[0])
        players[0].strategy = EquivocateStrategy(colluders={0})
        result = run_prft(players, max_rounds=3, timeout=15.0)
        report = check_accountability(result)
        assert report.sound
        assert report.no_honest_framed


class TestLemma4DSIC:
    """A lone rational fork-seeker: U(π_ds) < U(π0) = 0, via capture."""

    def test_deviator_burned_system_survives(self):
        players = roster(9, rational_ids=[5])
        players[5].strategy = EquivocateStrategy(colluders={5})
        result = run_prft(players, max_rounds=3)
        assert result.system_state() is SystemState.HONEST
        assert result.penalised_players() == {5}

    def test_deviation_utility_strictly_negative(self):
        players = roster(9, rational_ids=[5])
        players[5].strategy = EquivocateStrategy(colluders={5})
        result = run_prft(players, max_rounds=3)
        deviating = empirical_utility(result, 5, PlayerType.FORK_SEEKING)
        assert deviating < 0

    def test_honest_play_utility_zero(self):
        players = roster(9, rational_ids=[5])  # rational but honest strategy
        result = run_prft(players, max_rounds=3)
        honest = empirical_utility(result, 5, PlayerType.FORK_SEEKING)
        assert honest == 0.0
        assert result.penalised_players() == set()

    def test_dsic_ordering(self):
        """U(π0) > U(π_ds) for the same player in the same environment."""
        def utility(deviate: bool) -> float:
            players = roster(9, rational_ids=[5])
            if deviate:
                players[5].strategy = EquivocateStrategy(colluders={5})
            result = run_prft(players, max_rounds=3)
            return empirical_utility(result, 5, PlayerType.FORK_SEEKING)

        assert utility(deviate=False) > utility(deviate=True)


class TestTheorem5Robustness:
    """Full collusion k + t < n/2, t ≤ t0 < n/4: never a fork."""

    @pytest.mark.parametrize(
        "n,rational_ids,byzantine_ids",
        [
            (9, [0, 1], [2]),
            (9, [0, 1, 2], [3]),       # k+t = 4 < 4.5
            (13, [0, 1, 2, 3], [4, 5]),  # k+t = 6 < 6.5, t = 2 <= t0 = 3
        ],
    )
    def test_fork_collusion_never_forks(self, n, rational_ids, byzantine_ids):
        players = roster(n, rational_ids=rational_ids, byzantine_ids=byzantine_ids)
        fork_collusion(players)
        result = run_prft(players, max_rounds=4, timeout=15.0)
        report = check_robustness(result)
        assert report.agreement
        assert report.fork_heights == []

    def test_colluders_all_burned(self):
        players = roster(9, rational_ids=[0, 1], byzantine_ids=[2])
        fork_collusion(players)
        result = run_prft(players, max_rounds=4, timeout=15.0)
        assert result.penalised_players() == {0, 1, 2}

    def test_collusion_under_partition_cannot_double_finalize(self):
        """Claim 3 / Lemma 4's partition argument: with valid
        parameters at most one side can assemble a reveal quorum."""
        players = roster(9, rational_ids=[0, 1], byzantine_ids=[2])
        collusion = fork_collusion(players)
        partitions = PartitionSchedule()
        partitions.add(Partition.of(collusion.split_a, collusion.split_b), 0.0, 60.0)
        result = run_prft(
            players, max_rounds=2, timeout=100.0, partitions=partitions, max_time=200.0
        )
        assert check_robustness(result).agreement

    def test_fork_utility_nonpositive_for_colluders(self):
        players = roster(9, rational_ids=[0, 1], byzantine_ids=[2])
        fork_collusion(players)
        result = run_prft(players, max_rounds=4, timeout=15.0)
        for pid in (0, 1):
            assert empirical_utility(result, pid, PlayerType.FORK_SEEKING) <= 0


class TestBoundaryViolations:
    """Outside t0 < n/4 (or with a lowered quorum), forks become possible
    — the Table-1 boundary is tight."""

    def _forked_run(self, t0: int):
        n = 9
        players = roster(n, rational_ids=[0, 1], byzantine_ids=[2])
        collusion = fork_collusion(players)
        config = ProtocolConfig(n=n, t0=t0, max_rounds=1, timeout=50.0)
        partitions = PartitionSchedule()
        partitions.add(Partition.of(collusion.split_a, collusion.split_b), 0.0, 40.0)
        return run(RunSpec(
            factory=prft_factory,
            players=tuple(players),
            config=config,
            network=NetworkSpec(delay_model=FixedDelay(1.0), partitions=partitions),
            max_time=45.0,
        ))

    def test_fork_succeeds_with_violated_t0(self):
        result = self._forked_run(t0=3)  # t0 = 3 >= n/4, quorum drops to 6
        assert result.system_state() is SystemState.FORK
        assert not check_robustness(result).agreement

    def test_no_fork_with_valid_t0(self):
        result = self._forked_run(t0=2)  # paper setting: ceil(9/4) - 1
        assert result.system_state() is not SystemState.FORK

    def test_forked_colluders_still_burned_after_heal(self):
        """Even a successful fork is accountable: after the partition
        heals, Proof-of-Fraud is assembled and collateral burned."""
        result = self._forked_run(t0=3)
        assert result.penalised_players() == {0, 1, 2}


class TestTheorem1Liveness:
    """θ=3 coalition with n/3 ≤ k+t < n/2 playing π_abs: liveness dies,
    no penalty is possible — so deviation strictly pays."""

    def _liveness_run(self):
        n = 9  # coalition of 4: ceil(9/3)=3 <= 4 <= ceil(9/2)-1=4
        players = roster(
            n,
            rational_ids=[0, 1, 2],
            byzantine_ids=[3],
            theta=PlayerType.LIVENESS_ATTACKING,
        )
        liveness_collusion(players)
        return run_prft(players, max_rounds=3, timeout=10.0, max_time=300.0)

    def test_no_progress(self):
        result = self._liveness_run()
        assert result.system_state() is SystemState.NO_PROGRESS
        assert result.final_block_count() == 0

    def test_abstention_is_unaccountable(self):
        """π_abs is indistinguishable from crash: D(π_abs, σ) = 0."""
        result = self._liveness_run()
        assert result.penalised_players() == set()

    def test_attack_utility_positive_for_theta3(self):
        result = self._liveness_run()
        for pid in (0, 1, 2):
            assert empirical_utility(result, pid, PlayerType.LIVENESS_ATTACKING) > 0

    def test_same_attack_hurts_theta1(self):
        """Table 2: σ_NP pays −α to fork-seeking players — which is why
        pRFT's θ=1 assumption is essential."""
        result = self._liveness_run()
        assert empirical_utility(result, 0, PlayerType.FORK_SEEKING) < 0


class TestTheorem2Censorship:
    """θ=2 coalition playing π_pc: liveness survives, the targeted
    transaction never confirms, and nobody is penalised."""

    def _censorship_run(self):
        n = 9
        players = roster(
            n,
            rational_ids=[0, 1, 2],
            byzantine_ids=[3],
            theta=PlayerType.CENSORSHIP_SEEKING,
        )
        censorship_collusion(players, censored=["tx-0"])
        return run_prft(players, max_rounds=9, timeout=10.0, max_time=600.0)

    def test_progress_continues(self):
        result = self._censorship_run()
        assert result.final_block_count() >= 1

    def test_censored_transaction_never_confirms(self):
        result = self._censorship_run()
        assert result.system_state(censored_tx_ids=["tx-0"]) is SystemState.CENSORSHIP
        report = check_robustness(result, censored_tx_ids=["tx-0"])
        assert report.censorship_resistance is False
        assert report.strongly_robust is False

    def test_censorship_is_unaccountable(self):
        result = self._censorship_run()
        assert result.penalised_players() == set()

    def test_attack_utility_positive_for_theta2(self):
        result = self._censorship_run()
        for pid in (0, 1, 2):
            utility = empirical_utility(
                result, pid, PlayerType.CENSORSHIP_SEEKING, censored_tx_ids=["tx-0"]
            )
            assert utility > 0

    def test_other_transactions_do_confirm(self):
        result = self._censorship_run()
        chains = result.honest_chains()
        assert any(
            chain.contains_transaction("tx-1", final_only=True)
            for chain in chains.values()
        )
