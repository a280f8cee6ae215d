"""Tests for empirical (trace-derived) utilities — Equation 1 closed
against executed runs."""

import pytest

from repro.agents.strategies import AbstainStrategy, EquivocateStrategy
from repro.experiments.fuzz import generate_trial
from repro.gametheory.empirical import empirical_utility, per_round_utilities, round_states
from repro.gametheory.payoff import PlayerType
from repro.gametheory.states import SystemState

from tests.conftest import censorship_collusion, roster, run_prft


class TestRoundStates:
    def test_honest_rounds(self):
        result = run_prft(roster(5), max_rounds=3)
        assert round_states(result) == [SystemState.HONEST] * 3

    def test_view_changed_round_is_no_progress(self):
        players = roster(8, byzantine_ids=[0])
        players[0].strategy = AbstainStrategy()
        result = run_prft(players, max_rounds=3, timeout=10.0)
        assert round_states(result)[:2] == [SystemState.NO_PROGRESS, SystemState.HONEST]

    def test_censorship_rounds(self):
        players = roster(
            9, rational_ids=[0, 1, 2], byzantine_ids=[3],
            theta=PlayerType.CENSORSHIP_SEEKING,
        )
        censorship_collusion(players, censored=["tx-0"])
        result = run_prft(players, max_rounds=6, timeout=10.0, max_time=500.0)
        assert SystemState.CENSORSHIP in round_states(result, censored_tx_ids=["tx-0"])


class TestPerRoundUtilities:
    def test_honest_run_all_zero(self):
        result = run_prft(roster(5), max_rounds=3)
        stream = per_round_utilities(result, 0, PlayerType.FORK_SEEKING)
        assert stream == [0.0, 0.0, 0.0]

    def test_penalty_charged_in_burn_round(self):
        players = roster(9, rational_ids=[5])
        players[5].strategy = EquivocateStrategy(colluders={5})
        result = run_prft(players, max_rounds=3)
        stream = per_round_utilities(result, 5, PlayerType.FORK_SEEKING)
        assert stream[0] == -result.config.deposit  # caught in round 0
        assert all(u == 0.0 for u in stream[1:])

    def test_no_progress_round_negative_for_theta1(self):
        players = roster(8, byzantine_ids=[0])
        players[0].strategy = AbstainStrategy()
        result = run_prft(players, max_rounds=2, timeout=10.0)
        stream = per_round_utilities(result, 3, PlayerType.FORK_SEEKING)
        assert stream[0] == -result.config.alpha

    def test_discounting(self):
        players = roster(8, byzantine_ids=[0])
        players[0].strategy = AbstainStrategy()
        result = run_prft(players, max_rounds=2, timeout=10.0, discount=0.5)
        utility = empirical_utility(result, 3, PlayerType.FORK_SEEKING)
        stream = per_round_utilities(result, 3, PlayerType.FORK_SEEKING)
        assert utility == pytest.approx(stream[0] + 0.5 * stream[1])


class TestHorizon:
    def test_continuous_run_spans_every_opened_round(self):
        """A continuous run ignores ``max_rounds``: fuzz trial 107
        (HotStuff, Poisson, rounds=3) finalises round 4, so its stream
        spans rounds 0..4."""
        trial = generate_trial(0, 107, "wild")
        result = trial.scenario.run(seed=trial.seed)
        assert result.config.max_rounds == 3
        finalised = {
            event.detail["round"]
            for event in result.trace.events("final")
            if event.player in result.honest_ids
        }
        assert max(finalised) == 4
        (pid,) = result.rational_ids
        stream = per_round_utilities(result, pid, trial.scenario.theta)
        assert stream == [-1.0, -1.0, 0.0, 0.0, 0.0]
