"""Tests for states, the Table-2 payoff function, utilities and games."""

import pytest
from hypothesis import given, strategies as st

from repro.gametheory.normal_form import (
    NormalFormGame,
    example_focal_game,
    game_from_table,
)
from repro.gametheory.payoff import PlayerType, payoff, worst_type
from repro.gametheory.states import SystemState, classify_state
from repro.gametheory.utility import (
    discounted_utility,
    geometric_utility,
    round_utility,
)
from repro.ledger.block import Block
from repro.ledger.chain import Chain
from repro.ledger.transaction import Transaction


# ----------------------------------------------------------------------
# Table 2: payoff function f(σ, θ), verified cell by cell
# ----------------------------------------------------------------------
TABLE_2 = {
    (PlayerType.LIVENESS_ATTACKING, SystemState.NO_PROGRESS): +1,
    (PlayerType.LIVENESS_ATTACKING, SystemState.CENSORSHIP): +1,
    (PlayerType.LIVENESS_ATTACKING, SystemState.FORK): +1,
    (PlayerType.LIVENESS_ATTACKING, SystemState.HONEST): 0,
    (PlayerType.CENSORSHIP_SEEKING, SystemState.NO_PROGRESS): -1,
    (PlayerType.CENSORSHIP_SEEKING, SystemState.CENSORSHIP): +1,
    (PlayerType.CENSORSHIP_SEEKING, SystemState.FORK): +1,
    (PlayerType.CENSORSHIP_SEEKING, SystemState.HONEST): 0,
    (PlayerType.FORK_SEEKING, SystemState.NO_PROGRESS): -1,
    (PlayerType.FORK_SEEKING, SystemState.CENSORSHIP): -1,
    (PlayerType.FORK_SEEKING, SystemState.FORK): +1,
    (PlayerType.FORK_SEEKING, SystemState.HONEST): 0,
    (PlayerType.ALIGNED, SystemState.NO_PROGRESS): -1,
    (PlayerType.ALIGNED, SystemState.CENSORSHIP): -1,
    (PlayerType.ALIGNED, SystemState.FORK): -1,
    (PlayerType.ALIGNED, SystemState.HONEST): 0,
}


@pytest.mark.parametrize("key,expected", sorted(TABLE_2.items(), key=str))
def test_table2_cell(key, expected):
    theta, state = key
    assert payoff(state, theta, alpha=1.0) == expected


@given(st.floats(min_value=0.01, max_value=100))
def test_payoff_scales_with_alpha(alpha):
    assert payoff(SystemState.FORK, PlayerType.FORK_SEEKING, alpha) == alpha
    assert payoff(SystemState.NO_PROGRESS, PlayerType.FORK_SEEKING, alpha) == -alpha


def test_payoff_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        payoff(SystemState.FORK, PlayerType.FORK_SEEKING, alpha=0)


def test_worst_type():
    assert worst_type([]) is PlayerType.ALIGNED
    assert worst_type([PlayerType.FORK_SEEKING, PlayerType.CENSORSHIP_SEEKING]) is (
        PlayerType.CENSORSHIP_SEEKING
    )
    assert worst_type([PlayerType.ALIGNED]) is PlayerType.ALIGNED


# ----------------------------------------------------------------------
# State classifier
# ----------------------------------------------------------------------
def _chain_with(tx_ids, tag=""):
    chain = Chain()
    block = Block(
        round_number=0,
        proposer=0,
        parent_digest=chain.head().digest,
        transactions=tuple(Transaction(t) for t in tx_ids) + ((Transaction(f"pad{tag}"),) if tag else ()),
    )
    chain.append_tentative(block)
    chain.finalize(block.digest)
    return chain


class TestClassifier:
    def test_honest_execution(self):
        chains = {0: _chain_with(["a"]), 1: _chain_with(["a"])}
        assert classify_state(chains) is SystemState.HONEST

    def test_no_progress(self):
        assert classify_state({0: Chain(), 1: Chain()}) is SystemState.NO_PROGRESS

    def test_fork_dominates(self):
        chains = {0: _chain_with(["a"], tag="x"), 1: _chain_with(["a"], tag="y")}
        assert classify_state(chains) is SystemState.FORK

    def test_censorship(self):
        chains = {0: _chain_with(["a"]), 1: _chain_with(["a"])}
        assert classify_state(chains, censored_tx_ids=["h"]) is SystemState.CENSORSHIP

    def test_censored_tx_included_means_honest(self):
        chains = {0: _chain_with(["h"]), 1: _chain_with(["h"])}
        assert classify_state(chains, censored_tx_ids=["h"]) is SystemState.HONEST

    def test_no_progress_beats_censorship(self):
        assert (
            classify_state({0: Chain()}, censored_tx_ids=["h"]) is SystemState.NO_PROGRESS
        )

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            classify_state({})

    def test_tentative_only_progress_not_confirmed(self):
        chain = Chain()
        block = Block(0, 0, chain.head().digest, (Transaction("a"),))
        chain.append_tentative(block)
        assert classify_state({0: chain}) is SystemState.NO_PROGRESS
        assert classify_state({0: chain}, final_only=False) is SystemState.HONEST


# ----------------------------------------------------------------------
# Utilities (Equation 1)
# ----------------------------------------------------------------------
class TestUtility:
    def test_round_utility_penalty(self):
        assert round_utility(1.0, 10.0, penalised=True) == -9.0
        assert round_utility(1.0, 10.0, penalised=False) == 1.0

    def test_round_utility_negative_collateral_rejected(self):
        with pytest.raises(ValueError):
            round_utility(0.0, -1.0, True)

    def test_discounted_stream(self):
        assert discounted_utility([1, 1, 1], 0.5) == 1 + 0.5 + 0.25

    def test_discount_bounds(self):
        with pytest.raises(ValueError):
            discounted_utility([1], 1.5)

    def test_geometric_matches_long_stream(self):
        delta = 0.9
        closed = geometric_utility(2.0, delta)
        summed = discounted_utility([2.0] * 500, delta)
        assert abs(closed - summed) < 1e-18 or abs(closed - summed) / closed < 1e-6

    def test_geometric_requires_delta_below_one(self):
        with pytest.raises(ValueError):
            geometric_utility(1.0, 1.0)

    @given(
        st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), max_size=10),
        st.floats(min_value=0, max_value=0.99),
    )
    def test_linearity(self, stream, delta):
        doubled = discounted_utility([2 * u for u in stream], delta)
        assert abs(doubled - 2 * discounted_utility(stream, delta)) < 1e-6


# ----------------------------------------------------------------------
# Normal-form games
# ----------------------------------------------------------------------
def _prisoners_dilemma():
    table = {
        ("C", "C"): (-1, -1),
        ("C", "D"): (-3, 0),
        ("D", "C"): (0, -3),
        ("D", "D"): (-2, -2),
    }
    return game_from_table(("P1", "P2"), (("C", "D"), ("C", "D")), table)


class TestNormalForm:
    def test_pd_unique_equilibrium(self):
        game = _prisoners_dilemma()
        assert game.pure_nash_equilibria() == [("D", "D")]

    def test_pd_defect_dominant(self):
        game = _prisoners_dilemma()
        assert game.is_dominant_strategy(0, "D")
        assert not game.is_dominant_strategy(0, "C")
        assert game.dominant_strategy_equilibrium() == [("D", "D")]

    def test_pareto_dominance(self):
        game = _prisoners_dilemma()
        assert game.pareto_dominates(("C", "C"), ("D", "D"))
        assert not game.pareto_dominates(("C", "D"), ("D", "C"))

    def test_matching_pennies_no_pure_equilibrium(self):
        table = {
            ("H", "H"): (1, -1),
            ("H", "T"): (-1, 1),
            ("T", "H"): (-1, 1),
            ("T", "T"): (1, -1),
        }
        game = game_from_table(("P1", "P2"), (("H", "T"), ("H", "T")), table)
        assert game.pure_nash_equilibria() == []
        with pytest.raises(ValueError):
            game.focal_equilibrium()

    def test_missing_table_entries_rejected(self):
        with pytest.raises(ValueError):
            game_from_table(("P1",), (("A", "B"),), {("A",): (0,)})

    def test_invalid_profile_rejected(self):
        game = _prisoners_dilemma()
        with pytest.raises(ValueError):
            game.payoffs(("X", "C"))
        with pytest.raises(ValueError):
            game.payoffs(("C",))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_game_equilibria_are_verified(self, seed):
        """Property: every profile the finder returns passes is_nash,
        and every profile it rejects has a profitable deviation."""
        import random

        rng = random.Random(seed)
        table = {}
        for a in ("A", "B"):
            for b in ("a", "b"):
                table[(a, b)] = (rng.randint(-3, 3), rng.randint(-3, 3))
        game = game_from_table(("P1", "P2"), (("A", "B"), ("a", "b")), table)
        equilibria = set(game.pure_nash_equilibria())
        for profile in game.profiles():
            if profile in equilibria:
                assert game.is_nash(profile)
            else:
                assert not game.is_nash(profile)


class TestExampleFocalGame:
    """The paper's Table-3 3-player game (Section 4.3)."""

    def test_two_equilibria(self):
        game = example_focal_game()
        assert set(game.pure_nash_equilibria()) == {
            ("A", "a", "alpha"),
            ("B", "b", "beta"),
        }

    def test_focal_point_is_the_good_equilibrium(self):
        game = example_focal_game()
        assert game.focal_equilibrium() == ("A", "a", "alpha")

    def test_focal_payoffs(self):
        game = example_focal_game()
        assert game.payoffs(("A", "a", "alpha")) == (1, 1, 1)
        assert game.payoffs(("B", "b", "beta")) == (0, 0, 0)

    def test_no_dominant_strategy_equilibrium(self):
        """Neither equilibrium is in dominant strategies — exactly why
        the paper argues NIC alone is too weak (Section 4.3)."""
        assert example_focal_game().dominant_strategy_equilibrium() == []
