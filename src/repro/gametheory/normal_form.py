"""Finite normal-form games: Nash, dominance, Pareto, focal points.

Section 4.3 of the paper argues that a protocol whose security rests on
*one of several* Nash equilibria is fragile: rational players gravitate
to the focal (Pareto-attractive) equilibrium, which may be the insecure
one.  This module supplies the machinery to make those arguments
executable:

- exhaustive pure-strategy Nash equilibrium enumeration;
- dominant-strategy checks (weak dominance, as in Definition 5's
  DSIC inequality, which uses ≤);
- Pareto comparison and focal-point selection among equilibria;
- the paper's 3-player example game (Table 3) as a ready-made fixture.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Sequence, Tuple

Profile = Tuple[str, ...]
PayoffFunction = Callable[[Profile], Tuple[float, ...]]


class NormalFormGame:
    """An n-player finite game in normal form.

    Args:
        player_names: ordered player labels.
        strategy_sets: per player (same order), the available pure
            strategies.
        payoff: maps a full strategy profile to a payoff per player.
    """

    def __init__(
        self,
        player_names: Sequence[str],
        strategy_sets: Sequence[Sequence[str]],
        payoff: PayoffFunction,
    ) -> None:
        if len(player_names) != len(strategy_sets):
            raise ValueError("one strategy set per player required")
        if not player_names:
            raise ValueError("need at least one player")
        for strategies in strategy_sets:
            if not strategies:
                raise ValueError("every player needs at least one strategy")
        self.player_names = tuple(player_names)
        self.strategy_sets = tuple(tuple(strategies) for strategies in strategy_sets)
        self._payoff = payoff

    @property
    def num_players(self) -> int:
        return len(self.player_names)

    def payoffs(self, profile: Profile) -> Tuple[float, ...]:
        """Payoff vector for ``profile`` (validated)."""
        self._validate(profile)
        result = tuple(self._payoff(tuple(profile)))
        if len(result) != self.num_players:
            raise ValueError("payoff function returned wrong arity")
        return result

    def _validate(self, profile: Profile) -> None:
        if len(profile) != self.num_players:
            raise ValueError("profile length must equal number of players")
        for index, strategy in enumerate(profile):
            if strategy not in self.strategy_sets[index]:
                raise ValueError(
                    f"strategy {strategy!r} not available to player "
                    f"{self.player_names[index]!r}"
                )

    def profiles(self) -> List[Profile]:
        """Every pure strategy profile."""
        return [tuple(profile) for profile in itertools.product(*self.strategy_sets)]

    # ------------------------------------------------------------------
    # Best responses and Nash equilibria
    # ------------------------------------------------------------------
    def deviations(self, profile: Profile, player: int) -> List[Profile]:
        """All unilateral deviations of ``player`` from ``profile``."""
        self._validate(profile)
        alternatives = []
        for strategy in self.strategy_sets[player]:
            if strategy == profile[player]:
                continue
            deviated = list(profile)
            deviated[player] = strategy
            alternatives.append(tuple(deviated))
        return alternatives

    def is_best_response(self, profile: Profile, player: int) -> bool:
        """True if ``player`` cannot gain by a unilateral deviation."""
        own = self.payoffs(profile)[player]
        return all(
            self.payoffs(deviated)[player] <= own
            for deviated in self.deviations(profile, player)
        )

    def is_nash(self, profile: Profile) -> bool:
        """True if ``profile`` is a pure-strategy Nash equilibrium."""
        return all(self.is_best_response(profile, player) for player in range(self.num_players))

    def pure_nash_equilibria(self) -> List[Profile]:
        """Exhaustively enumerate all pure-strategy Nash equilibria."""
        return [profile for profile in self.profiles() if self.is_nash(profile)]

    # ------------------------------------------------------------------
    # Dominance
    # ------------------------------------------------------------------
    def is_dominant_strategy(self, player: int, strategy: str) -> bool:
        """Weak dominance: best response to *every* opponent profile.

        This is the DSIC condition of Definition 5: for all opponent
        strategy choices, no alternative does strictly better.
        """
        if strategy not in self.strategy_sets[player]:
            raise ValueError(f"unknown strategy {strategy!r}")
        others = [
            self.strategy_sets[index]
            for index in range(self.num_players)
            if index != player
        ]
        for opponent_choice in itertools.product(*others):
            profile = list(opponent_choice)
            profile.insert(player, strategy)
            if not self.is_best_response(tuple(profile), player):
                return False
        return True

    def dominant_strategy_equilibrium(self) -> List[Profile]:
        """Profiles where every player plays a (weakly) dominant strategy."""
        per_player: List[List[str]] = []
        for player in range(self.num_players):
            dominant = [
                strategy
                for strategy in self.strategy_sets[player]
                if self.is_dominant_strategy(player, strategy)
            ]
            if not dominant:
                return []
            per_player.append(dominant)
        return [tuple(profile) for profile in itertools.product(*per_player)]

    # ------------------------------------------------------------------
    # Pareto and focal analysis (Section 4.3)
    # ------------------------------------------------------------------
    def pareto_dominates(self, first: Profile, second: Profile) -> bool:
        """True if ``first`` is at least as good for all and better for one."""
        a = self.payoffs(first)
        b = self.payoffs(second)
        at_least = all(x >= y for x, y in zip(a, b))
        strictly = any(x > y for x, y in zip(a, b))
        return at_least and strictly

    def focal_equilibrium(self) -> Profile:
        """The focal point among equilibria (Schelling, Section 4.3).

        Selection rule: among Nash equilibria, prefer the one that
        Pareto-dominates all others; if none does, pick the equilibrium
        with the highest total payoff (ties broken lexicographically).
        Raises ``ValueError`` if the game has no pure equilibrium.
        """
        equilibria = self.pure_nash_equilibria()
        if not equilibria:
            raise ValueError("game has no pure-strategy Nash equilibrium")
        for candidate in equilibria:
            if all(
                candidate == other or self.pareto_dominates(candidate, other)
                for other in equilibria
            ):
                return candidate
        return max(
            sorted(equilibria),
            key=lambda profile: sum(self.payoffs(profile)),
        )


def game_from_table(
    player_names: Sequence[str],
    strategy_sets: Sequence[Sequence[str]],
    table: Dict[Profile, Tuple[float, ...]],
) -> NormalFormGame:
    """Build a game from an explicit profile → payoff-vector table."""
    complete = {tuple(profile): tuple(payoffs) for profile, payoffs in table.items()}

    def payoff(profile: Profile) -> Tuple[float, ...]:
        try:
            return complete[profile]
        except KeyError:
            raise ValueError(f"no payoff entry for profile {profile}") from None

    game = NormalFormGame(player_names, strategy_sets, payoff)
    missing = [profile for profile in game.profiles() if profile not in complete]
    if missing:
        raise ValueError(f"payoff table missing profiles: {missing[:3]}...")
    return game


def example_focal_game() -> NormalFormGame:
    """The paper's 3-player example (Table 3, Section 4.3).

    Players P1 ∈ {A, B}, P2 ∈ {a, b}, P3 ∈ {α, β}.  The game has two
    pure Nash equilibria — (A, a, α) with payoffs (1, 1, 1) and
    (B, b, β) with payoffs (0, 0, 0) — and (A, a, α) is focal because
    it offers every player strictly more.
    """
    table: Dict[Profile, Tuple[float, ...]] = {
        ("A", "a", "alpha"): (1, 1, 1),
        ("A", "a", "beta"): (1, 1, 0),
        ("A", "b", "alpha"): (1, 0, 1),
        ("A", "b", "beta"): (-2, 2, 2),
        ("B", "a", "alpha"): (0, 1, 1),
        ("B", "a", "beta"): (1, -2, 1),
        ("B", "b", "alpha"): (2, 2, -2),
        ("B", "b", "beta"): (0, 0, 0),
    }
    return game_from_table(
        ("P1", "P2", "P3"),
        (("A", "B"), ("a", "b"), ("alpha", "beta")),
        table,
    )
