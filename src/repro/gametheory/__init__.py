"""Game-theoretic model of rational consensus (Section 4 of the paper).

This package realises the paper's model verbatim:

- :mod:`~repro.gametheory.states` — the four system states σ_NP, σ_CP,
  σ_Fork, σ_0 and a classifier from execution outcomes to states;
- :mod:`~repro.gametheory.payoff` — the payoff function f(σ, θ) of
  Table 2 and the rational player types θ ∈ {0, 1, 2, 3};
- :mod:`~repro.gametheory.utility` — per-round utility
  u_i = E[f(σ, θ)] − L·D(π, σ) and the discounted repeated-round
  utility U_i = Σ_r δ^r u_i (Equation 1);
- :mod:`~repro.gametheory.empirical` — Equation 1 evaluated on a
  finished run: the one utility every record and claim reads;
- :mod:`~repro.gametheory.normal_form` — finite normal-form games with
  pure Nash equilibrium enumeration, dominant-strategy checks, Pareto
  comparison and focal-point selection (Section 4.3), including the
  paper's 3-player example game (Table 3);
- :mod:`~repro.gametheory.trap_game` — the baiting game underlying
  TRAP, used to demonstrate Theorem 3's insecure second equilibrium.
"""

from repro.gametheory.empirical import empirical_utility, per_round_utilities
from repro.gametheory.payoff import PlayerType, payoff
from repro.gametheory.states import SystemState, classify_state
from repro.gametheory.normal_form import NormalFormGame, example_focal_game
from repro.gametheory.trap_game import TrapGameParameters, build_baiting_game
from repro.gametheory.utility import (
    discounted_utility,
    geometric_utility,
    round_utility,
)

__all__ = [
    "NormalFormGame",
    "PlayerType",
    "SystemState",
    "TrapGameParameters",
    "build_baiting_game",
    "classify_state",
    "discounted_utility",
    "empirical_utility",
    "example_focal_game",
    "geometric_utility",
    "payoff",
    "per_round_utilities",
    "round_utility",
]
