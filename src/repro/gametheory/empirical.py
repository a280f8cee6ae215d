"""Empirical game evaluation over simulation runs.

The analytical results (Lemma 4, Theorems 1-3) reason about utilities
U_i = Σ_r δ^r u_i(π, θ, r).  This module computes those quantities from
*executed* runs, closing the loop between the simulator and the game
theory:

- :func:`per_round_utilities` — decompose a finished run into the
  per-round utility stream of Equation 1 (state classification per
  round, penalty charged in the round the burn occurred);
- :func:`empirical_utility` — the discounted sum for one player;
- :func:`empirical_best_response` — Definition 4's inequality checked
  by simulation: hold everyone else's strategy fixed, sweep one
  player's strategies, and report whether the honest strategy wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence

from repro.gametheory.payoff import PlayerType, payoff
from repro.gametheory.states import SystemState
from repro.gametheory.utility import discounted_utility

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.protocols
    from repro.protocols.runner import RunResult


def _final_rounds_by_player(result: RunResult) -> Dict[int, Dict[int, str]]:
    """{player: {round: block digest}} from the trace's final events."""
    finals: Dict[int, Dict[int, str]] = {}
    for event in result.trace.events("final"):
        if event.player is None:
            continue
        finals.setdefault(event.player, {})[event.detail["round"]] = event.detail["digest"]
    return finals


def classify_round(
    result: RunResult,
    round_number: int,
    censored_tx_ids: Optional[Iterable[str]] = None,
) -> SystemState:
    """The system state σ attributable to one round of a finished run.

    - two honest players finalised different blocks in the round → Fork;
    - no honest player finalised a block in the round → No Progress;
    - a block finalised but the round's proposer censored the target
      transactions while they were pending → Censorship (approximated
      at run granularity: a round is censoring if the run's terminal
      classification is censorship and the round made progress);
    - otherwise → Honest execution.
    """
    return _round_states(result, (round_number,), censored_tx_ids)[0]


def round_states(
    result: RunResult,
    censored_tx_ids: Optional[Iterable[str]] = None,
    terminal: Optional[SystemState] = None,
) -> List[SystemState]:
    """:func:`classify_round` for r = 0..max_rounds-1, reading the trace
    once; ``terminal`` is the run's σ if the caller already judged it."""
    return _round_states(result, range(result.config.max_rounds), censored_tx_ids, terminal)


def _round_states(
    result: RunResult, rounds: Iterable[int],
    censored_tx_ids: Optional[Iterable[str]], terminal: Optional[SystemState] = None,
) -> List[SystemState]:
    finals, honest = _final_rounds_by_player(result), result.honest_ids
    censoring = censored_tx_ids is not None and (
        terminal or result.system_state(censored_tx_ids=censored_tx_ids)
    ) is SystemState.CENSORSHIP
    states = []
    for r in rounds:
        digests = {finals[pid][r] for pid in honest if r in finals.get(pid, {})}
        if len(digests) > 1:
            states.append(SystemState.FORK)
        elif not digests:
            states.append(SystemState.NO_PROGRESS)
        else:
            states.append(SystemState.CENSORSHIP if censoring else SystemState.HONEST)
    return states


def per_round_utilities(
    result: RunResult,
    player_id: int,
    theta: PlayerType,
    censored_tx_ids: Optional[Iterable[str]] = None,
    terminal: Optional[SystemState] = None,
) -> List[float]:
    """u_i(π, θ, r) for r = 0..max_rounds-1, from the executed trace.

    The collateral penalty L·D is charged in the round whose
    Proof-of-Fraud triggered the burn (the first ``burn`` trace event
    naming the player).  ``terminal`` as in :func:`round_states`.
    """
    rounds = result.config.max_rounds
    stream = [
        payoff(state, theta, result.config.alpha)
        for state in round_states(result, censored_tx_ids, terminal)
    ]
    for event in result.trace.events("burn"):
        if event.detail.get("accused") == player_id and event.detail.get("fresh", True):
            burn_round = min(event.detail.get("round", 0), rounds - 1)
            stream[burn_round] -= result.config.deposit
            break
    return stream


def empirical_utility(
    result: RunResult,
    player_id: int,
    theta: PlayerType,
    delta: Optional[float] = None,
    censored_tx_ids: Optional[Iterable[str]] = None,
) -> float:
    """U_i (Equation 1) over the run's realised rounds."""
    discount = delta if delta is not None else result.config.discount
    stream = per_round_utilities(result, player_id, theta, censored_tx_ids)
    return discounted_utility(stream, discount)


@dataclass
class BestResponseReport:
    """Outcome of an empirical best-response sweep for one player."""

    player_id: int
    theta: PlayerType
    utilities: Dict[str, float]
    honest_name: str

    @property
    def honest_is_best_response(self) -> bool:
        """Definition 4's inequality, empirically: no strategy in the
        sweep beats the honest one."""
        honest = self.utilities[self.honest_name]
        return all(value <= honest + 1e-12 for value in self.utilities.values())

    @property
    def best_strategy(self) -> str:
        return max(sorted(self.utilities), key=lambda name: self.utilities[name])


def empirical_best_response(
    run_with_strategy: Callable[[str], RunResult],
    strategy_names: Sequence[str],
    player_id: int,
    theta: PlayerType,
    honest_name: str = "pi_0",
    delta: Optional[float] = None,
    censored_tx_ids: Optional[Iterable[str]] = None,
) -> BestResponseReport:
    """Sweep one player's strategies in an otherwise fixed environment.

    ``run_with_strategy(name)`` must build and run the deployment with
    ``player_id`` playing the named strategy (and everyone else
    unchanged).  Returns the per-strategy discounted utilities and the
    best-response verdict for the honest strategy.
    """
    if honest_name not in strategy_names:
        raise ValueError("the sweep must include the honest strategy")
    utilities = {}
    for name in strategy_names:
        result = run_with_strategy(name)
        utilities[name] = empirical_utility(
            result, player_id, theta, delta=delta, censored_tx_ids=censored_tx_ids
        )
    return BestResponseReport(
        player_id=player_id, theta=theta, utilities=utilities, honest_name=honest_name
    )
