"""Equation 1 over executed runs: the one definition of a player's utility.

The analytical results (Lemma 4, Theorems 1-3) reason about utilities
U_i = Σ_r δ^r u_i(π, θ, r), with u_i = f(σ_r, θ) − L·D (Table 2's
payoff less the deposit in the round the player is burned).  This
module is the only place that evaluates it on a finished run; the run
record (and so the search and the warehouse), the claim rows and the
oracle's ``utility-consistency`` audit all read it:

- :func:`round_horizon` — the rounds a run spans;
- :func:`round_states` — σ per round, from the trace's finality events;
- :func:`per_round_utilities` — the per-round stream u_i(π, θ, r);
- :func:`empirical_utility` — its δ-discounted sum, δ = ``config.discount``;
- :func:`utility_history_evicted` — whether retention dropped the
  trace events the stream replays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.gametheory.payoff import PlayerType, payoff
from repro.gametheory.states import SystemState
from repro.gametheory.utility import discounted_utility

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.protocols
    from repro.protocols.runner import RunResult

#: The trace kinds Equation 1 replays: per-round finality and the burn.
TRACE_KINDS = ("burn", "final")


def utility_history_evicted(result: RunResult) -> bool:
    """True when retention dropped a ``final`` or ``burn`` event, so the
    per-round stream cannot be rebuilt and no utility is reported."""
    return any(result.trace.truncated(kind) for kind in TRACE_KINDS)


def round_horizon(result: RunResult) -> int:
    """The number of rounds a run spans.

    A fixed-slot run plays ``config.max_rounds``.  A continuous run
    (``config.duration`` set) ignores that value and opens slots until
    its duration ends, so it spans every round up to the highest one an
    honest replica opened.
    """
    if result.config.duration is None:
        return result.config.max_rounds
    return 1 + max(
        (result.replicas[pid].dispatch_horizon() for pid in result.honest_ids), default=0
    )


def _final_rounds_by_player(result: RunResult) -> Dict[int, Dict[int, str]]:
    """{player: {round: block digest}} from the trace's final events."""
    finals: Dict[int, Dict[int, str]] = {}
    for event in result.trace.events("final"):
        if event.player is None:
            continue
        finals.setdefault(event.player, {})[event.detail["round"]] = event.detail["digest"]
    return finals


def round_states(
    result: RunResult,
    censored_tx_ids: Optional[Iterable[str]] = None,
    terminal: Optional[SystemState] = None,
) -> List[SystemState]:
    """The σ of each round r < :func:`round_horizon`, reading the trace once.

    - two honest players finalised different blocks in the round → Fork;
    - no honest player finalised a block in the round → No Progress;
    - a block finalised and the run's terminal σ is censorship of
      ``censored_tx_ids`` → Censorship (run granularity);
    - otherwise → Honest execution.

    ``terminal`` is the run's σ if the caller already judged it.
    """
    finals, honest = _final_rounds_by_player(result), result.honest_ids
    censoring = censored_tx_ids is not None and (
        terminal or result.system_state(censored_tx_ids=censored_tx_ids)
    ) is SystemState.CENSORSHIP
    states = []
    for r in range(round_horizon(result)):
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
    """u_i(π, θ, r) for every round of :func:`round_states`.

    The collateral penalty L·D is charged in the round whose
    Proof-of-Fraud triggered the burn (the first fresh ``burn`` trace
    event naming the player).
    """
    stream = [
        payoff(state, theta, result.config.alpha)
        for state in round_states(result, censored_tx_ids, terminal)
    ]
    for event in result.trace.events("burn"):
        if event.detail.get("accused") == player_id and event.detail.get("fresh", True):
            burn_round = min(event.detail.get("round", 0), len(stream) - 1)
            stream[burn_round] -= result.config.deposit
            break
    return stream


def empirical_utility(
    result: RunResult,
    player_id: int,
    theta: PlayerType,
    censored_tx_ids: Optional[Iterable[str]] = None,
    terminal: Optional[SystemState] = None,
) -> float:
    """U_i (Equation 1): the stream discounted by δ = ``config.discount``."""
    stream = per_round_utilities(result, player_id, theta, censored_tx_ids, terminal)
    return discounted_utility(stream, result.config.discount)
