"""(t, k)-robustness checking (Definitions 1-3 of the paper).

A protocol run is (t,k)-robust if honest players' ledgers satisfy:

- **(t,k)-validity** — confirmed blocks were actually proposed and
  delivered to honest players (no fabricated content);
- **(t,k)-agreement** — no two honest players confirm different blocks
  at the same height;
- **c-strict ordering** — honest ledgers, minus their c newest blocks,
  are prefixes of one another;
- **(t,k)-eventual liveness** — if one honest player confirms a block,
  all honest players eventually confirm it (we check it at run end
  over final blocks, modulo the c suffix).

Strong robustness adds **(t,k)-censorship resistance**: transactions
input to all honest players eventually confirm.

This module alone judges a finished run on these clauses and derives
Table 2's σ from them (:func:`state_of`): the oracle's checkers, the
run record and the realised utilities read one :class:`RobustnessReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.gametheory.states import SystemState
from repro.ledger.chain import Chain
from repro.ledger.validation import (
    chains_agree,
    disagreement_heights,
    is_adversarial_marker,
    strict_ordering_holds,
)
from repro.protocols.runner import RunResult


def state_of(
    agreement: bool, progressed: bool, censorship_resistance: Optional[bool]
) -> SystemState:
    """Table 2's σ from Definition 1's clauses, the most severe first:
    fork ≻ no progress ≻ censorship ≻ honest execution."""
    if not agreement:
        return SystemState.FORK
    if not progressed:
        return SystemState.NO_PROGRESS
    if censorship_resistance is False:
        return SystemState.CENSORSHIP
    return SystemState.HONEST


@dataclass
class RobustnessReport:
    """One finished run judged once: Definition 1's clauses, the σ they
    imply, and diagnostics.  ``validity`` (and so ``robust``) is None —
    not judged — when retention evicted the history it compares against
    (:attr:`RunResult.history_truncated`); ``censorship_resistance`` is
    None when no censored transactions were named."""

    agreement: bool
    strict_ordering: bool
    validity: Optional[bool]
    eventual_liveness: bool
    censorship_resistance: Optional[bool]
    progressed: bool
    fork_heights: List[int]
    max_final_height: int
    min_final_height: int
    #: (player, tx_id) per confirmed transaction no client submitted.
    unsubmitted: Tuple[Tuple[int, str], ...] = ()

    @property
    def state(self) -> SystemState:
        """Table 2's terminal σ, derived from this report's clauses."""
        return state_of(self.agreement, self.progressed, self.censorship_resistance)

    @property
    def robust(self) -> Optional[bool]:
        """Definition 1: all four clauses hold (None: validity unjudged)."""
        if self.validity is None:
            return None
        return self.agreement and self.strict_ordering and self.validity and self.eventual_liveness

    @property
    def strongly_robust(self) -> Optional[bool]:
        """Definition 3: robust + censorship resistant (None if the
        censorship check was not requested or robustness not judged)."""
        if self.censorship_resistance is None:
            return None
        return self.robust and self.censorship_resistance


def _chain_clauses(
    chains: Dict[int, Chain],
    censored_tx_ids: Optional[Iterable[str]],
    final_only: bool = True,
) -> Tuple[bool, List[int], Optional[bool]]:
    """Agreement, confirmed heights and censorship resistance."""
    agreement = chains_agree(chains, final_only=final_only)
    heights = [
        len(chain.final_blocks()) if final_only else len(chain) for chain in chains.values()
    ]
    censorship: Optional[bool] = None
    if censored_tx_ids is not None:
        censorship = all(
            any(chain.contains_transaction(tx_id, final_only=final_only) for chain in chains.values())
            for tx_id in set(censored_tx_ids)
        )
    return agreement, heights, censorship


def chain_state(
    chains: Dict[int, Chain],
    censored_tx_ids: Optional[Iterable[str]] = None,
    final_only: bool = True,
) -> SystemState:
    """:attr:`RobustnessReport.state` over bare honest chains."""
    if not chains:
        raise ValueError("need at least one honest chain to classify")
    agreement, heights, censorship = _chain_clauses(chains, censored_tx_ids, final_only)
    return state_of(agreement, max(heights) > 0, censorship)


def _unsubmitted(result: RunResult, chains: Dict[int, Chain]) -> Tuple[Tuple[int, str], ...]:
    """Confirmed transactions no client submitted; adversarial fork
    markers *were* proposed, so validity exempts them (provenance, not
    safety)."""
    submitted = set(result.submitted_tx_ids)
    return tuple(
        (pid, tx.tx_id)
        for pid, chain in chains.items()
        for block in chain.final_blocks()
        for tx in block.transactions
        if tx.tx_id not in submitted and not is_adversarial_marker(tx.tx_id)
    )


def check_robustness(
    result: RunResult,
    c: int = 0,
    censored_tx_ids: Optional[Iterable[str]] = None,
    liveness_slack: int = 1,
) -> RobustnessReport:
    """Evaluate Definition 1 (and optionally 2/3) over a finished run.

    Args:
        result: the finished run.
        c: the strict-ordering suffix parameter.
        censored_tx_ids: if given, also check (t,k)-censorship
            resistance for these ids.
        liveness_slack: eventual liveness tolerates honest final
            heights differing by at most this many blocks (a replica
            can legitimately be mid-catch-up when the run is cut off).
    """
    chains = result.honest_chains()
    if not chains:
        raise ValueError("run has no honest players")
    agreement, heights, censorship = _chain_clauses(chains, censored_tx_ids)
    # Refusal, not a vacuous pass: with submissions trimmed or bodies
    # pruned, the comparison would judge only what retention kept.
    unsubmitted = None if result.history_truncated else _unsubmitted(result, chains)
    return RobustnessReport(
        agreement=agreement,
        strict_ordering=strict_ordering_holds(chains, c),
        validity=None if unsubmitted is None else not unsubmitted,
        eventual_liveness=max(heights) - min(heights) <= liveness_slack,
        censorship_resistance=censorship,
        progressed=max(heights) > 0,
        fork_heights=[] if agreement else disagreement_heights(chains, final_only=True),
        max_final_height=max(heights),
        min_final_height=min(heights),
        unsubmitted=unsubmitted or (),
    )
