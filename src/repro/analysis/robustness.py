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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.ledger.chain import Chain
from repro.ledger.validation import (
    chains_agree,
    disagreement_heights,
    is_adversarial_marker,
    strict_ordering_holds,
)
from repro.protocols.runner import RunResult


@dataclass
class RobustnessReport:
    """Verdicts per Definition-1 clause, plus diagnostics."""

    agreement: bool
    strict_ordering: bool
    validity: bool
    eventual_liveness: bool
    censorship_resistance: Optional[bool]
    progressed: bool
    fork_heights: List[int]
    max_final_height: int
    min_final_height: int

    @property
    def robust(self) -> bool:
        """Definition 1: all four clauses hold."""
        return self.agreement and self.strict_ordering and self.validity and self.eventual_liveness

    @property
    def strongly_robust(self) -> Optional[bool]:
        """Definition 3: robust + censorship resistant (None if the
        censorship check was not requested)."""
        if self.censorship_resistance is None:
            return None
        return self.robust and self.censorship_resistance


def _validity_holds(result: RunResult, chains: Dict[int, Chain]) -> bool:
    """Every confirmed transaction was actually submitted by a client
    (or is an adversarial marker, which must never confirm on an
    honest chain under valid parameters — if it does, the fork-marker
    block was adversarial; it still *was* proposed, so validity here
    checks provenance, not safety)."""
    submitted = set(result.submitted_tx_ids)
    for chain in chains.values():
        for block in chain.final_blocks():
            for tx in block.transactions:
                if tx.tx_id not in submitted and not is_adversarial_marker(tx.tx_id):
                    return False
    return True


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

    agreement = chains_agree(chains, final_only=True)
    ordering = strict_ordering_holds(chains, c)
    validity = _validity_holds(result, chains)

    final_heights = [len(chain.final_blocks()) for chain in chains.values()]
    max_height = max(final_heights)
    min_height = min(final_heights)
    liveness = (max_height - min_height) <= liveness_slack
    progressed = max_height > 0

    censorship: Optional[bool] = None
    if censored_tx_ids is not None:
        targets: Set[str] = set(censored_tx_ids)
        censorship = all(
            any(chain.contains_transaction(tx_id, final_only=True) for chain in chains.values())
            for tx_id in targets
        )

    return RobustnessReport(
        agreement=agreement,
        strict_ordering=ordering,
        validity=validity,
        eventual_liveness=liveness,
        censorship_resistance=censorship,
        progressed=progressed,
        fork_heights=[] if agreement else disagreement_heights(chains, final_only=True),
        max_final_height=max_height,
        min_final_height=min_height,
    )
