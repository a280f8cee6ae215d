"""Polygraph-style accountable BFT baseline (Civit et al. 2021).

The Figure-3 comparison point that *does* provide accountability at
the same asymptotic cost as pRFT: a pBFT-shaped protocol whose commit
messages carry the full prepare-vote justification (O(κ·n) per
message), letting every replica run the double-sign detector and burn
provably guilty players.  Its threat model is weaker than pRFT's —
byzantine-only t < n/3, no rational incentives — which is the paper's
point: pRFT matches Polygraph's complexity while tolerating
t < n/4, t + k < n/2 with rational players.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional

from repro.agents.player import Player
from repro.core.messages import Justification, SignedStatement, WireMessage
from repro.protocols.base import AccountableMixin, ProtocolConfig, ProtocolContext
from repro.protocols.phases import PhaseRow, ViewChangeReplica, ViewChangeRound

PG_PROPOSE = "pg-propose"
PG_PREPARE = "pg-prepare"
PG_COMMIT = "pg-commit"
PG_VIEW_CHANGE = "pg-view-change"


@dataclass(frozen=True)
class PgPropose(WireMessage):
    block: Any
    statement: SignedStatement


@dataclass(frozen=True)
class PgPrepare(WireMessage):
    statement: SignedStatement


@dataclass(frozen=True)
class PgCommit(WireMessage):
    """Commit with the prepare-quorum justification — the accountable
    bit — in either wire representation (statement set, or one
    AggregateQC under ``aggregate_certs``)."""

    statement: SignedStatement
    justification: Justification
    block: Optional[Any] = None


@dataclass(frozen=True)
class PgViewChange(WireMessage):
    SIGNS_VALUE = False

    statement: SignedStatement
    evidence: FrozenSet[SignedStatement] = frozenset()


class PolygraphReplica(AccountableMixin, ViewChangeReplica):
    """Accountable pBFT: the commit carries the prepare quorum that
    justifies it — so it can only be (re)built while that quorum is
    held — and every replica burns the double-signers it can prove."""

    PROPOSE, VIEW_CHANGE = PG_PROPOSE, PG_VIEW_CHANGE
    Proposal, ViewChange = PgPropose, PgViewChange
    PHASES = (
        PhaseRow(PG_PREPARE, PgPrepare, then=PG_COMMIT),
        PhaseRow(PG_COMMIT, PgCommit, then="_commit_decided", carries=PG_PREPARE),
    )
    BURN_REASON = "polygraph"

    def handle_payload(self, sender: int, payload: Any) -> None:
        self._dispatch(sender, payload)

    def _on_timeout(self, round_number: int) -> None:
        # The driver's; defined here because the host-time benchmark
        # (perf/layers.py) wraps this name on this class.
        super()._on_timeout(round_number)

    def _view_change_parts(self, state: ViewChangeRound) -> Dict[str, Any]:
        """The ViewChange carries every prepare and commit statement held
        for the round, so a stalled fork attempt is still attributable.
        Unlike pRFT's, the evidence passes neither the strategy's
        ``filter_evidence`` nor ``config.view_change_evidence``: honouring
        them moves fork runs on Polygraph and TRAP, so it waits for a
        change that re-pins them."""
        return {"evidence": frozenset(self._held_statements(state))}

    def _on_late_payload(self, sender: int, payload: Any) -> None:
        """Keep absorbing evidence — and keep serving catch-up."""
        self._absorb_late(payload, carried=("justification", "evidence"))
        super()._on_late_payload(sender, payload)


def polygraph_factory(
    player: Player, config: ProtocolConfig, ctx: ProtocolContext
) -> PolygraphReplica:
    """Replica factory (see :data:`repro.experiments.registry.PROTOCOL_FACTORIES`)."""
    return PolygraphReplica(player, config, ctx)
