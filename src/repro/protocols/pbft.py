"""pBFT baseline (Castro & Liskov 1999), simulation-grade.

Three all-to-all phases per round — PrePrepare (leader), Prepare,
Commit — with quorum n − t0 (the classic 2f + 1 at n = 3f + 1).
Finality is immediate on the commit quorum; there is **no
accountability**: messages carry no justification sets, so a
double-signer is never provably exposed and never loses collateral.
This is the Figure-3 comparison point with O(κ) message size, and the
foil for pRFT's reveal phase in the robustness experiments: under
violated bounds pBFT forks *silently*.

The ``aggregate_certs`` crypto axis is an identity here: pBFT carries
no quorum certificates on the wire (each replica counts the prepares
and commits it received directly), so there is nothing to aggregate
and runs are bit-for-bit identical with the axis on or off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.agents.player import Player
from repro.core.messages import SignedStatement, WireMessage
from repro.protocols.base import ProtocolConfig, ProtocolContext
from repro.protocols.phases import PhaseRow, ViewChangeReplica

PREPREPARE = "pbft-preprepare"
PREPARE = "pbft-prepare"
COMMIT = "pbft-commit"
VIEW_CHANGE = "pbft-view-change"


@dataclass(frozen=True)
class PrePrepare(WireMessage):
    block: Any
    statement: SignedStatement


@dataclass(frozen=True)
class PhaseVote(WireMessage):
    """A Prepare or Commit vote: statement only, O(κ) size — the signed
    phase tells the two apart.  A commit ships the block along."""

    statement: SignedStatement
    block: Optional[Any] = None


@dataclass(frozen=True)
class PbftViewChange(WireMessage):
    SIGNS_VALUE = False

    statement: SignedStatement


class PBFTReplica(ViewChangeReplica):
    """pBFT: the bare prepare → commit table, no accountability."""

    PROPOSE, VIEW_CHANGE = PREPREPARE, VIEW_CHANGE
    Proposal, ViewChange = PrePrepare, PbftViewChange
    PHASES = (
        PhaseRow(PREPARE, PhaseVote, then=COMMIT),
        PhaseRow(COMMIT, PhaseVote, then="_commit_decided"),
    )

    def handle_payload(self, sender: int, payload: Any) -> None:
        self._dispatch(sender, payload)

    def _on_timeout(self, round_number: int) -> None:
        """Stalled frontier: a bare ViewChange vote, no evidence."""
        state = self._view_change_due(round_number)
        if state is not None:
            self._send_view_change(state)


def pbft_factory(player: Player, config: ProtocolConfig, ctx: ProtocolContext) -> PBFTReplica:
    """Replica factory (see :data:`repro.experiments.registry.PROTOCOL_FACTORIES`)."""
    return PBFTReplica(player, config, ctx)
