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
from repro.core.messages import SignedStatement
from repro.protocols.base import ProtocolConfig, ProtocolContext
from repro.protocols.twophase import TwoPhaseReplica, TwoPhaseRound

PREPREPARE = "pbft-preprepare"
PREPARE = "pbft-prepare"
COMMIT = "pbft-commit"
VIEW_CHANGE = "pbft-view-change"


@dataclass(frozen=True)
class PrePrepare:
    block: Any
    statement: SignedStatement

    @property
    def round_number(self) -> int:
        return self.statement.round_number

    @property
    def digest(self) -> str:
        return self.statement.digest

    @property
    def size_bytes(self) -> int:
        return self.block.size_estimate_bytes + self.statement.size_bytes


@dataclass(frozen=True)
class PhaseVote:
    """A Prepare or Commit vote: statement only, O(κ) size."""

    statement: SignedStatement
    block: Optional[Any] = None

    @property
    def round_number(self) -> int:
        return self.statement.round_number

    @property
    def digest(self) -> str:
        return self.statement.digest

    @property
    def size_bytes(self) -> int:
        block_size = self.block.size_estimate_bytes if self.block is not None else 0
        return self.statement.size_bytes + block_size


@dataclass(frozen=True)
class PbftViewChange:
    statement: SignedStatement

    @property
    def round_number(self) -> int:
        return self.statement.round_number

    @property
    def digest(self) -> None:
        return None

    @property
    def size_bytes(self) -> int:
        return self.statement.size_bytes


class PBFTReplica(TwoPhaseReplica):
    """pBFT: the bare prepare/commit skeleton, no accountability."""

    PROPOSE, PREPARE, COMMIT, VIEW_CHANGE = PREPREPARE, PREPARE, COMMIT, VIEW_CHANGE
    Proposal, Prepare, ViewChange = PrePrepare, PhaseVote, PbftViewChange

    _HANDLERS = {
        PrePrepare: "_on_proposal",
        PhaseVote: "_on_phase_vote",
        PbftViewChange: "_on_view_change",
    }

    def handle_payload(self, sender: int, payload: Any) -> None:
        if self._accept(sender, payload):
            handler = self._HANDLERS.get(type(payload))
            if handler is not None:
                getattr(self, handler)(sender, payload)

    def _on_phase_vote(self, sender: int, vote: PhaseVote) -> None:
        """Prepare and Commit share one wire class; the signed phase
        tells them apart."""
        if vote.statement.phase == PREPARE:
            self._on_prepare(sender, vote)
        elif vote.statement.phase == COMMIT:
            self._on_commit(sender, vote)

    def _make_commit(self, state: TwoPhaseRound, digest: str) -> PhaseVote:
        """A pBFT commit carries no justification: the vote and the block."""
        return PhaseVote(
            statement=self._sign(COMMIT, state.number, digest),
            block=state.blocks.get(digest),
        )

    def _on_timeout(self, round_number: int) -> None:
        """Stalled frontier: a bare ViewChange vote, no evidence."""
        state = self._view_change_due(round_number)
        if state is not None:
            self._send_view_change(state)


def pbft_factory(player: Player, config: ProtocolConfig, ctx: ProtocolContext) -> PBFTReplica:
    """Replica factory (see :data:`repro.experiments.registry.PROTOCOL_FACTORIES`)."""
    return PBFTReplica(player, config, ctx)
