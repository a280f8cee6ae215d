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
from typing import Any, FrozenSet, Iterable, Optional, Set, Union

from repro.agents.player import Player
from repro.core.messages import (
    Justification,
    SignedStatement,
    build_justification,
    justification_size,
    verify_justification,
)
from repro.core.pof import FraudDetector, FraudProof
from repro.protocols.base import ProtocolConfig, ProtocolContext
from repro.protocols.twophase import TwoPhaseReplica, TwoPhaseRound

PG_PROPOSE = "pg-propose"
PG_PREPARE = "pg-prepare"
PG_COMMIT = "pg-commit"
PG_VIEW_CHANGE = "pg-view-change"


@dataclass(frozen=True)
class PgPropose:
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
class PgPrepare:
    statement: SignedStatement

    @property
    def round_number(self) -> int:
        return self.statement.round_number

    @property
    def digest(self) -> str:
        return self.statement.digest

    @property
    def size_bytes(self) -> int:
        return self.statement.size_bytes


@dataclass(frozen=True)
class PgCommit:
    """Commit with the prepare-quorum justification — the accountable bit.

    ``prepares`` is the justification in either wire representation
    (statement set, or one AggregateQC under ``aggregate_certs``).
    """

    statement: SignedStatement
    prepares: Justification
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
        return self.statement.size_bytes + justification_size(self.prepares) + block_size


@dataclass(frozen=True)
class PgViewChange:
    statement: SignedStatement
    evidence: FrozenSet[SignedStatement] = frozenset()

    @property
    def round_number(self) -> int:
        return self.statement.round_number

    @property
    def digest(self) -> None:
        return None

    @property
    def size_bytes(self) -> int:
        return self.statement.size_bytes + sum(e.size_bytes for e in self.evidence)


class PolygraphReplica(TwoPhaseReplica):
    """Accountable pBFT: justification-carrying commits + fraud burning."""

    PROPOSE, PREPARE, COMMIT, VIEW_CHANGE = PG_PROPOSE, PG_PREPARE, PG_COMMIT, PG_VIEW_CHANGE
    Proposal, Prepare, ViewChange = PgPropose, PgPrepare, PgViewChange

    _HANDLERS = {
        PgPropose: "_on_proposal",
        PgPrepare: "_on_prepare",
        PgCommit: "_on_commit",
        PgViewChange: "_on_view_change",
    }

    def __init__(self, player: Player, config: ProtocolConfig, ctx: ProtocolContext) -> None:
        super().__init__(player, config, ctx)
        # Fraud evidence is persisted (written through on receipt).
        self.detector = FraudDetector(registry=ctx.registry)
        self.reported_guilty: Set[int] = set()

    def handle_payload(self, sender: int, payload: Any) -> None:
        if self._accept(sender, payload):
            handler = self._HANDLERS.get(type(payload))
            if handler is not None:
                getattr(self, handler)(sender, payload)

    # ------------------------------------------------------------------
    # What a commit and a view change carry
    # ------------------------------------------------------------------
    def _make_commit(self, state: TwoPhaseRound, digest: str) -> Optional[PgCommit]:
        """A commit carries the prepare quorum that justifies it — so it
        can only be (re)built while that quorum is held."""
        prepares = state.prepares.get(digest, {})
        if len(prepares) < self.config.quorum_size:
            return None
        return PgCommit(
            statement=self._sign(PG_COMMIT, state.number, digest),
            prepares=build_justification(prepares.values(), self.ctx.aggregate_certs),
            block=state.blocks.get(digest),
        )

    def _on_timeout(self, round_number: int) -> None:
        """Stalled frontier: the ViewChange carries every prepare and
        commit statement held for the round, so a stalled fork attempt
        is still attributable."""
        state = self._view_change_due(round_number)
        if state is None:
            return
        evidence: Set[SignedStatement] = set()
        for by_signer in state.prepares.values():
            evidence.update(by_signer.values())
        for by_signer in state.commits.values():
            evidence.update(by_signer.values())
        self._send_view_change(state, evidence=frozenset(evidence))

    # ------------------------------------------------------------------
    # What a receiver checks and absorbs
    # ------------------------------------------------------------------
    def _absorb(self, statement: SignedStatement) -> None:
        proof = self.detector.absorb(statement)
        if proof is not None:
            self._punish(proof)

    def _absorb_justification(
        self, justification: Union[Justification, Iterable[SignedStatement]]
    ) -> None:
        """Absorb a prepare justification (either shape) or view-change
        evidence; the detector verifies what it has not indexed yet and
        skips what it has."""
        for proof in self.detector.absorb_justification(justification):
            self._punish(proof)

    def _admit_commit(self, message: PgCommit) -> bool:
        if not verify_justification(
            self.ctx.registry,
            message.prepares,
            phase=PG_PREPARE,
            round_number=message.round_number,
            digest=message.digest,
            minimum=self.config.quorum_size,
        ):
            return False
        self._absorb(message.statement)
        self._absorb_justification(message.prepares)
        return True

    def _absorb_view_change(self, message: PgViewChange) -> None:
        self._absorb_justification(message.evidence)

    def _on_late_payload(self, sender: int, payload: Any) -> None:
        """Accountability outlives the round and the run: keep absorbing
        evidence — and keep serving catch-up."""
        statement = getattr(payload, "statement", None)
        if isinstance(statement, SignedStatement):
            self._absorb(statement)
        for attr in ("prepares", "evidence"):
            bundle = getattr(payload, attr, None)
            if bundle:
                self._absorb_justification(bundle)
        super()._on_late_payload(sender, payload)

    def _punish(self, proof: FraudProof) -> None:
        accused = proof.accused
        if accused in self.reported_guilty:
            return
        if not self.strategy.report_fraud(self, {accused}):
            return
        self.reported_guilty.add(accused)
        self.ctx.collateral.burn(accused, reason=f"polygraph-round-{proof.round_number}")
        self.trace("burn", accused=accused, round=proof.round_number)


def polygraph_factory(
    player: Player, config: ProtocolConfig, ctx: ProtocolContext
) -> PolygraphReplica:
    """Replica factory (see :data:`repro.experiments.registry.PROTOCOL_FACTORIES`)."""
    return PolygraphReplica(player, config, ctx)
