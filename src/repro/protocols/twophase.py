"""The prepare/commit skeleton shared by pBFT, Polygraph and TRAP.

One round is proposal → prepare quorum → commit quorum → final, all
phases all-to-all with quorum n − t0; a frontier round that stalls is
abandoned by a quorum of ViewChange votes.  Polygraph (Civit et al.
2021) is by construction pBFT (Castro & Liskov 1999) plus
justification-carrying commits and Proof-of-Fraud absorption, so the
state machine lives here once and each protocol supplies only its wire
vocabulary and its answers to three questions: what a commit carries
(:meth:`TwoPhaseReplica._make_commit`), what a receiver checks and
absorbs (:meth:`~TwoPhaseReplica._absorb`,
:meth:`~TwoPhaseReplica._admit_commit`,
:meth:`~TwoPhaseReplica._absorb_view_change`), and what a view change
carries (the protocol's own ``_on_timeout``).
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, Optional, Set

from repro.core.messages import SignedStatement, make_statement, verify_statement
from repro.ledger.block import Block
from repro.protocols.base import BaseReplica, SlotState


@dataclass
class TwoPhaseRound(SlotState):
    sent_proposal: Optional[Any] = None
    prepared_digests: Set[str] = field(default_factory=set)
    committed_digests: Set[str] = field(default_factory=set)
    prepares: Dict[str, Dict[int, SignedStatement]] = field(default_factory=dict)
    commits: Dict[str, Dict[int, SignedStatement]] = field(default_factory=dict)
    view_changes: Dict[int, SignedStatement] = field(default_factory=dict)
    view_change_sent: bool = False


class TwoPhaseReplica(BaseReplica):
    """Prepare/commit state machine on the shared slot lifecycle."""

    ROUND_STATE = TwoPhaseRound

    # Wire vocabulary, set by each protocol.  A phase constant is both
    # the phase its statements sign and the envelope's message type.
    PROPOSE: ClassVar[str]
    PREPARE: ClassVar[str]
    COMMIT: ClassVar[str]
    VIEW_CHANGE: ClassVar[str]
    Proposal: ClassVar[Callable[..., Any]]  # (block, statement)
    Prepare: ClassVar[Callable[..., Any]]  # (statement)
    ViewChange: ClassVar[Callable[..., Any]]  # (statement, ...)

    # ------------------------------------------------------------------
    # Protocol deltas
    # ------------------------------------------------------------------
    @abstractmethod
    def _make_commit(self, state: TwoPhaseRound, digest: str) -> Optional[Any]:
        """This replica's Commit for ``digest``, or None if it cannot
        (yet) back one up."""

    def _absorb(self, statement: SignedStatement) -> None:
        """A verified proposal / prepare / commit statement was received."""

    def _admit_commit(self, message: Any) -> bool:
        """Check (and absorb) what a validly signed Commit carries."""
        return True

    def _absorb_view_change(self, message: Any) -> None:
        """A validly signed ViewChange was received."""

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _sign(self, phase: str, round_number: int, digest: str) -> SignedStatement:
        return make_statement(self.keypair, phase, round_number, digest)

    def _send(self, message: Any, phase: str, alternative_factory=None) -> None:
        self.broadcast(
            message,
            message_type=phase,
            size_bytes=message.size_bytes,
            round_number=message.round_number,
            alternative_factory=alternative_factory,
            phase=phase,
        )

    def _make_proposal(self, block: Block) -> Any:
        statement = self._sign(self.PROPOSE, block.round_number, block.digest)
        return self.Proposal(block=block, statement=statement)

    def _propose(self, round_number: int) -> None:
        primary = self._make_proposal(self._build_block(round_number))
        self.round_state(round_number).sent_proposal = primary
        self._send(
            primary,
            self.PROPOSE,
            alternative_factory=lambda: self._make_proposal(
                self._conflicting_block(primary.block)
            ),
        )

    def _send_view_change(self, state: TwoPhaseRound, **carried: Any) -> None:
        """Vote to abandon the stalled frontier round and re-arm its timer.

        On reliable channels one ViewChange suffices; repeat timeouts
        resend it when the link may have dropped the first copy.
        """
        if not state.view_change_sent or self.ctx.network.unreliable:
            state.view_change_sent = True
            statement = self._sign(self.VIEW_CHANGE, state.number, "")
            self._send(self.ViewChange(statement=statement, **carried), self.VIEW_CHANGE)
        self._arm_round_timer(state.number)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _valid(self, statement: SignedStatement, sender: int, phase: str) -> bool:
        return (
            statement.phase == phase
            and statement.signer == sender
            and verify_statement(self.ctx.registry, statement)
        )

    def _on_proposal(self, sender: int, message: Any) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        if sender != self.leader_of_round(round_number):
            return
        if not self._valid(message.statement, sender, self.PROPOSE):
            return
        if message.block.digest != message.statement.digest:
            return
        self._absorb(message.statement)
        digest = message.digest
        state.blocks.setdefault(digest, message.block)
        may_sign = not state.prepared_digests or self.strategy.double_votes()
        if digest in state.prepared_digests or not may_sign:
            return
        if message.block.parent_digest != self.expected_parent_digest(round_number):
            return
        state.prepared_digests.add(digest)
        statement = self._sign(self.PREPARE, round_number, digest)
        self._send(self.Prepare(statement=statement), self.PREPARE)

    def _on_prepare(self, sender: int, message: Any) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        if not self._valid(message.statement, sender, self.PREPARE):
            return
        self._absorb(message.statement)
        digest = message.digest
        state.prepares.setdefault(digest, {})[sender] = message.statement
        if len(state.prepares[digest]) < self.config.quorum_size:
            return
        # Prepare quorum = this slot's proposal is acknowledged: the
        # pipeline may open the next slot on top of it.
        block = state.blocks.get(digest)
        if block is not None:
            self._note_proposal_acked(round_number, block)
        may_sign = not state.committed_digests or self.strategy.double_votes()
        if digest in state.committed_digests or not may_sign:
            return
        state.committed_digests.add(digest)
        self._send(self._make_commit(state, digest), self.COMMIT)

    def _on_commit(self, sender: int, message: Any) -> None:
        state = self.round_state(message.round_number)
        if not self._valid(message.statement, sender, self.COMMIT):
            return
        if not self._admit_commit(message):
            return
        digest = message.digest
        if message.block is not None and message.block.digest == digest:
            state.blocks.setdefault(digest, message.block)
        state.commits.setdefault(digest, {})[sender] = message.statement
        if state.finalized:
            return
        if len(state.commits[digest]) >= self.config.quorum_size:
            self._commit_decided(state, digest)

    def _on_view_change(self, sender: int, message: Any) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        if not self._valid(message.statement, sender, self.VIEW_CHANGE):
            return
        self._absorb_view_change(message)
        state.view_changes[sender] = message.statement
        if len(state.view_changes) >= self.config.n - self.config.t0 and not state.finalized:
            self.trace("view_change_committed", round=round_number)
            self._advance(round_number)

    # ------------------------------------------------------------------
    # Faulty links: retransmission and catch-up
    # ------------------------------------------------------------------
    def _retransmit_round(self, state: TwoPhaseRound) -> None:
        """Re-broadcast this round's already-emitted messages.

        Rebuilt statements sign the same tuples as the originals
        (signatures are deterministic), so retransmission can never
        create a double-sign; receivers dedup by (sender, digest).
        """
        if state.sent_proposal is not None:
            # Resend the *stored* proposal verbatim: rebuilding could
            # pick up a changed chain head or mempool and sign a
            # different block — a self-inflicted double-sign.
            self._send(state.sent_proposal, self.PROPOSE)
        for digest in sorted(state.prepared_digests):
            statement = self._sign(self.PREPARE, state.number, digest)
            self._send(self.Prepare(statement=statement), self.PREPARE)
        for digest in sorted(state.committed_digests):
            commit = self._make_commit(state, digest)
            if commit is not None:
                self._send(commit, self.COMMIT)

    def _on_late_payload(self, sender: int, payload: Any) -> None:
        """Serve a *verified* past-round ViewChange on a faulty link:
        the availability of decided blocks outlives the round, and the
        configured rounds."""
        if not self.ctx.network.unreliable:
            return
        if not isinstance(payload, self.ViewChange):
            return
        if not self._valid(payload.statement, sender, self.VIEW_CHANGE):
            return
        self._offer_catch_up_range(sender, payload.round_number)

    def _offer_catch_up(self, requester: int, round_number: int) -> None:
        """Retransmit our round outcome to a peer stuck behind lost traffic.

        All we can (soundly) resend is our *own* signature: our Commit
        with the block for a finalized round, or a bare ViewChange vote
        for an abandoned one.  The laggard assembles its quorum from
        many helpers' resends, one signer each — exactly the messages
        it would have received had the link not dropped them.  Only
        ever active on unreliable networks; strategy-mediated via
        :meth:`BaseReplica.send_direct`.
        """
        if requester == self.player_id:
            return
        state = self._rounds.get(round_number)
        if state is None:
            return
        if state.finalized and state.decided_digest is not None:
            digest = state.decided_digest
            if digest not in state.committed_digests:
                # We finalized on a quorum of *others'* commits without
                # ever signing this digest ourselves (our own commit
                # went to a competing proposal).  Rebuilding a commit
                # here would sign a value we never signed — an honest
                # double-sign that a fraud detector would rightly burn.
                # The laggard must assemble its quorum from replicas
                # that did commit the decided digest.
                return
            if digest not in state.blocks:
                return
            reply, phase = self._make_commit(state, digest), self.COMMIT
        elif state.advanced:
            statement = self._sign(self.VIEW_CHANGE, round_number, "")
            reply, phase = self.ViewChange(statement=statement), self.VIEW_CHANGE
        else:
            return
        if reply is not None:
            self.send_direct(
                requester, reply, phase, reply.size_bytes, round_number, phase=phase
            )
