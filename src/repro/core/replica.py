"""The pRFT replica state machine (Figure 1 + Section 5.2).

Implementation notes, and where we deviate from the paper's figure:

- **Everyone votes.**  Figure 1 has only non-leaders vote; we let the
  leader vote for its own proposal too (it receives the proposal over
  loopback like everyone else).  This keeps the n − t0 vote quorum
  reachable for the small-n corner where t0 = 0, and is the standard
  practice in deployed BFT systems.
- **View-change quorum counts per round**, not per stalled phase:
  honest players can time out in different phases of the same round
  (some voted, some did not), and requiring phase-exact matches can
  wedge the round.  The stalled phase is still carried and recorded.
- **CommitView threshold is ≥ n − t0** (the paper's step 5 says
  "> n − t0", which is unreachable when exactly n − t0 players are
  live, i.e. t = t0).
- **Fraud is burned as soon as one honest player proves it.**  Figure 1
  broadcasts an Expose only when |D_i| > t0 (that is when the *round*
  aborts); Section 5.3.1 separately says any PoF can be used to burn
  the culprit's collateral via a later transaction.  We model the
  latter with an immediate burn against the shared collateral
  registry, tagged in the trace.
- **Vote statements are scanned for fraud too** (they travel inside
  Commit justifications); see :mod:`repro.core.pof`.
- **Catch-up through reliable channels.**  Commit and Reveal messages
  carry the block body, so a player cut off behind a partition adopts
  the decided block when the messages eventually arrive (Theorem 5's
  "all messages from a round are eventually delivered").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Optional, Set, Union

from repro.agents.player import Player
from repro.core.messages import (
    CommitMessage,
    CommitViewMessage,
    ExposeMessage,
    FinalMessage,
    Justification,
    KAPPA,
    Phase,
    ProposeMessage,
    RevealMessage,
    SignedStatement,
    ViewChangeMessage,
    VoteMessage,
    build_justification,
    make_statement,
    verify_justification,
    verify_statement,
)
from repro.core.pof import FraudDetector, FraudProof
from repro.ledger.block import Block
from repro.protocols.base import BaseReplica, ProtocolConfig, ProtocolContext, SlotState

_FRAUD_PHASES = {Phase.PROPOSE.value, Phase.VOTE.value, Phase.COMMIT.value, Phase.REVEAL.value}


@dataclass
class RoundState(SlotState):
    """Everything a replica tracks for one round."""

    sent_proposal: Optional[ProposeMessage] = None
    proposals: Dict[str, ProposeMessage] = field(default_factory=dict)
    voted_digests: Set[str] = field(default_factory=set)
    votes: Dict[str, Dict[int, SignedStatement]] = field(default_factory=dict)
    committed_digests: Set[str] = field(default_factory=set)
    commits: Dict[str, Dict[int, SignedStatement]] = field(default_factory=dict)
    revealed_digests: Set[str] = field(default_factory=set)
    reveal_senders: Dict[str, Set[int]] = field(default_factory=dict)
    finals: Dict[str, Dict[int, SignedStatement]] = field(default_factory=dict)
    final_sent: bool = False
    tentative_digest: Optional[str] = None
    exposed: bool = False
    view_change_sent: bool = False
    view_changes: Dict[int, SignedStatement] = field(default_factory=dict)
    commit_view_sent: bool = False
    commit_view_message: Optional[CommitViewMessage] = None
    commit_views: Dict[int, CommitViewMessage] = field(default_factory=dict)
    view_committed: bool = False


class PRFTReplica(BaseReplica):
    """One pRFT player: 4-phase rounds, PoF accountability, view change."""

    ROUND_STATE = RoundState

    _HANDLERS = {
        ProposeMessage: "_on_propose",
        VoteMessage: "_on_vote",
        CommitMessage: "_on_commit",
        RevealMessage: "_on_reveal",
        FinalMessage: "_on_final",
        ExposeMessage: "_on_expose",
        ViewChangeMessage: "_on_view_change",
        CommitViewMessage: "_on_commit_view",
    }

    def __init__(self, player: Player, config: ProtocolConfig, ctx: ProtocolContext) -> None:
        super().__init__(player, config, ctx)
        # Persisted across crashes: the fraud detector and burn log are
        # written through on receipt (Section 5.3.1 lets any PoF burn
        # collateral later, so evidence must survive an outage).
        self.detector = FraudDetector(registry=ctx.registry)
        self.reported_guilty: Set[int] = set()

    def _trace_slot(self, kind: str, **detail: Any) -> None:
        self.trace(kind, **detail)

    # ------------------------------------------------------------------
    # Propose phase
    # ------------------------------------------------------------------
    def _make_propose(self, block: Block) -> ProposeMessage:
        statement = make_statement(
            self.keypair, Phase.PROPOSE.value, block.round_number, block.digest
        )
        return ProposeMessage(block=block, statement=statement)

    def _propose(self, round_number: int) -> None:
        primary = self._make_propose(self._build_block(round_number))
        self.round_state(round_number).sent_proposal = primary
        self.trace("propose", round=round_number, digest=primary.digest[:12])
        self.broadcast(
            primary,
            message_type="propose",
            size_bytes=primary.size_bytes,
            round_number=round_number,
            alternative_factory=lambda: self._make_propose(
                self._conflicting_block(primary.block, marker_payload="equivocation marker")
            ),
            phase=Phase.PROPOSE.value,
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle_payload(self, sender: int, payload: Any) -> None:
        if self._accept(sender, payload):
            handler = self._HANDLERS.get(type(payload))
            if handler is not None:
                getattr(self, handler)(sender, payload)

    def _valid_statement(self, statement: SignedStatement, sender: int, phase: str) -> bool:
        """Recv-boundary validation: right phase, right signer, valid sig."""
        if statement.phase != phase:
            return False
        if statement.signer != sender:
            return False
        return verify_statement(self.ctx.registry, statement)

    # ------------------------------------------------------------------
    # Accountability plumbing
    # ------------------------------------------------------------------
    def _absorb_statement(self, statement: SignedStatement) -> None:
        if statement.phase not in _FRAUD_PHASES:
            return
        proof = self.detector.absorb(statement)
        if proof is not None:
            self._punish(proof)

    def _absorb_justification(
        self, justification: Union[Justification, Iterable[SignedStatement]]
    ) -> None:
        """Absorb a quorum justification (either shape) or view-change
        evidence.  The detector verifies what it has not indexed yet —
        a forged member or bitmap frames nobody — and skips what it
        has, so re-absorbing a circulating certificate is O(1)."""
        for proof in self.detector.absorb_justification(justification, _FRAUD_PHASES):
            self._punish(proof)

    def _punish(self, proof: FraudProof) -> None:
        """Burn a freshly proven double-signer's collateral.

        The strategy gate models suppression: a colluder that
        constructs a proof against its own collusion keeps quiet.  Any
        honest replica burns, and burning is idempotent, so one honest
        observer suffices (Definition 6's "eventually all honest").
        """
        accused = proof.accused
        if accused in self.reported_guilty:
            return
        if not self.strategy.report_fraud(self, {accused}):
            return
        self.reported_guilty.add(accused)
        newly_burned = self.ctx.collateral.burn(accused, reason=f"pof-round-{proof.round_number}")
        self.trace(
            "burn",
            accused=accused,
            round=proof.round_number,
            phase=proof.phase,
            fresh=newly_burned,
        )

    def _on_late_payload(self, sender: int, payload: Any) -> None:
        """Late (past-round or post-halt) messages still matter.

        Reliable channels deliver everything eventually (possibly after
        the receiver moved on), and two things must survive the round
        boundary: fraud evidence (statements feed the detector, proofs
        burn collateral) and finalisation evidence (a reveal quorum or
        final majority for a round we timed out of lets us adopt the
        block retroactively — the catch-up path of Theorem 5's proof).
        """
        statement = getattr(payload, "statement", None)
        if isinstance(statement, SignedStatement):
            self._absorb_statement(statement)
        for attr in ("votes", "commits"):
            justification = getattr(payload, attr, None)
            if justification:
                self._absorb_justification(justification)
        if isinstance(payload, ExposeMessage):
            for proof in payload.proofs:
                if proof.verify(self.ctx.registry):
                    self._punish(proof)
            return
        if isinstance(payload, RevealMessage):
            self._absorb_late_reveal(sender, payload)
        elif isinstance(payload, FinalMessage):
            self._absorb_late_final(sender, payload)
        elif (
            isinstance(payload, ViewChangeMessage)
            and self.ctx.network.unreliable
            and payload.statement.phase == Phase.VIEW_CHANGE.value
            and payload.statement.signer == sender
            and verify_statement(self.ctx.registry, payload.statement)
        ):
            # A *verified* past-round ViewChange on a faulty network
            # means the sender is stuck behind lost traffic: retransmit
            # everything from that round to our head so it can catch
            # up in one cycle.  (Unverifiable requests must not
            # solicit block-carrying replies.)
            self._offer_catch_up_range(sender, payload.round_number)

    def _offer_catch_up(self, requester: int, round_number: int) -> None:
        """Resend our own record of a decided/aborted round to a laggard.

        Only ever active on unreliable networks (loss, duplication,
        crash schedules): on reliable channels every message arrives
        exactly once and retransmission would perturb byte-identical
        replays.  For a finalized round we resend our Final with the
        block body attached; for a view-changed round we resend our
        CommitView certificate.  Both rebuild deterministic signatures
        over values we already signed, so no new equivocation can
        arise; both go point-to-point through the strategy-mediated
        :meth:`BaseReplica.send_direct` (deviators may withhold).
        """
        if requester == self.player_id:
            return
        state = self._rounds.get(round_number)
        if state is None:
            return
        if state.finalized and state.tentative_digest is not None:
            digest = state.tentative_digest
            block = state.blocks.get(digest)
            if block is None:
                return
            statement = make_statement(self.keypair, Phase.FINAL.value, round_number, digest)
            final = FinalMessage(statement=statement, block=block)
            self.send_direct(
                requester, final, "final", final.size_bytes, round_number,
                phase=Phase.FINAL.value,
            )
        elif state.commit_view_message is not None:
            message = state.commit_view_message
            self.send_direct(
                requester, message, "commit-view", message.size_bytes, round_number,
                phase=Phase.COMMIT_VIEW.value,
            )

    def _absorb_late_reveal(self, sender: int, message: RevealMessage) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        if state.finalized:
            return
        statement = message.statement
        if not self._valid_statement(statement, sender, Phase.REVEAL.value):
            return
        digest = statement.digest
        if not self._justification_valid(message.commits, Phase.COMMIT.value, round_number, digest):
            return
        if message.block is not None and message.block.digest == digest:
            state.blocks.setdefault(digest, message.block)
        state.reveal_senders.setdefault(digest, set()).add(sender)
        guilty = self.detector.guilty_in_round(round_number)
        if len(guilty) > self.config.t0:
            return
        if len(state.reveal_senders[digest]) >= self.config.quorum_size:
            self._retro_finalize(state, digest)

    def _absorb_late_final(self, sender: int, message: FinalMessage) -> None:
        state = self.round_state(message.round_number)
        if state.finalized:
            return
        statement = message.statement
        if not self._valid_statement(statement, sender, Phase.FINAL.value):
            return
        digest = statement.digest
        if message.block is not None and message.block.digest == digest:
            state.blocks.setdefault(digest, message.block)
        state.finals.setdefault(digest, {})[sender] = statement
        if len(state.finals[digest]) > self.config.n / 2:
            self._retro_finalize(state, digest)

    def _retro_finalize(self, state: RoundState, digest: str) -> None:
        """Adopt a block we missed, if it links onto our chain head."""
        block = state.blocks.get(digest)
        if block is None or block.parent_digest != self.chain.head().digest:
            return
        self.trace("retro_final", round=state.number, digest=digest[:12])
        self._finalize(state, digest, broadcast_final=False)

    # ------------------------------------------------------------------
    # Vote phase
    # ------------------------------------------------------------------
    def _on_propose(self, sender: int, message: ProposeMessage) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        statement = message.statement
        if sender != self.leader_of_round(round_number):
            return
        if not self._valid_statement(statement, sender, Phase.PROPOSE.value):
            return
        if message.block.digest != statement.digest:
            return
        if message.block.round_number != round_number:
            return
        digest = statement.digest
        self._absorb_statement(statement)
        if digest in state.proposals:
            return
        state.proposals[digest] = message
        state.blocks[digest] = message.block
        if len(state.proposals) >= 2:
            self.trace("leader_equivocation", round=round_number, leader=sender)
            if self.strategy.report_fraud(self, {sender}):
                self._initiate_view_change(round_number, Phase.PROPOSE.value)
        if state.view_committed:
            return
        may_vote = not state.voted_digests or self.strategy.double_votes()
        if digest in state.voted_digests or not may_vote:
            return
        if message.block.parent_digest != self.expected_parent_digest(round_number):
            self.trace("reject_parent", round=round_number, digest=digest[:12])
            return
        state.voted_digests.add(digest)
        vote_statement = make_statement(self.keypair, Phase.VOTE.value, round_number, digest)
        vote = VoteMessage(statement=vote_statement, propose_signature=statement.signature)
        alternative = None
        if len(state.proposals) == 1 and self.strategy.double_votes():
            alternative = self._fabricated_vote_factory(round_number, digest, statement)
        self.broadcast(
            vote,
            message_type="vote",
            size_bytes=vote.size_bytes,
            round_number=round_number,
            alternative_factory=alternative,
            phase=Phase.VOTE.value,
        )

    def _fabricated_vote_factory(
        self,
        round_number: int,
        digest: str,
        propose_statement: SignedStatement,
    ):
        """A π_fork voter facing a single honest proposal fabricates a
        conflicting vote for a nonexistent digest (Lemma 4's analysis:
        such a vote can never gather a quorum, but it is a conflicting
        signature and will be captured)."""

        def build() -> VoteMessage:
            from repro.crypto.hashing import hash_value

            fake_digest = hash_value(("fabricated", round_number, digest, self.player_id))
            statement = make_statement(
                self.keypair, Phase.VOTE.value, round_number, fake_digest
            )
            return VoteMessage(statement=statement, propose_signature=propose_statement.signature)

        return build

    # ------------------------------------------------------------------
    # Commit phase
    # ------------------------------------------------------------------
    def _on_vote(self, sender: int, message: VoteMessage) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        statement = message.statement
        if not self._valid_statement(statement, sender, Phase.VOTE.value):
            return
        self._absorb_statement(statement)
        digest = statement.digest
        state.votes.setdefault(digest, {})[sender] = statement
        if state.view_committed:
            return
        if len(state.votes[digest]) < self.config.quorum_size:
            return
        # Vote quorum = this slot's proposal is acknowledged: the
        # pipeline may open the next slot on top of it.
        acked_block = state.blocks.get(digest)
        if acked_block is not None:
            self._note_proposal_acked(round_number, acked_block)
        may_commit = not state.committed_digests or self.strategy.double_votes()
        if digest in state.committed_digests or not may_commit:
            return
        state.committed_digests.add(digest)
        commit_statement = make_statement(self.keypair, Phase.COMMIT.value, round_number, digest)
        commit = CommitMessage(
            statement=commit_statement,
            votes=build_justification(
                state.votes[digest].values(), self.ctx.aggregate_certs
            ),
            block=state.blocks.get(digest),
        )
        self.trace("commit", round=round_number, digest=digest[:12])
        self.broadcast(
            commit,
            message_type="commit",
            size_bytes=commit.size_bytes,
            round_number=round_number,
            phase=Phase.COMMIT.value,
        )

    # ------------------------------------------------------------------
    # Reveal phase (tentative consensus)
    # ------------------------------------------------------------------
    def _on_commit(self, sender: int, message: CommitMessage) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        statement = message.statement
        if not self._valid_statement(statement, sender, Phase.COMMIT.value):
            return
        digest = statement.digest
        if not self._justification_valid(message.votes, Phase.VOTE.value, round_number, digest):
            return
        self._absorb_statement(statement)
        self._absorb_justification(message.votes)
        if message.block is not None and message.block.digest == digest:
            state.blocks.setdefault(digest, message.block)
        state.commits.setdefault(digest, {})[sender] = statement
        if state.view_committed:
            return
        if len(state.commits[digest]) < self.config.quorum_size:
            return
        may_reveal = not state.revealed_digests or self.strategy.double_votes()
        if digest in state.revealed_digests or not may_reveal:
            return
        state.revealed_digests.add(digest)
        self._reach_tentative(state, digest)
        reveal_statement = make_statement(self.keypair, Phase.REVEAL.value, round_number, digest)
        reveal = RevealMessage(
            statement=reveal_statement,
            commits=build_justification(
                state.commits[digest].values(), self.ctx.aggregate_certs
            ),
            block=state.blocks.get(digest),
        )
        self.broadcast(
            reveal,
            message_type="reveal",
            size_bytes=reveal.size_bytes,
            round_number=round_number,
            phase=Phase.REVEAL.value,
        )

    def _justification_valid(
        self,
        justification: Justification,
        phase: str,
        round_number: int,
        digest: str,
    ) -> bool:
        """A quorum certificate must hold ≥ τ valid, distinct-signer
        signatures on the right (phase, round, digest) — as a statement
        set or as one aggregate certificate."""
        return verify_justification(
            self.ctx.registry,
            justification,
            phase=phase,
            round_number=round_number,
            digest=digest,
            minimum=self.config.quorum_size,
        )

    def _reach_tentative(self, state: RoundState, digest: str) -> None:
        if state.tentative_digest is not None:
            return
        block = state.blocks.get(digest)
        if block is None or block.parent_digest != self.chain.head().digest:
            return
        self.chain.append_tentative(block)
        state.tentative_digest = digest
        self.trace("tentative", round=state.number, digest=digest[:12])

    # ------------------------------------------------------------------
    # Final / Expose
    # ------------------------------------------------------------------
    def _on_reveal(self, sender: int, message: RevealMessage) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        statement = message.statement
        if not self._valid_statement(statement, sender, Phase.REVEAL.value):
            return
        digest = statement.digest
        if not self._justification_valid(message.commits, Phase.COMMIT.value, round_number, digest):
            return
        self._absorb_statement(statement)
        self._absorb_justification(message.commits)
        if message.block is not None and message.block.digest == digest:
            state.blocks.setdefault(digest, message.block)
        state.reveal_senders.setdefault(digest, set()).add(sender)
        self._reveal_phase_decision(state, digest)

    def _reveal_phase_decision(self, state: RoundState, digest: str) -> None:
        """Figure 1 lines 31-37: Expose, Final, or wait."""
        if state.finalized or state.view_committed:
            return
        guilty = self.detector.guilty_in_round(state.number)
        if len(guilty) > self.config.t0:
            self._expose(state)
            return
        if len(state.reveal_senders.get(digest, ())) >= self.config.quorum_size:
            self._finalize(state, digest, broadcast_final=True)

    def _expose(self, state: RoundState) -> None:
        if state.exposed:
            return
        state.exposed = True
        proofs = self.detector.proofs_for_round(state.number)
        self.trace("expose", round=state.number, accused=sorted(p.accused for p in proofs))
        if self.strategy.report_fraud(self, {p.accused for p in proofs}):
            statement = make_statement(self.keypair, Phase.EXPOSE.value, state.number, "")
            expose = ExposeMessage(round_number=state.number, proofs=proofs, statement=statement)
            self.broadcast(
                expose,
                message_type="expose",
                size_bytes=expose.size_bytes,
                round_number=state.number,
                phase=Phase.EXPOSE.value,
            )
        self._abort_round(state)

    def _abort_round(self, state: RoundState) -> None:
        """Roll back this round's tentative block and move on."""
        if state.tentative_digest is not None and not state.finalized:
            dropped = self.chain.rollback_tentative()
            if dropped:
                self.trace("rollback", round=state.number, count=len(dropped))
            state.tentative_digest = None
            self._sync_tentative_after_rollback()
        self._advance(state.number)

    def _sync_tentative_after_rollback(self) -> None:
        """Clear round states whose tentative block left the chain.

        ``rollback_tentative`` drops the *whole* tentative suffix; with
        a pipeline window open that can include later rounds'
        speculative blocks, whose states must not keep pointing at
        off-chain digests (their finalize paths re-append when their
        evidence arrives).
        """
        for other in self._rounds.values():
            if (
                other.tentative_digest is not None
                and not other.finalized
                and self.chain.height_of(other.tentative_digest) is None
            ):
                other.tentative_digest = None

    def _finalize(self, state: RoundState, digest: str, broadcast_final: bool) -> None:
        if state.finalized:
            return
        block = state.blocks.get(digest)
        if block is None:
            self.trace("finalize_missing_block", round=state.number, digest=digest[:12])
            return
        if state.tentative_digest != digest:
            if state.tentative_digest is not None:
                self.chain.rollback_tentative()
                state.tentative_digest = None
                self._sync_tentative_after_rollback()
            if block.parent_digest != self.chain.head().digest:
                self.trace("finalize_unlinked", round=state.number, digest=digest[:12])
                if state.number > self.current_round:
                    # Out-of-order finality inside the pipeline window:
                    # park it until the predecessor slot lands.
                    self._defer_finalize(
                        state.number,
                        lambda: self._finalize(state, digest, broadcast_final),
                    )
                return
            self.chain.append_tentative(block)
            state.tentative_digest = digest
        self._land_final(state, block)
        if broadcast_final and not state.final_sent:
            state.final_sent = True
            statement = make_statement(self.keypair, Phase.FINAL.value, state.number, digest)
            final = FinalMessage(statement=statement)
            self.broadcast(
                final,
                message_type="final",
                size_bytes=final.size_bytes,
                round_number=state.number,
                phase=Phase.FINAL.value,
            )
        self._advance(state.number)
        self._flush_deferred_finalizes()

    def _on_final(self, sender: int, message: FinalMessage) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        statement = message.statement
        if not self._valid_statement(statement, sender, Phase.FINAL.value):
            return
        digest = statement.digest
        if message.block is not None and message.block.digest == digest:
            state.blocks.setdefault(digest, message.block)
        state.finals.setdefault(digest, {})[sender] = statement
        if state.finalized:
            return
        if len(state.finals[digest]) > self.config.n / 2:
            self._finalize(state, digest, broadcast_final=True)

    def _on_expose(self, sender: int, message: ExposeMessage) -> None:
        state = self.round_state(message.round_number)
        if not self._valid_statement(message.statement, sender, Phase.EXPOSE.value):
            return
        valid_accused = set()
        for proof in message.proofs:
            if proof.verify(self.ctx.registry):
                valid_accused.add(proof.accused)
                self._punish(proof)
        if len(valid_accused) > self.config.t0 and not state.finalized:
            self.trace("expose_accepted", round=state.number, accused=sorted(valid_accused))
            self._abort_round(state)

    # ------------------------------------------------------------------
    # View change (Section 5.2)
    # ------------------------------------------------------------------
    def _on_round_timeout(self, round_number: int) -> None:
        """Stalled frontier: initiate the Section 5.2 view change."""
        state = self._view_change_due(round_number)
        if state is not None:
            self._initiate_view_change(round_number, self._stalled_phase(state))
            self._arm_round_timer(round_number)

    def _on_timeout(self, round_number: int) -> None:
        # BaseReplica's timer hook; the reaction itself keeps the name
        # the host-time benchmark (perf/layers.py) wraps on this class.
        self._on_round_timeout(round_number)

    def _retransmit_round(self, state: RoundState) -> None:
        """Re-broadcast this round's already-emitted messages.

        Every rebuild signs the same (phase, round, digest) tuples we
        signed the first time — signatures are deterministic, so no
        retransmission can ever create a double-sign — and receivers
        key state by (sender, digest), so duplicates are absorbed.
        Only ever called on unreliable networks.
        """
        round_number = state.number
        if state.finalized or state.view_committed:
            return
        if state.sent_proposal is not None:
            # Resend the *stored* proposal verbatim: rebuilding could
            # pick up a changed chain head or mempool and produce a
            # different block — an honest self-inflicted double-sign.
            self.broadcast(
                state.sent_proposal,
                message_type="propose",
                size_bytes=state.sent_proposal.size_bytes,
                round_number=round_number,
                phase=Phase.PROPOSE.value,
            )
        for digest in sorted(state.voted_digests):
            proposal = state.proposals.get(digest)
            if proposal is None:
                continue
            statement = make_statement(self.keypair, Phase.VOTE.value, round_number, digest)
            vote = VoteMessage(
                statement=statement, propose_signature=proposal.statement.signature
            )
            self.broadcast(
                vote,
                message_type="vote",
                size_bytes=vote.size_bytes,
                round_number=round_number,
                phase=Phase.VOTE.value,
            )
        for digest in sorted(state.committed_digests):
            votes = state.votes.get(digest, {})
            if len(votes) < self.config.quorum_size:
                continue
            statement = make_statement(self.keypair, Phase.COMMIT.value, round_number, digest)
            commit = CommitMessage(
                statement=statement,
                votes=build_justification(votes.values(), self.ctx.aggregate_certs),
                block=state.blocks.get(digest),
            )
            self.broadcast(
                commit,
                message_type="commit",
                size_bytes=commit.size_bytes,
                round_number=round_number,
                phase=Phase.COMMIT.value,
            )
        for digest in sorted(state.revealed_digests):
            commits = state.commits.get(digest, {})
            if len(commits) < self.config.quorum_size:
                continue
            statement = make_statement(self.keypair, Phase.REVEAL.value, round_number, digest)
            reveal = RevealMessage(
                statement=statement,
                commits=build_justification(commits.values(), self.ctx.aggregate_certs),
                block=state.blocks.get(digest),
            )
            self.broadcast(
                reveal,
                message_type="reveal",
                size_bytes=reveal.size_bytes,
                round_number=round_number,
                phase=Phase.REVEAL.value,
            )

    def _stalled_phase(self, state: RoundState) -> str:
        if state.revealed_digests:
            return Phase.REVEAL.value
        if state.committed_digests:
            return Phase.COMMIT.value
        if state.proposals:
            return Phase.VOTE.value
        return Phase.PROPOSE.value

    def _round_evidence(self, state: RoundState) -> FrozenSet[SignedStatement]:
        """All value signatures this replica holds for the round."""
        held: Set[SignedStatement] = set()
        for message in state.proposals.values():
            held.add(message.statement)
        for by_signer in state.votes.values():
            held.update(by_signer.values())
        for by_signer in state.commits.values():
            held.update(by_signer.values())
        return frozenset(held)

    def _initiate_view_change(self, round_number: int, stalled_phase: str) -> None:
        state = self.round_state(round_number)
        if state.finalized:
            return
        # On a reliable network one ViewChange suffices (channels are
        # exactly-once).  Under link faults the first copy may be lost,
        # so every repeat timeout retransmits — the paper's partial-
        # synchrony liveness argument assumes exactly this resend loop.
        if state.view_change_sent and not self.ctx.network.unreliable:
            return
        state.view_change_sent = True
        statement = make_statement(
            self.keypair, Phase.VIEW_CHANGE.value, round_number, stalled_phase
        )
        if self.config.view_change_evidence:
            evidence = frozenset(
                self.strategy.filter_evidence(self, self._round_evidence(state))
            )
        else:
            evidence = frozenset()
        message = ViewChangeMessage(statement=statement, evidence=evidence)
        self.trace("view_change_sent", round=round_number, phase=stalled_phase)
        self.broadcast(
            message,
            message_type="view-change",
            size_bytes=message.size_bytes,
            round_number=round_number,
            phase=Phase.VIEW_CHANGE.value,
        )

    def _view_change_quorum(self) -> int:
        """View change always uses n − t0, independent of τ overrides."""
        return self.config.n - self.config.t0

    def _on_view_change(self, sender: int, message: ViewChangeMessage) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        statement = message.statement
        if statement.phase != Phase.VIEW_CHANGE.value or statement.signer != sender:
            return
        if not verify_statement(self.ctx.registry, statement):
            return
        self._absorb_justification(message.evidence)
        state.view_changes[sender] = statement
        if state.commit_view_sent or state.finalized:
            return
        if len(state.view_changes) >= self._view_change_quorum():
            self._send_commit_view(state, frozenset(state.view_changes.values()))

    def _send_commit_view(self, state: RoundState, justification: FrozenSet[SignedStatement]) -> None:
        if state.commit_view_sent:
            return
        state.commit_view_sent = True
        state.view_committed = True
        statement = make_statement(self.keypair, Phase.COMMIT_VIEW.value, state.number, "")
        message = CommitViewMessage(statement=statement, view_changes=justification)
        state.commit_view_message = message
        self.trace("commit_view_sent", round=state.number)
        self.broadcast(
            message,
            message_type="commit-view",
            size_bytes=message.size_bytes,
            round_number=state.number,
            phase=Phase.COMMIT_VIEW.value,
        )

    def _on_commit_view(self, sender: int, message: CommitViewMessage) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        statement = message.statement
        if statement.phase != Phase.COMMIT_VIEW.value or statement.signer != sender:
            return
        if not verify_statement(self.ctx.registry, statement):
            return
        signers = set()
        for vc_statement in message.view_changes:
            if vc_statement.phase != Phase.VIEW_CHANGE.value:
                return
            if vc_statement.round_number != round_number:
                return
            if not verify_statement(self.ctx.registry, vc_statement):
                return
            signers.add(vc_statement.signer)
        if len(signers) < self._view_change_quorum():
            return
        state.commit_views[sender] = message
        if not state.commit_view_sent and not state.finalized:
            self._send_commit_view(state, message.view_changes)
        if len(state.commit_views) >= self._view_change_quorum() and not state.finalized:
            self.trace("view_change_committed", round=round_number)
            self._abort_round(state)


def prft_factory(player: Player, config: ProtocolConfig, ctx: ProtocolContext) -> PRFTReplica:
    """Replica factory (see :data:`repro.experiments.registry.PROTOCOL_FACTORIES`)."""
    return PRFTReplica(player, config, ctx)
