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
from typing import Any, Dict, FrozenSet, Optional, Set

from repro.agents.player import Player
from repro.core.messages import (
    CommitMessage,
    CommitViewMessage,
    ExposeMessage,
    FinalMessage,
    Phase,
    ProposeMessage,
    RevealMessage,
    SignedStatement,
    ViewChangeMessage,
    VoteMessage,
    verify_quorum,
)
from repro.core.pof import FraudProof
from repro.crypto.hashing import hash_value
from repro.ledger.block import Block  # noqa: F401 — named by RoundState's inherited fields
from repro.protocols.base import AccountableMixin, ProtocolConfig, ProtocolContext
from repro.protocols.phases import PhaseRow, ViewChangeReplica, ViewChangeRound

PROPOSE, VOTE, COMMIT, REVEAL, FINAL = (
    Phase.PROPOSE.value, Phase.VOTE.value, Phase.COMMIT.value, Phase.REVEAL.value,
    Phase.FINAL.value,
)


@dataclass
class RoundState(ViewChangeRound):
    """What a pRFT replica tracks for one round beyond the quorum tally."""

    proposals: Dict[str, ProposeMessage] = field(default_factory=dict)
    final_sent: bool = False
    tentative_digest: Optional[str] = None
    exposed: bool = False
    commit_view_sent: bool = False
    commit_view_message: Optional[CommitViewMessage] = None
    commit_views: Dict[int, CommitViewMessage] = field(default_factory=dict)


class PRFTReplica(AccountableMixin, ViewChangeReplica):
    """One pRFT player: 4-phase rounds, PoF accountability, view change."""

    ROUND_STATE = RoundState

    PROPOSE, VIEW_CHANGE = PROPOSE, Phase.VIEW_CHANGE.value
    Proposal, ViewChange = ProposeMessage, ViewChangeMessage
    PHASES = (
        PhaseRow(VOTE, VoteMessage, then=COMMIT),
        PhaseRow(COMMIT, CommitMessage, then=REVEAL, carries=VOTE),
        # Nothing quotes a reveal, so only its senders are counted.
        PhaseRow(REVEAL, RevealMessage, then="_reveal_phase_decision", carries=COMMIT,
                 retains=False),
    )
    OWN_HANDLERS = {
        FinalMessage: "_on_final",
        ExposeMessage: "_on_expose",
        CommitViewMessage: "_on_commit_view",
    }
    MARKER_PAYLOAD = "equivocation marker"
    BURN_REASON = "pof"
    FRAUD_PHASES = frozenset({PROPOSE, VOTE, COMMIT, REVEAL})

    def handle_payload(self, sender: int, payload: Any) -> None:
        self._dispatch(sender, payload)

    def _trace_slot(self, kind: str, **detail: Any) -> None:
        self.trace(kind, **detail)

    def _burn_detail(self, proof: FraudProof, fresh: bool) -> Dict[str, Any]:
        return {"phase": proof.phase, "fresh": fresh}

    # ------------------------------------------------------------------
    # What the phase table cannot say
    # ------------------------------------------------------------------
    def _signing(self, state: RoundState, phase: str, digest: str) -> None:
        """Signing a Reveal is reaching tentative consensus on the block;
        a proposal and a commit are narrated (trace kinds ``propose`` and
        ``commit``, the phase names)."""
        if phase == REVEAL:
            self._reach_tentative(state, digest)
        else:
            self.trace(phase, round=state.number, digest=digest[:12])

    def _build(self, state: RoundState, row: PhaseRow, digest: str) -> Optional[Any]:
        """A Vote quotes the leader's signature on the proposal it answers."""
        if row.phase != VOTE:
            return super()._build(state, row, digest)
        proposal = state.proposals.get(digest)
        if proposal is None:
            return None
        return VoteMessage(
            statement=self._sign(VOTE, state.number, digest),
            propose_signature=proposal.statement.signature,
        )

    def _tallied(self, state: RoundState, row: PhaseRow) -> bool:
        """Figure 1 lines 31-32: a Reveal that leaves more than t0 proven
        double-signers in an unfinalized round aborts it by Expose,
        whether or not the reveal quorum has formed."""
        if row.phase != REVEAL or state.finalized:
            return True
        if len(self.detector.guilty_in_round(state.number)) <= self.config.t0:
            return True
        self._expose(state)
        return False

    def _reveal_phase_decision(self, state: RoundState, digest: str) -> None:
        """Figure 1 lines 33-37: a reveal quorum with at most t0 proven
        double-signers finalises the block."""
        self._finalize(state, digest, broadcast_final=True)

    def _on_late_payload(self, sender: int, payload: Any) -> None:
        """Late (past-round or post-halt) messages still matter.

        Reliable channels deliver everything eventually (possibly after
        the receiver moved on), and two things must survive the round
        boundary: fraud evidence (statements feed the detector, proofs
        burn collateral) and finalisation evidence (a reveal quorum or
        final majority for a round we timed out of lets us adopt the
        block retroactively — the catch-up path of Theorem 5's proof).
        """
        self._absorb_late(payload)
        if isinstance(payload, ExposeMessage):
            for proof in sorted(payload.proofs, key=lambda proof: proof.accused):
                if proof.verify(self.ctx.registry):
                    self._punish(proof)
            return
        if isinstance(payload, RevealMessage):
            self._absorb_late_reveal(sender, payload)
        elif isinstance(payload, FinalMessage):
            self._absorb_late_final(sender, payload)
        else:
            # A verified past-round ViewChange on a faulty network gets
            # everything from that round to our head retransmitted.
            super()._on_late_payload(sender, payload)

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
            statement = self._sign(FINAL, round_number, digest)
            self.send_direct(requester, FinalMessage(statement=statement, block=block))
        elif state.commit_view_message is not None:
            self.send_direct(requester, state.commit_view_message)

    def _absorb_late_reveal(self, sender: int, message: RevealMessage) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        if state.finalized:
            return
        statement = message.statement
        if not self._valid(statement, sender, REVEAL):
            return
        digest = statement.digest
        if not self._justified(message, COMMIT):
            return
        if message.block is not None and message.block.digest == digest:
            state.blocks.setdefault(digest, message.block)
        revealers = self._tally(state, REVEAL, digest, sender, None)
        guilty = self.detector.guilty_in_round(round_number)
        if len(guilty) > self.config.t0:
            return
        if len(revealers) >= self.config.quorum_size:
            self._retro_finalize(state, digest)

    def _absorb_late_final(self, sender: int, message: FinalMessage) -> None:
        state = self.round_state(message.round_number)
        if state.finalized:
            return
        statement = message.statement
        if self._tally_final(state, sender, message):
            self._retro_finalize(state, statement.digest)

    def _retro_finalize(self, state: RoundState, digest: str) -> None:
        """Adopt a block we missed, if it links onto our chain head."""
        block = state.blocks.get(digest)
        if block is None or block.parent_digest != self.chain.head().digest:
            return
        self.trace("retro_final", round=state.number, digest=digest[:12])
        self._finalize(state, digest, broadcast_final=False)

    # ------------------------------------------------------------------
    # Propose → Vote
    # ------------------------------------------------------------------
    def _on_proposal(self, sender: int, message: ProposeMessage) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        statement = message.statement
        if sender != self.leader_of_round(round_number):
            return
        if not self._valid(statement, sender, PROPOSE):
            return
        if message.block.digest != statement.digest:
            return
        if message.block.round_number != round_number:
            return
        digest = statement.digest
        self._absorb(statement)
        if digest in state.proposals:
            return
        state.proposals[digest] = message
        state.blocks[digest] = message.block
        if len(state.proposals) >= 2:
            self.trace("leader_equivocation", round=round_number, leader=sender)
            if self.strategy.report_fraud(self, {sender}):
                self._initiate_view_change(round_number, PROPOSE)
        if state.view_committed or not self._may_sign(state, VOTE, digest):
            return
        if message.block.parent_digest != self.expected_parent_digest(round_number):
            self.trace("reject_parent", round=round_number, digest=digest[:12])
            return
        state.signed.setdefault(VOTE, set()).add(digest)
        alternative = None
        if len(state.proposals) == 1 and self.strategy.double_votes():
            alternative = self._fabricated_vote_factory(round_number, digest, statement)
        self.broadcast(self._build(state, self.PHASES[0], digest), alternative_factory=alternative)

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
            fake_digest = hash_value(("fabricated", round_number, digest, self.player_id))
            return VoteMessage(
                statement=self._sign(VOTE, round_number, fake_digest),
                propose_signature=propose_statement.signature,
            )

        return build

    # ------------------------------------------------------------------
    # Tentative consensus, Final, Expose
    # ------------------------------------------------------------------
    def _reach_tentative(self, state: RoundState, digest: str) -> None:
        if state.tentative_digest is not None:
            return
        block = state.blocks.get(digest)
        if block is None or block.parent_digest != self.chain.head().digest:
            return
        self.chain.append_tentative(block)
        state.tentative_digest = digest
        self.trace("tentative", round=state.number, digest=digest[:12])

    def _expose(self, state: RoundState) -> None:
        if state.exposed:
            return
        state.exposed = True
        proofs = self.detector.proofs_for_round(state.number)
        self.trace("expose", round=state.number, accused=sorted(p.accused for p in proofs))
        if self.strategy.report_fraud(self, {p.accused for p in proofs}):
            statement = self._sign(Phase.EXPOSE.value, state.number, "")
            self.broadcast(ExposeMessage(statement=statement, proofs=proofs))
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
            self.broadcast(FinalMessage(statement=self._sign(FINAL, state.number, digest)))
        self._advance(state.number)
        self._flush_deferred_finalizes()

    def _tally_final(self, state: RoundState, sender: int, message: FinalMessage) -> bool:
        """Count a validly signed Final (adopting the block a catch-up
        copy attaches); True once more than half of all players have
        sent one for its digest."""
        statement = message.statement
        if not self._valid(statement, sender, FINAL):
            return False
        digest = statement.digest
        if message.block is not None and message.block.digest == digest:
            state.blocks.setdefault(digest, message.block)
        finals = self._tally(state, FINAL, digest, sender, statement)
        return len(finals) > self.config.n / 2

    def _on_final(self, sender: int, message: FinalMessage) -> None:
        state = self.round_state(message.round_number)
        if self._tally_final(state, sender, message):
            self._finalize(state, message.digest, broadcast_final=True)

    def _on_expose(self, sender: int, message: ExposeMessage) -> None:
        state = self.round_state(message.round_number)
        if not self._valid(message.statement, sender, Phase.EXPOSE.value):
            return
        # Every valid proof burns its culprit, but only double-signs of
        # the round the sender signed for count towards aborting it: the
        # round is bound by the signature, and old fraud is no reason to
        # abandon a later round.
        valid_accused = set()
        for proof in sorted(message.proofs, key=lambda proof: proof.accused):
            if proof.verify(self.ctx.registry):
                if proof.round_number == message.round_number:
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

    def _stalled_phase(self, state: RoundState) -> str:
        if state.signed.get(REVEAL):
            return REVEAL
        if state.signed.get(COMMIT):
            return COMMIT
        if state.proposals:
            return VOTE
        return PROPOSE

    def _round_evidence(self, state: RoundState) -> FrozenSet[SignedStatement]:
        """All value signatures this replica holds for the round."""
        held: Set[SignedStatement] = {message.statement for message in state.proposals.values()}
        held.update(self._held_statements(state))
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
        statement = self._sign(self.VIEW_CHANGE, round_number, stalled_phase)
        if self.config.view_change_evidence:
            evidence = frozenset(
                self.strategy.filter_evidence(self, self._round_evidence(state))
            )
        else:
            evidence = frozenset()
        message = ViewChangeMessage(statement=statement, evidence=evidence)
        self.trace("view_change_sent", round=round_number, phase=stalled_phase)
        self.broadcast(message)

    def _view_change_quorum(self) -> int:
        """View change always uses n − t0, independent of τ overrides."""
        return self.config.n - self.config.t0

    def _on_view_change(self, sender: int, message: ViewChangeMessage) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        statement = message.statement
        if not self._valid(statement, sender, self.VIEW_CHANGE):
            return
        self._absorb_justification(message.evidence)
        votes = self._keep_view_change(state, sender, statement)
        if state.commit_view_sent or state.finalized:
            return
        if len(votes) >= self._view_change_quorum():
            self._send_commit_view(state, frozenset(votes.values()))

    def _send_commit_view(self, state: RoundState, justification: FrozenSet[SignedStatement]) -> None:
        if state.commit_view_sent:
            return
        state.commit_view_sent = True
        state.view_committed = True
        statement = self._sign(Phase.COMMIT_VIEW.value, state.number, "")
        message = CommitViewMessage(statement=statement, view_changes=justification)
        state.commit_view_message = message
        self.trace("commit_view_sent", round=state.number)
        self.broadcast(message)

    def _on_commit_view(self, sender: int, message: CommitViewMessage) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        if not self._valid(message.statement, sender, Phase.COMMIT_VIEW.value):
            return
        if not verify_quorum(
            self.ctx.registry,
            message.view_changes,
            phase=self.VIEW_CHANGE,
            round_number=round_number,
            minimum=self._view_change_quorum(),
        ):
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
