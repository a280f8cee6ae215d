"""HotStuff-style linear baseline (Yin et al. 2019), simulation-grade.

The Figure-3 comparison point with linear message complexity and
O(κ·n^3) message size (one factor of n below the quadratic,
justification-carrying protocols): communication is leader-relayed —
replicas vote *to the leader*, who aggregates a constant-size quorum
certificate (modelling a threshold signature) and broadcasts it.
Three chained vote phases (prepare → precommit → commit) then a
decide: an honest round is 7n messages, n each of the proposal, the
three votes, the two relayed certificates and the decide (49 at n = 7,
112 at n = 16, measured).  A round whose leader has crashed adds one
``hs-newview`` catch-up broadcast from each of the n − 1 survivors,
n(n − 1) messages, and a recovering replica adds n per round it asks
about.  No accountability: the QC is aggregated, so individual
equivocations are not attributable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.agents.player import Player
from repro.core.messages import (
    KAPPA,
    SignedStatement,
    WireMessage,
    make_statement,
    verify_statement,
)
from repro.crypto.aggregate import AggregateQC, aggregate_statements
from repro.protocols.base import BaseReplica, ProtocolConfig, ProtocolContext, SlotState

HS_PROPOSE = "hs-propose"
HS_PHASES = ("hs-prepare", "hs-precommit", "hs-commit")
HS_DECIDE = "hs-decide"
HS_NEWVIEW = "hs-newview"


@dataclass(frozen=True)
class QuorumCertificate:
    """An aggregated (threshold-signature) certificate: O(κ) size.

    ``attestation`` models the aggregate signature's verifiability
    inside the simulation's crypto: the aggregating leader signs
    (phase + "-qc", round, digest), so any replica can check that a
    *forwarded* certificate really originated with the round's leader
    — a non-leader cannot fabricate one.  (A byzantine leader could
    always mint a bogus certificate for its own round; that exposure
    predates forwarding and is unchanged.)  The attestation stands in
    for the aggregate itself, so the κ size model is unchanged.
    """

    phase: str
    round_number: int
    digest: str
    signer_count: int
    attestation: Optional[SignedStatement] = None
    # Under the aggregate_certs axis the certificate carries the real
    # aggregated signer evidence (tag + bitmap) instead of a trusted
    # signer_count: receivers then verify the quorum cryptographically.
    aggregate: Optional[AggregateQC] = None

    @property
    def size_bytes(self) -> int:
        if self.aggregate is not None:
            return self.aggregate.size_bytes
        return KAPPA


@dataclass(frozen=True)
class HsProposal(WireMessage):
    block: Any
    statement: SignedStatement


@dataclass(frozen=True)
class HsVote(WireMessage):
    statement: SignedStatement


@dataclass(frozen=True)
class HsCertificateMessage(WireMessage):
    """A QC broadcast.  ``block`` is normally None (QCs are O(κ));
    catch-up retransmissions on faulty links attach the block body."""

    certificate: QuorumCertificate
    block: Optional[Any] = None

    @property
    def statement(self) -> QuorumCertificate:
        """The certificate pins (phase, round, digest) as a statement does."""
        return self.certificate

    @property
    def wire_type(self) -> str:
        phase = self.certificate.phase
        return HS_DECIDE if phase == HS_PHASES[-1] else phase + "-qc"


@dataclass(frozen=True)
class HsNewView(WireMessage):
    """A catch-up request: "I timed out of round r without deciding"."""

    SIGNS_VALUE = False

    statement: SignedStatement


@dataclass
class _HsRound(SlotState):
    """HotStuff's slot: the shared tally holds the votes its leader
    collected (signer ids; the statements too in aggregate mode, which
    needs the vote tags to aggregate), ``signed`` the one digest this
    replica voted per phase."""

    sent_proposal: Optional[HsProposal] = None
    certified_phases: Set[str] = field(default_factory=set)
    decide_certificate: Optional[QuorumCertificate] = None


class HotStuffReplica(BaseReplica):
    """Linear leader-relayed BFT with chained quorum certificates."""

    ROUND_STATE = _HsRound

    _HANDLERS = {
        HsProposal: "_on_proposal",
        HsVote: "_on_vote",
        HsCertificateMessage: "_on_certificate",
        HsNewView: "_on_newview",
    }

    def _on_timeout(self, round_number: int) -> None:
        """HotStuff paces rounds by timeout: advance unconditionally.

        On a faulty link, first ask peers for the decide we may have
        missed (the responses arrive after we advanced and go through
        the late-certificate adoption path).
        """
        state = self.round_state(round_number)
        if round_number > self.current_round:
            # A speculative slot's timer never paces the frontier: the
            # round either decides (deferred until its parent lands) or
            # is re-driven once the frontier reaches it.  Keep the
            # timer alive so the slot is re-checked.
            if not state.finalized and not self.halted:
                self._arm_round_timer(round_number)
            return
        if not state.finalized and self.ctx.network.unreliable and not self.halted:
            state.timeouts += 1
            if state.timeouts == 1:
                # Faulty link: re-send what we already said and give
                # the round one extra timeout before moving on.
                self._retransmit_round(state)
                self._arm_round_timer(round_number)
                return
            self._request_catch_up(round_number)
        self._advance(round_number)

    def _retransmit_round(self, state: _HsRound) -> None:
        """Re-broadcast this round's already-emitted messages.

        The leader re-proposes the identical block and re-broadcasts
        any certificates it already aggregated; followers re-send their
        votes (same deterministic statements, so no equivocation can
        arise and receivers dedup by voter set).
        """
        round_number = state.number
        if self.leader_of_round(round_number) == self.player_id:
            if state.sent_proposal is not None:
                # Resend the *stored* proposal verbatim: rebuilding
                # could sign a different block (self-double-sign).
                self.broadcast(state.sent_proposal)
            for phase in HS_PHASES:
                if phase not in state.certified_phases:
                    continue
                for digest, voters in sorted(state.tally.get(phase, {}).items()):
                    if len(voters) < self.config.quorum_size:
                        continue
                    certificate = self._build_certificate(phase, round_number, digest, voters)
                    self.broadcast(HsCertificateMessage(certificate=certificate))
                    break
        for phase, digests in sorted(state.signed.items()):
            for digest in digests:
                statement = make_statement(self.keypair, phase, round_number, digest)
                self._send_to_leader(HsVote(statement=statement))

    def _propose(self, round_number: int) -> None:
        block = self._build_block(round_number)
        statement = make_statement(self.keypair, HS_PROPOSE, round_number, block.digest)
        message = HsProposal(block=block, statement=statement)
        self.round_state(round_number).sent_proposal = message
        self.broadcast(message)

    def _send_to_leader(self, message: HsVote) -> None:
        """Linear communication: votes go to the leader only, as they
        are — the strategy's say is whether to take part at all."""
        if self.halted or not self.participates(message.phase):
            return
        self._send_plan({self.leader_of_round(message.round_number): message}, message)

    # ------------------------------------------------------------------
    def handle_payload(self, sender: int, payload: Any) -> None:
        self._dispatch(sender, payload)

    def _on_late_payload(self, sender: int, payload: Any) -> None:
        """Past rounds and halted replicas still serve catch-up — and
        still *adopt* it.

        Finality evidence outlives the configured slots (pRFT's late
        path absorbs late finals the same way): a lagging replica cut
        off by the duration bound has solicited catch-up replies still
        in flight, and peers' ordinary decide broadcasts keep arriving;
        dropping them would freeze its chain short of the committee's
        head forever.
        """
        if isinstance(payload, HsNewView):
            self._on_newview(sender, payload)
        elif isinstance(payload, HsCertificateMessage):
            self._on_late_certificate(sender, payload)

    def _on_proposal(self, sender: int, message: HsProposal) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        if sender != self.leader_of_round(round_number):
            return
        if not self._valid(message.statement, sender, HS_PROPOSE):
            return
        if message.block.digest != message.statement.digest:
            return
        if message.block.parent_digest != self.expected_parent_digest(round_number):
            return
        state.blocks.setdefault(message.digest, message.block)
        self._vote(state, HS_PHASES[0], message.digest)

    def _vote(self, state: _HsRound, phase: str, digest: str) -> None:
        if phase in state.signed:
            return
        state.signed[phase] = {digest}
        statement = make_statement(self.keypair, phase, state.number, digest)
        self._send_to_leader(HsVote(statement=statement))

    def _on_vote(self, sender: int, message: HsVote) -> None:
        """Leader-side vote aggregation into a QC."""
        round_number = message.round_number
        if self.leader_of_round(round_number) != self.player_id:
            return
        statement = message.statement
        if statement.phase not in HS_PHASES or not self._valid(statement, sender, statement.phase):
            return
        state = self.round_state(round_number)
        voters = state.voters(statement.phase, statement.digest)
        voters[sender] = statement if self.ctx.aggregate_certs else None
        if len(voters) < self.config.quorum_size:
            return
        if statement.phase in state.certified_phases:
            return
        state.certified_phases.add(statement.phase)
        certificate = self._build_certificate(
            statement.phase, round_number, statement.digest, voters
        )
        self.broadcast(HsCertificateMessage(certificate=certificate))
        if statement.phase == HS_PHASES[0]:
            block = state.blocks.get(statement.digest)
            if block is None and state.sent_proposal is not None:
                if state.sent_proposal.digest == statement.digest:
                    block = state.sent_proposal.block
            if block is not None:
                self._note_proposal_acked(round_number, block)

    def _build_certificate(
        self,
        phase: str,
        round_number: int,
        digest: str,
        voters: Dict[int, Optional[SignedStatement]],
    ) -> QuorumCertificate:
        """Aggregate the leader's collected votes into a certificate.

        With ``aggregate_certs`` off the certificate carries only the
        trusted ``signer_count`` (the historical κ-size model); with it
        on, the retained vote statements are folded into a real
        :class:`AggregateQC` whose bitmap + tag receivers verify.
        """
        aggregate = aggregate_statements(voters.values()) if self.ctx.aggregate_certs else None
        return QuorumCertificate(
            phase=phase,
            round_number=round_number,
            digest=digest,
            signer_count=len(voters),
            attestation=make_statement(self.keypair, phase + "-qc", round_number, digest),
            aggregate=aggregate,
        )

    def _aggregate_ok(self, certificate: QuorumCertificate) -> bool:
        """Cryptographically check an attached aggregate, if any.

        A certificate without an aggregate is accepted on the legacy
        trust model (leader attestation + signer_count); one *with* an
        aggregate must pin the same (phase, round, digest), name a
        quorum in its bitmap and verify against the trusted setup.
        """
        aggregate = certificate.aggregate
        if aggregate is None:
            return True
        if (
            aggregate.phase != certificate.phase
            or aggregate.round_number != certificate.round_number
            or aggregate.digest != certificate.digest
            or aggregate.signer_count < self.config.quorum_size
        ):
            return False
        return self.ctx.registry.verify_aggregate(aggregate)

    def _on_certificate(self, sender: int, message: HsCertificateMessage) -> None:
        round_number = message.round_number
        certificate = message.certificate
        if sender != self.leader_of_round(round_number):
            # Forwarded certificates only arrive on faulty links (the
            # catch-up path relays peers' stored decides).  A decide QC
            # is self-certifying via its leader attestation — exactly
            # the rule the late-adoption path applies — so accept it
            # from any relay; phase QCs stay leader-only.
            if (
                certificate.phase != HS_PHASES[-1]
                or not self.ctx.network.unreliable
                or not self._attested(certificate)
            ):
                return
        if certificate.signer_count < self.config.quorum_size:
            return
        if not self._aggregate_ok(certificate):
            return
        state = self.round_state(round_number)
        phase_index = HS_PHASES.index(certificate.phase) if certificate.phase in HS_PHASES else -1
        if phase_index < 0:
            return
        if certificate.phase == HS_PHASES[-1]:
            # Catch-up replies attach the block body: without it a
            # laggard that never saw the proposal could hold the decide
            # QC yet stall the decide for another request cycle.
            if message.block is not None and message.block.digest == certificate.digest:
                state.blocks.setdefault(certificate.digest, message.block)
            state.decide_certificate = certificate
            self._commit_decided(state, certificate.digest)
            return
        if certificate.phase == HS_PHASES[0]:
            block = state.blocks.get(certificate.digest)
            if block is not None:
                self._note_proposal_acked(round_number, block)
        self._vote(state, HS_PHASES[phase_index + 1], certificate.digest)

    # ------------------------------------------------------------------
    # Catch-up on faulty links (loss / duplication / crash schedules)
    # ------------------------------------------------------------------
    def _request_catch_up(self, round_number: int) -> None:
        """Ask peers for the decide QC this replica may have missed."""
        statement = make_statement(self.keypair, HS_NEWVIEW, round_number, "")
        self.broadcast(HsNewView(statement=statement))

    def _on_newview(self, sender: int, message: HsNewView) -> None:
        """Serve a catch-up request: resend the decide QC with the block.

        The QC models an aggregated threshold signature whose leader
        attestation any receiver can check, so any holder can forward
        it — verification does not depend on who relays.  Only ever
        active on unreliable networks; strategy-mediated via
        :meth:`BaseReplica.send_direct`.
        """
        if not self.ctx.network.unreliable or sender == self.player_id:
            return
        if not self._valid(message.statement, sender, HS_NEWVIEW):
            return
        self._offer_catch_up_range(sender, message.round_number)

    def _offer_catch_up(self, requester: int, round_number: int) -> None:
        """Resend one decided round's QC (with the block) to a laggard."""
        state = self._rounds.get(round_number)
        if state is None or not state.finalized:
            return
        if state.decide_certificate is None or state.decided_digest is None:
            return
        block = state.blocks.get(state.decided_digest)
        if block is None:
            return
        self.send_direct(
            requester, HsCertificateMessage(certificate=state.decide_certificate, block=block)
        )

    def _on_late_certificate(self, sender: int, message: HsCertificateMessage) -> None:
        """Adopt a decide QC for a round we already timed out of.

        Forwarded QCs are accepted from any sender, but only when the
        leader's attestation checks out (see
        :class:`QuorumCertificate`): a non-leader cannot fabricate a
        certificate for a round it did not lead.  Adoption further
        requires the block to link onto our chain head, and chains
        through any subsequently-stored decides that now link too.
        """
        if not self.ctx.network.unreliable:
            return
        certificate = message.certificate
        if certificate.phase != HS_PHASES[-1]:
            return
        if certificate.signer_count < self.config.quorum_size:
            return
        if not self._attested(certificate):
            return
        if not self._aggregate_ok(certificate):
            return
        state = self.round_state(certificate.round_number)
        if state.finalized:
            return
        if message.block is not None and message.block.digest == certificate.digest:
            state.blocks.setdefault(certificate.digest, message.block)
        state.decide_certificate = certificate
        self._try_adopt(certificate.round_number)

    def _attested(self, certificate: QuorumCertificate) -> bool:
        """True if the certificate carries a valid leader attestation."""
        attestation = certificate.attestation
        if attestation is None:
            return False
        if attestation.phase != certificate.phase + "-qc":
            return False
        if attestation.round_number != certificate.round_number:
            return False
        if attestation.digest != certificate.digest:
            return False
        if attestation.signer != self.leader_of_round(certificate.round_number):
            return False
        return verify_statement(self.ctx.registry, attestation)

    def _try_adopt(self, start_round: int) -> None:
        """Retro-finalize a chain of missed decides, oldest first.

        A live replica's current round is handled by the normal
        certificate path, so adoption stops below it; a *halted*
        replica has no round machinery running and may have been cut
        off inside its current round, so adoption covers it too.
        """
        round_number = start_round
        head = self.current_round + 1 if self.halted else self.current_round
        while round_number < head:
            state = self._rounds.get(round_number)
            if state is None or state.finalized or state.decide_certificate is None:
                return
            digest = state.decide_certificate.digest
            block = state.blocks.get(digest)
            if block is None or block.parent_digest != self.chain.head().digest:
                return
            state.decided_digest = digest
            self.chain.append_tentative(block)
            self._land_final(state, block, kind="retro_final")
            round_number += 1


def hotstuff_factory(player: Player, config: ProtocolConfig, ctx: ProtocolContext) -> HotStuffReplica:
    """Replica factory (see :data:`repro.experiments.registry.PROTOCOL_FACTORIES`)."""
    return HotStuffReplica(player, config, ctx)
