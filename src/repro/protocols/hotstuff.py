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

The vote phases are relay rows of the phase-table driver
(:mod:`repro.protocols.phases`): proposal, sign-once rule, leader tally
and retransmission are the driver's.  HotStuff owns its certificate
(built by the driver's ``_build_certificate`` hook) and the checks a
received one passes — attestation, aggregate, and only a decide relayed
by a non-leader — its unconditional timeout pacing (no view change), the
``hs-newview`` catch-up and the late adoption of missed decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.agents.player import Player
from repro.core.messages import (
    KAPPA,
    SignedStatement,
    WireMessage,
    make_statement,
    verify_statement,
)
from repro.crypto.aggregate import AggregateQC, aggregate_statements
from repro.protocols.base import ProtocolConfig, ProtocolContext
from repro.protocols.phases import PhaseRound, PhaseRow, PhaseTableReplica

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
class _HsRound(PhaseRound):
    """HotStuff's slot: the tally holds the votes its leader collected
    (the statements only in aggregate mode, which aggregates their tags)."""

    decide_certificate: Optional[QuorumCertificate] = None


class HotStuffReplica(PhaseTableReplica):
    """Linear leader-relayed BFT with chained quorum certificates."""

    ROUND_STATE = _HsRound

    PROPOSE, Proposal = HS_PROPOSE, HsProposal
    PHASES = (
        PhaseRow(HS_PHASES[0], HsVote, then=HS_PHASES[1], relay=True),
        PhaseRow(HS_PHASES[1], HsVote, then=HS_PHASES[2], relay=True),
        PhaseRow(HS_PHASES[2], HsVote, then="_commit_decided", relay=True),
    )
    OWN_HANDLERS = {HsCertificateMessage: "_on_certificate", HsNewView: "_on_newview"}

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

    # ------------------------------------------------------------------
    def handle_payload(self, sender: int, payload: Any) -> None:
        self._dispatch(sender, payload)

    def _on_late_payload(self, sender: int, payload: Any) -> None:
        """Past rounds and halted replicas still serve catch-up — and
        still *adopt* it: a laggard cut off by the duration bound has
        solicited replies in flight and peers' decides keep arriving;
        dropping them would freeze its chain short of the committee's
        head forever (pRFT absorbs late finals the same way)."""
        if isinstance(payload, HsNewView):
            self._on_newview(sender, payload)
        elif isinstance(payload, HsCertificateMessage):
            self._on_late_certificate(sender, payload)

    def _build_certificate(
        self,
        phase: str,
        round_number: int,
        digest: str,
        voters: Dict[int, Optional[SignedStatement]],
    ) -> HsCertificateMessage:
        """Aggregate the leader's collected votes into a certificate.

        With ``aggregate_certs`` off the certificate carries only the
        trusted ``signer_count`` (the historical κ-size model); with it
        on, the retained vote statements are folded into a real
        :class:`AggregateQC` whose bitmap + tag receivers verify.
        """
        aggregate = aggregate_statements(voters.values()) if self.ctx.aggregate_certs else None
        return HsCertificateMessage(certificate=QuorumCertificate(
            phase=phase,
            round_number=round_number,
            digest=digest,
            signer_count=len(voters),
            attestation=make_statement(self.keypair, phase + "-qc", round_number, digest),
            aggregate=aggregate,
        ))

    def _aggregate_ok(self, certificate: QuorumCertificate) -> bool:
        """Cryptographically check an attached aggregate, if any.

        A certificate without an aggregate is accepted on the legacy
        trust model (leader attestation + signer_count); one *with* an
        aggregate must pin the same (phase, round, digest), name a
        quorum in its bitmap and verify against the trusted setup.
        """
        aggregate = certificate.aggregate
        return aggregate is None or (
            aggregate.phase == certificate.phase
            and aggregate.round_number == certificate.round_number
            and aggregate.digest == certificate.digest
            and aggregate.signer_count >= self.config.quorum_size
            and self.ctx.registry.verify_aggregate(aggregate)
        )

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
        if certificate.signer_count < self.config.quorum_size or not self._aggregate_ok(certificate):
            return
        state = self.round_state(round_number)
        row = self._ROWS.get(certificate.phase)
        if row is None:
            return
        if row is self.PHASES[-1]:
            self._keep_decide(state, message)
        self._on_quorum(state, row, certificate.digest)

    def _keep_decide(self, state: _HsRound, message: HsCertificateMessage) -> None:
        """Keep a decide QC, and the block a catch-up reply attaches:
        without it a laggard that never saw the proposal could hold the
        decide QC yet stall the decide for another request cycle."""
        certificate = message.certificate
        if message.block is not None and message.block.digest == certificate.digest:
            state.blocks.setdefault(certificate.digest, message.block)
        self._keep_certificate(state, "decide_certificate", certificate)

    # ------------------------------------------------------------------
    # Catch-up on faulty links (loss / duplication / crash schedules)
    # ------------------------------------------------------------------
    def _request_catch_up(self, round_number: int) -> None:
        """Ask peers for the decide QC this replica may have missed."""
        statement = make_statement(self.keypair, HS_NEWVIEW, round_number, "")
        self.broadcast(HsNewView(statement=statement))

    def _on_newview(self, sender: int, message: HsNewView) -> None:
        """Serve a catch-up request: resend the decide QC with the block.

        Any holder can forward a QC, since any receiver can check its
        leader attestation.  Only ever active on unreliable networks;
        strategy-mediated via :meth:`BaseReplica.send_direct`.
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

        Forwarded QCs are accepted from any sender whose copy carries a
        valid leader attestation (see :class:`QuorumCertificate`).  The
        block must link onto our chain head; adoption then chains
        through any later stored decides that now link too.
        """
        if not self.ctx.network.unreliable:
            return
        certificate = message.certificate
        if (
            certificate.phase != HS_PHASES[-1]
            or certificate.signer_count < self.config.quorum_size
            or not self._attested(certificate)
            or not self._aggregate_ok(certificate)
        ):
            return
        state = self.round_state(certificate.round_number)
        if not state.finalized:
            self._keep_decide(state, message)
            self._try_adopt(certificate.round_number)

    def _attested(self, certificate: QuorumCertificate) -> bool:
        """True if the certificate carries a valid leader attestation."""
        attestation = certificate.attestation
        return (
            attestation is not None
            and attestation.phase == certificate.phase + "-qc"
            and attestation.round_number == certificate.round_number
            and attestation.digest == certificate.digest
            and attestation.signer == self.leader_of_round(certificate.round_number)
            and verify_statement(self.ctx.registry, attestation)
        )

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
