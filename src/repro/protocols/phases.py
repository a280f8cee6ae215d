"""The phase-table driver shared by all five protocols.

Figure 1/2b of the paper — and the pBFT family and HotStuff it is
compared with in Figure 3 — describe one round the same way: a leader's
proposal, then an ordered list of phases in which every replica signs
(phase, round, digest) once, a message of a phase may have to carry the
previous phase's quorum, and a quorum of one phase makes the replica
sign the next — until the last phase's quorum decides.  That loop lives
here once, driven by a per-protocol table:

=========  ===============================================  ==================================
protocol   phases                                           a quorum of the last one
=========  ===============================================  ==================================
pBFT       prepare → commit                                 ``_commit_decided``
Polygraph  prepare → commit[prepare quorum]                 ``_commit_decided`` (TRAP too)
pRFT       vote → commit[vote quorum] → reveal[commit q]    ``_reveal_phase_decision``
HotStuff   prepare⇢ → precommit⇢ → commit⇢                  ``_commit_decided``
=========  ===============================================  ==================================

An *all-to-all* row's statements go to everyone, and every replica
tallies its own quorum.  A *relay* row (⇢, HotStuff's linear shape)
sends them to the round's leader only, which on a quorum broadcasts a
certificate built by the protocol's ``_build_certificate``; a replica
that accepts the certificate goes on down the table exactly as after a
quorum of its own (:meth:`PhaseTableReplica._on_quorum`).

A protocol supplies its wire vocabulary, its :attr:`PHASES` table and
the few answers the table cannot give (pRFT's propose / final / expose /
commit-view handlers; HotStuff's timeout, certificate checks and
catch-up).  :class:`ViewChangeReplica` adds the view change pRFT and the
pBFT family share, and the catch-up it serves; HotStuff paces rounds by
timeout and has none of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, ClassVar, Dict, Iterable, Iterator, NamedTuple, Optional, Tuple, Type,
)

from repro.core.messages import (
    SignedStatement,
    WireMessage,
    build_justification,
    make_statement,
    verify_justification,
)
from repro.ledger.block import Block
from repro.protocols.base import BaseReplica, SlotState


class PhaseRow(NamedTuple):
    """One phase of a protocol's round."""

    #: The phase its statements sign — also the message's wire type.
    phase: str
    #: The message class of the phase.
    wire: Type[WireMessage]
    #: What a quorum of it triggers: the next phase to sign, or the name
    #: of the method that decides the round.
    then: str
    #: The earlier phase whose quorum a message of this phase must carry
    #: as its ``justification`` (None: a bare vote).
    carries: Optional[str] = None
    #: Whether received statements are kept (a later message or the view
    #: change quotes them) or only their signers are counted.
    retains: bool = True
    #: The row kind: relayed through the round's leader, who certifies
    #: the quorum, instead of all-to-all.  A relay row's statements are
    #: kept only for an aggregate certificate (``aggregate_certs``).
    relay: bool = False


@dataclass
class PhaseRound(SlotState):
    #: The leader's proposal, resent verbatim on a faulty link.
    sent_proposal: Optional[Any] = None
    #: A ViewChange quorum was seen and the round is being abandoned in
    #: two steps (pRFT's CommitView): no further phase step is taken.
    view_committed: bool = False


@dataclass
class ViewChangeRound(PhaseRound):
    view_changes: Dict[int, SignedStatement] = field(default_factory=dict)
    view_change_sent: bool = False


class PhaseTableReplica(BaseReplica):
    """Proposal → table phases → decision, on the shared slot lifecycle."""

    ROUND_STATE = PhaseRound

    # Wire vocabulary, set by each protocol.  A phase constant is both
    # the phase its statements sign and the envelope's message type.
    PROPOSE: ClassVar[str]
    Proposal: ClassVar[Callable[..., WireMessage]]  # (block, statement)
    PHASES: ClassVar[Tuple[PhaseRow, ...]]
    #: Handlers beyond proposal / table phases.
    OWN_HANDLERS: ClassVar[Dict[type, str]] = {}
    #: Payload of the marker transaction in an equivocating proposal.
    MARKER_PAYLOAD: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "PHASES" in vars(cls):
            cls._ROWS = {row.phase: row for row in cls.PHASES}
            cls._HANDLERS = {
                cls.Proposal: "_on_proposal",
                **{row.wire: "_on_phase" for row in cls.PHASES},
                **cls.OWN_HANDLERS,
            }

    # ------------------------------------------------------------------
    # Protocol deltas
    # ------------------------------------------------------------------
    def _absorb(self, statement: SignedStatement) -> None:
        """A verified proposal / phase statement was received."""

    def _absorb_justification(self, justification: Any) -> None:
        """A verified quorum, or view-change evidence, was received."""

    def _signing(self, state: PhaseRound, phase: str, digest: str) -> None:
        """This replica is about to sign ``digest`` in ``phase``."""

    def _tallied(self, state: PhaseRound, row: PhaseRow) -> bool:
        """A statement of ``row`` was counted; False stops the step
        before the quorum is."""
        return True

    def _build_certificate(self, phase: str, round_number: int, digest: str, voters: Dict) -> Any:
        """A relay leader's certificate message for a quorum of ``voters``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Signing, building and sending
    # ------------------------------------------------------------------
    def _sign(self, phase: str, round_number: int, digest: str) -> SignedStatement:
        return make_statement(self.keypair, phase, round_number, digest)

    def _may_sign(self, state: PhaseRound, phase: str, digest: str) -> bool:
        """A replica signs one digest per phase of a slot, once — unless
        its strategy double-votes, and then each digest once."""
        signed = state.signed.get(phase)
        return not signed or (digest not in signed and self.strategy.double_votes())

    def _build(self, state: PhaseRound, row: PhaseRow, digest: str) -> Optional[WireMessage]:
        """This replica's message for ``digest`` in ``row``'s phase, or
        None while it does not hold the quorum the message must carry.

        Rebuilding signs the same (phase, round, digest) as the first
        time — signatures are deterministic — so a rebuilt message can
        never be a double-sign.  The proposal took the block to everyone
        who saw it; every later all-to-all phase ships it again, so a
        replica cut off from the proposal can still adopt the decided
        block (a relay vote goes to the leader, who proposed it).
        """
        parts: Dict[str, Any] = {}
        if row.carries is not None:
            quorum = state.tally.get(row.carries, {}).get(digest, {})
            if len(quorum) < self.config.quorum_size:
                return None
            parts["justification"] = build_justification(
                quorum.values(), self.ctx.aggregate_certs
            )
        if row is not self.PHASES[0] and not row.relay:
            parts["block"] = state.blocks.get(digest)
        return row.wire(statement=self._sign(row.phase, state.number, digest), **parts)

    def _send(self, row: PhaseRow, message: WireMessage) -> None:
        """To everyone, or a relay row's to the round's leader only, as
        it is: the strategy's say is whether to take part at all."""
        if not row.relay:
            self.broadcast(message)
        elif not self.halted and self.participates(message.phase):
            self._send_plan({self.leader_of_round(message.round_number): message}, message)

    def _make_proposal(self, block: Block) -> WireMessage:
        statement = self._sign(self.PROPOSE, block.round_number, block.digest)
        return self.Proposal(block=block, statement=statement)

    def _propose(self, round_number: int) -> None:
        primary = self._make_proposal(self._build_block(round_number))
        state = self.round_state(round_number)
        state.sent_proposal = primary
        self._signing(state, self.PROPOSE, primary.digest)
        self.broadcast(
            primary,
            alternative_factory=lambda: self._make_proposal(
                self._conflicting_block(primary.block, self.MARKER_PAYLOAD)
            ),
        )

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
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
        first = self.PHASES[0]
        linked = message.block.parent_digest == self.expected_parent_digest(round_number)
        if linked or not first.relay:
            # Later all-to-all phases ship the block on even unsigned;
            # a relay replica keeps only a block it can vote for.
            state.blocks.setdefault(digest, message.block)
        if linked and self._may_sign(state, first.phase, digest):
            state.signed.setdefault(first.phase, set()).add(digest)
            self._send(first, self._build(state, first, digest))

    def _justified(self, message: Any, phase: str) -> bool:
        """The quorum a message carries must hold ≥ τ valid,
        distinct-signer signatures of ``phase`` on the message's own
        (round, digest) — as a statement set or as one aggregate."""
        return verify_justification(
            self.ctx.registry,
            message.justification,
            phase=phase,
            round_number=message.round_number,
            digest=message.digest,
            minimum=self.config.quorum_size,
        )

    def _on_phase(self, sender: int, message: Any) -> None:
        """One statement of one table phase: validate → admit what it
        carries → tally → on a quorum, go on down the table (a relay
        row's leader certifies the quorum instead)."""
        statement = message.statement
        row = self._ROWS.get(statement.phase)
        if row is None or type(message) is not row.wire:
            return
        round_number = statement.round_number
        if row.relay and self.leader_of_round(round_number) != self.player_id:
            return
        state = self.round_state(round_number)
        if not self._valid(statement, sender, row.phase):
            return
        digest = statement.digest
        if row.carries is not None and not self._justified(message, row.carries):
            return
        self._absorb(statement)
        if row.carries is not None:
            self._absorb_justification(message.justification)
        block = getattr(message, "block", None)
        if block is not None and block.digest == digest:
            state.blocks.setdefault(digest, block)
        if row.relay:
            # A new signer takes the tally to τ once per (phase, digest):
            # the leader certifies then.
            if sender not in state.tally.get(row.phase, {}).get(digest, ()):
                kept = statement if self.ctx.aggregate_certs else None
                voters = self._tally(state, row.phase, digest, sender, kept)
                if len(voters) == self.config.quorum_size:
                    self._certify(state, row, digest, voters)
            return
        voters = self._tally(state, row.phase, digest, sender, statement if row.retains else None)
        if state.view_committed or not self._tallied(state, row):
            return
        if len(voters) >= self.config.quorum_size:
            self._on_quorum(state, row, digest)

    def _certify(self, state: PhaseRound, row: PhaseRow, digest: str, voters: Dict) -> None:
        """A relay leader's quorum: broadcast the certificate (the leader
        goes on down the table on its own copy), then, on the first row,
        note the proposal acked."""
        self.broadcast(self._build_certificate(row.phase, state.number, digest, voters))
        if row is self.PHASES[0]:
            block = state.blocks.get(digest)
            proposal = state.sent_proposal
            if block is None and proposal is not None and proposal.digest == digest:
                block = proposal.block
            if block is not None:
                self._note_proposal_acked(state.number, block)

    def _on_quorum(self, state: PhaseRound, row: PhaseRow, digest: str) -> None:
        """``row`` holds a quorum for ``digest`` — tallied here, or a
        relay row's certificate accepted.  A quorum of the first row
        acks the slot's proposal (the pipeline may open the next slot on
        it); then sign the next row once, or decide the round."""
        if row is self.PHASES[0]:
            acked = state.blocks.get(digest)
            if acked is not None:
                self._note_proposal_acked(state.number, acked)
        following = self._ROWS.get(row.then)
        if following is None:
            getattr(self, row.then)(state, digest)
            return
        if not self._may_sign(state, following.phase, digest):
            return
        state.signed.setdefault(following.phase, set()).add(digest)
        self._signing(state, following.phase, digest)
        self._send(following, self._build(state, following, digest))

    # ------------------------------------------------------------------
    # Faulty links: retransmission
    # ------------------------------------------------------------------
    def _retransmit_round(self, state: PhaseRound) -> None:
        """Re-send this round's already-emitted messages, digests in
        sorted order: the stored proposal, the certificates this replica
        built as a relay leader, then each statement it signed, rebuilt
        (see :meth:`_build`; receivers dedup by (sender, digest)).
        Relay votes go newest phase first: a relay row is signed only on
        the previous row's certificate, so older votes matter least.
        Only ever called on unreliable networks."""
        if state.view_committed:
            return
        if state.sent_proposal is not None:
            # Resend the *stored* proposal verbatim: rebuilding could
            # pick up a changed chain head or mempool and sign a
            # different block — a self-inflicted double-sign.
            self.broadcast(state.sent_proposal)
        for row in self.PHASES:
            if row.relay:
                for digest, voters in sorted(state.tally.get(row.phase, {}).items()):
                    if len(voters) >= self.config.quorum_size:
                        self.broadcast(
                            self._build_certificate(row.phase, state.number, digest, voters)
                        )
        for row in self.PHASES[::-1] if self.PHASES[0].relay else self.PHASES:
            for digest in sorted(state.signed.get(row.phase, ())):
                message = self._build(state, row, digest)
                if message is not None:
                    self._send(row, message)


class ViewChangeReplica(PhaseTableReplica):
    """The phase table plus the pBFT family's view change (Castro &
    Liskov's, which pRFT's Section 5.2 extends): a stalled frontier
    votes to abandon its round, n − t0 votes are a quorum, and a peer
    stuck behind lost traffic is served past rounds' outcomes on
    request.  The vote, its tally, the quorum rule and the catch-up are
    written here once; a protocol changes what the vote signs
    (:meth:`_view_change_digest`), what it carries
    (:meth:`_view_change_parts`), what a quorum does
    (:meth:`_on_view_change_quorum`) and what proves a round it left
    (:meth:`_decided_proof`, :meth:`_abandoned_proof`)."""

    ROUND_STATE = ViewChangeRound

    VIEW_CHANGE: ClassVar[str]
    ViewChange: ClassVar[Callable[..., WireMessage]]  # (statement, ...)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "PHASES" in vars(cls):
            cls._HANDLERS[cls.ViewChange] = "_on_view_change"

    # ------------------------------------------------------------------
    # Protocol deltas
    # ------------------------------------------------------------------
    def _view_change_digest(self, state: ViewChangeRound) -> str:
        """What a timed-out replica's ViewChange signs in the digest slot."""
        return ""

    def _view_change_parts(self, state: ViewChangeRound) -> Dict[str, Any]:
        """What a ViewChange carries beyond its statement (none: a bare vote)."""
        return {}

    def _on_view_change_quorum(
        self, state: ViewChangeRound, votes: Iterable[SignedStatement]
    ) -> None:
        """n − t0 replicas voted to abandon the unfinalized round: leave it."""
        self.trace("view_change_committed", round=state.number)
        self._advance(state.number)

    def _decided_proof(self, state: ViewChangeRound) -> Optional[WireMessage]:
        """Our own last-phase message, with the block, for a finalized round.

        Finalized on others' signatures while ours went to a competing
        proposal: rebuilding would sign a value we never signed — an
        honest double-sign a detector would burn — so nothing is sent.
        """
        digest = state.decided_digest
        last = self.PHASES[-1]
        if digest not in state.signed.get(last.phase, ()) or digest not in state.blocks:
            return None
        return self._build(state, last, digest)

    def _abandoned_proof(self, state: ViewChangeRound) -> Optional[WireMessage]:
        """A bare ViewChange vote for a round we left undecided."""
        if not state.advanced:
            return None
        return self.ViewChange(statement=self._sign(self.VIEW_CHANGE, state.number, ""))

    # ------------------------------------------------------------------
    # The vote and its quorum
    # ------------------------------------------------------------------
    def _view_change_quorum(self) -> int:
        """n − t0 votes abandon a round, whatever τ is."""
        return self.config.n - self.config.t0

    def _on_timeout(self, round_number: int) -> None:
        """A round timer fired.

        Only the commit frontier acts: a speculative slot's timer is
        kept alive and the stalled slot acts once the frontier reaches
        it.  On a faulty link the frontier first re-sends everything it
        already said and gives the round one extra timeout; then it
        votes to abandon the round and re-arms the timer.
        """
        if self.halted:
            return
        if round_number > self.current_round:
            if not self.round_state(round_number).finalized:
                self._arm_round_timer(round_number)
            return
        if self.current_round != round_number:
            return
        state = self.round_state(round_number)
        if state.finalized:
            return
        self._trace_slot("timeout", round=round_number)
        state.timeouts += 1
        if self.ctx.network.unreliable:
            self._retransmit_round(state)
            if state.timeouts == 1:
                self._arm_round_timer(round_number)
                return
        self._send_view_change(state, self._view_change_digest(state))
        self._arm_round_timer(round_number)

    def _send_view_change(self, state: ViewChangeRound, digest: str) -> None:
        """Vote to abandon an unfinalized round, signing ``digest``.

        On reliable channels one ViewChange suffices (they are
        exactly-once).  Under link faults the first copy may be lost, so
        every repeat timeout resends it — the partial-synchrony liveness
        argument assumes exactly this resend loop.
        """
        if state.finalized or (state.view_change_sent and not self.ctx.network.unreliable):
            return
        state.view_change_sent = True
        statement = self._sign(self.VIEW_CHANGE, state.number, digest)
        message = self.ViewChange(statement=statement, **self._view_change_parts(state))
        self._trace_slot("view_change_sent", round=state.number, phase=digest)
        self.broadcast(message)

    def _held_statements(self, state: ViewChangeRound) -> Iterator[SignedStatement]:
        """Every phase statement retained for the round, in arrival
        order per phase: what a view change can offer as evidence."""
        for row in self.PHASES:
            if row.retains:
                for by_signer in state.tally.get(row.phase, {}).values():
                    yield from by_signer.values()

    def _on_view_change(self, sender: int, message: Any) -> None:
        state = self.round_state(message.round_number)
        if not self._valid(message.statement, sender, self.VIEW_CHANGE):
            return
        self._absorb_justification(getattr(message, "evidence", ()))
        votes = self._keep_view_change(state, sender, message.statement)
        if len(votes) >= self._view_change_quorum() and not state.finalized:
            self._on_view_change_quorum(state, votes.values())

    # ------------------------------------------------------------------
    # Faulty links: catch-up
    # ------------------------------------------------------------------
    def _on_late_payload(self, sender: int, payload: Any) -> None:
        """Serve a *verified* past-round ViewChange on a faulty link: the
        sender is stuck behind lost traffic, and the availability of
        decided blocks outlives the round and the configured rounds.
        (Unverifiable requests must not solicit block-carrying replies.)"""
        if (
            self.ctx.network.unreliable
            and isinstance(payload, self.ViewChange)
            and self._valid(payload.statement, sender, self.VIEW_CHANGE)
        ):
            self._offer_catch_up_range(sender, payload.round_number)

    def _offer_catch_up(self, requester: int, round_number: int) -> None:
        """Retransmit our round outcome to a peer stuck behind lost traffic.

        All we can (soundly) resend is what we signed ourselves: the
        decided round's :meth:`_decided_proof` or the abandoned round's
        :meth:`_abandoned_proof`.  The laggard assembles its quorum
        from many helpers' resends, one signer each — exactly the
        messages it would have received had the link not dropped them.
        Only ever active on unreliable networks (on reliable channels
        every message arrives exactly once, and a resend would perturb
        byte-identical replays); strategy-mediated via
        :meth:`BaseReplica.send_direct` (deviators may withhold).
        """
        if requester == self.player_id:
            return
        state = self._rounds.get(round_number)
        if state is None:
            return
        reply = self._decided_proof(state) if state.finalized else self._abandoned_proof(state)
        if reply is not None:
            self.send_direct(requester, reply)
