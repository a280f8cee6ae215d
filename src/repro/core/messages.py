"""The wire layer, and pRFT's wire formats (Figure 2b of the paper).

Every message of every protocol is a :class:`WireMessage`, anchored by
a :class:`SignedStatement` — the signer's signature over the tuple
(protocol, phase, round, digest).  Binding the round number into the
signed statement prevents cross-round replay (footnote 11); binding the
phase makes "two conflicting signatures in the same phase of the same
round" (the π_ds deviation) a purely syntactic condition that
:mod:`repro.core.pof` can check.

Quorum-carrying messages (Commit, Reveal, CommitView) embed the full
justification sets, which is what gives pRFT its O(κ·n) message size
per message — the price of accountability (Figure 3).  Commit and
Reveal also carry the proposed block body so that players cut off
behind a partition can adopt the decided block once messages flow
again (the paper's "all messages from a round are eventually delivered
before the next GST", Theorem 5 proof).

Behind the ``aggregate_certs`` deployment axis, a justification may
instead be a single :class:`~repro.crypto.aggregate.AggregateQC` — one
tag plus a signer bitmap, O(κ + n/8) on the wire.  The
``Justification`` helpers in this module (build / verify / expand)
and :func:`wire_size` are the only places that dispatch on the
representation, so protocol code treats both shapes uniformly and the
representations stay behaviourally identical (the differential
conformance suite's contract).
"""

from __future__ import annotations

import enum
import inspect
from dataclasses import dataclass
from typing import Any, ClassVar, FrozenSet, Iterable, Optional, Tuple, Union

from repro.crypto.aggregate import AggregateQC, aggregate_statements, statement_value
from repro.crypto.hashing import canonical_bytes
from repro.crypto.keys import KeyPair
from repro.crypto.registry import KeyRegistry
from repro.crypto.signatures import Signature, sign
from repro.ledger.block import Block

KAPPA = 32
"""The security parameter κ: bytes charged per signature/digest."""


class Phase(str, enum.Enum):
    """The phases a statement can belong to."""

    PROPOSE = "propose"
    VOTE = "vote"
    COMMIT = "commit"
    REVEAL = "reveal"
    FINAL = "final"
    EXPOSE = "expose"
    VIEW_CHANGE = "view-change"
    COMMIT_VIEW = "commit-view"


@dataclass(frozen=True, order=True)
class SignedStatement:
    """A player's signature over (phase, round, digest)."""

    phase: str
    round_number: int
    digest: str
    signature: Signature

    @property
    def signer(self) -> int:
        return self.signature.signer

    def value(self) -> Tuple[Any, ...]:
        return statement_value(self.phase, self.round_number, self.digest)

    def value_bytes(self) -> bytes:
        """Canonical bytes of :meth:`value`, serialised once per statement.

        The statement is frozen, so the signed tuple can never change;
        :func:`make_statement` stores the bytes it signed here, and any
        other statement memoizes them on first use (the tuple itself is
        rebuilt by every ``value()`` call and cannot carry a cache).
        """
        cached = self.__dict__.get("_value_bytes")
        if cached is None:
            cached = canonical_bytes(self.value())
            object.__setattr__(self, "_value_bytes", cached)
        return cached

    def canonical(self) -> Tuple[Any, ...]:
        return ("stmt", self.phase, self.round_number, self.digest, self.signature.canonical())

    @property
    def size_bytes(self) -> int:
        return 2 * KAPPA

    def conflicts_with(self, other: "SignedStatement") -> bool:
        """True if the two statements are a double-sign pair: same
        signer, same phase, same round, different digests."""
        return (
            self.signer == other.signer
            and self.phase == other.phase
            and self.round_number == other.round_number
            and self.digest != other.digest
        )


def make_statement(
    keypair: KeyPair,
    phase: str,
    round_number: int,
    digest: str,
    message: Optional[bytes] = None,
) -> SignedStatement:
    """Sign (phase, round, digest) and wrap the result.

    The value is serialised once — or not at all when the caller hands
    in its canonical bytes as ``message`` — and the statement keeps
    the signed bytes as its :meth:`~SignedStatement.value_bytes`.
    """
    if message is None:
        message = canonical_bytes(statement_value(phase, round_number, digest))
    statement = SignedStatement(phase, round_number, digest, sign(keypair, message=message))
    object.__setattr__(statement, "_value_bytes", message)
    return statement


def verify_statement(registry: KeyRegistry, statement: SignedStatement) -> bool:
    """Check the statement's signature against the trusted setup.

    A statement that verified against ``registry`` before carries its
    :attr:`~repro.crypto.registry.KeyRegistry.verified_mark` and is
    answered from it, counted as a cache hit: every replica checks
    every quorum-certificate member, and the oracle's audit checks the
    kept ones again, on the one shared object.  Otherwise the statement's
    memoized bytes go to :meth:`KeyRegistry.verify`, which derives the
    tag from the trusted-setup secret, and a valid statement is
    stamped; an equal copy is another object and is derived afresh.
    When the registry's cache is disabled nothing is stamped and the
    statement is handed over as a value, so the reference path
    genuinely re-serialises it.
    """
    mark = registry.verified_mark
    if mark is None:
        return registry.verify(statement.signature, statement.value())
    if statement.__dict__.get("_verified") is mark:
        registry.cache_hits += 1
        return True
    if not registry.verify(statement.signature, message=statement.value_bytes()):
        return False
    object.__setattr__(statement, "_verified", mark)
    return True


def verify_quorum(
    registry: KeyRegistry,
    statements: Iterable[SignedStatement],
    *,
    phase: Optional[str] = None,
    round_number: Optional[int] = None,
    digest: Optional[str] = None,
    minimum: int = 1,
) -> bool:
    """Batch-verify a quorum certificate of signed statements.

    Structural constraints (phase/round/digest, when given) are checked
    for every statement first — they are cheap and a violation saves
    all cryptographic work — then each signature is checked through
    :func:`verify_statement`, then the distinct-signer count is compared to
    ``minimum``.  All statements must pass for the certificate to
    count, exactly like the per-statement loops this replaces.

    A fully pinned certificate is one value signed by many, and every
    receiver of the message that carries it asks the same question, so
    its verdict is derived once per deployment
    (:meth:`~repro.crypto.registry.KeyRegistry.memoized_quorum`).  The
    memo key is the pin plus the member statements themselves — signer
    and tag included — so no certificate that differs in anything the
    check reads can share a verdict; what is remembered is the
    distinct-signer count, and ``minimum`` is compared on every call.
    """
    pool = statements if isinstance(statements, frozenset) else tuple(statements)
    if len(pool) < minimum:
        return False

    def valid_signers() -> int:
        """Distinct signers, or -1 unless every member is on the pin
        and validly signed."""
        signers = set()
        for statement in pool:
            if phase is not None and statement.phase != phase:
                return -1
            if round_number is not None and statement.round_number != round_number:
                return -1
            if digest is not None and statement.digest != digest:
                return -1
            signers.add(statement.signer)
        if not all(verify_statement(registry, statement) for statement in pool):
            return -1
        return len(signers)

    if phase is None or round_number is None or digest is None:
        return minimum <= valid_signers()
    return minimum <= registry.memoized_quorum(
        (phase, round_number, digest, frozenset(pool)), valid_signers
    )


# ----------------------------------------------------------------------
# Justifications: either the classic statement set or an AggregateQC.
# ----------------------------------------------------------------------
Justification = Union[FrozenSet[SignedStatement], AggregateQC]
"""A quorum justification in either wire representation."""


def build_justification(
    statements: Iterable[SignedStatement], aggregate: bool
) -> Justification:
    """Package a quorum for the wire in the deployment's representation.

    With ``aggregate`` off this is the historical frozenset of
    statements; with it on, a single :class:`AggregateQC`.  Callers
    pass digest-uniform quorums, so aggregation never raises here.
    """
    pool = frozenset(statements)
    if not aggregate:
        return pool
    return aggregate_statements(pool)


def verify_justification(
    registry: KeyRegistry,
    justification: Justification,
    *,
    phase: str,
    round_number: int,
    digest: str,
    minimum: int = 1,
) -> bool:
    """Check a justification against its pinned statement value.

    Statement sets take the batched :func:`verify_quorum` path; an
    :class:`AggregateQC` is checked structurally (same pin, enough
    bitmap members) and then cryptographically in one
    :meth:`~repro.crypto.registry.KeyRegistry.verify_aggregate` call.
    """
    if isinstance(justification, AggregateQC):
        if (
            justification.phase != phase
            or justification.round_number != round_number
            or justification.digest != digest
        ):
            return False
        if justification.signer_count < minimum:
            return False
        return registry.verify_aggregate(justification)
    return verify_quorum(
        registry,
        justification,
        phase=phase,
        round_number=round_number,
        digest=digest,
        minimum=minimum,
    )


def expand_aggregate(
    registry: KeyRegistry, aggregate: AggregateQC
) -> Tuple[SignedStatement, ...]:
    """Reconstruct the per-signer statements behind a *verified* aggregate.

    Signature tags are deterministic functions of (secret, value), so
    re-signing the aggregate's statement value with each bitmap
    member's trusted-setup key reproduces the exact statements that
    were aggregated — which is what keeps Proof-of-Fraud extraction
    working on bitmap-only wire formats.  This is only sound *after*
    ``verify_aggregate`` has succeeded: expanding an unverified
    aggregate would fabricate signatures for players who never signed,
    framing honest bitmap members.  The shared pin is serialised once
    for all signers, and the expansion is memoized on the (frozen)
    aggregate instance.
    """
    cached = aggregate.__dict__.get("_expanded")
    if cached is None:
        pin = (aggregate.phase, aggregate.round_number, aggregate.digest)
        message = canonical_bytes(statement_value(*pin))
        cached = tuple(
            make_statement(registry.keypair_of(signer), *pin, message=message)
            for signer in aggregate.signers
        )
        object.__setattr__(aggregate, "_expanded", cached)
    return cached


def justification_statements(
    registry: KeyRegistry, justification: Justification
) -> Tuple[SignedStatement, ...]:
    """The individual statements of a justification, expanding aggregates.

    Aggregate inputs must already be verified (see
    :func:`expand_aggregate`); statement sets are returned as-is,
    unverified, exactly like the per-statement absorption loops this
    feeds did historically.
    """
    if isinstance(justification, AggregateQC):
        return expand_aggregate(registry, justification)
    return tuple(justification)


# ----------------------------------------------------------------------
# The wire layer.  Every message of every protocol is one shape
# (Figure 2b): a signed statement, optionally carrying the previous
# phase's quorum, the block, or evidence.  A message class declares its
# fields; everything the network layer, the strategies and the byte
# model need is read off the statement and the fields here, once.
# ----------------------------------------------------------------------
def wire_size(part: Any) -> int:
    """Bytes one carried part of a message is charged (Figure 3's model):
    κ per bare signature, 2κ per signed statement — so a statement-set
    justification, view-change evidence or a Proof-of-Fraud set costs
    O(κ·n) — κ + n/8 for an aggregate certificate, and the block's own
    size estimate."""
    if part is None:
        return 0
    if isinstance(part, Signature):
        return KAPPA
    if isinstance(part, frozenset):
        return sum(member.size_bytes for member in part)
    if isinstance(part, Block):
        return part.size_estimate_bytes
    return part.size_bytes


class WireMessage:
    """Base of every protocol message: a ``statement`` plus fields.

    Subclasses are frozen dataclasses that only declare what they
    carry.  ``wire_type`` is what the network accounts the message
    under and ``phase`` what the sender's strategy is asked to
    participate in; both are the signed phase.  ``digest`` is what
    strategies route equivocating broadcasts by, so it is None for the
    messages whose digest slot holds a marker instead of a block value
    (``SIGNS_VALUE = False``: view changes, exposures, catch-up requests).
    """

    SIGNS_VALUE: ClassVar[bool] = True
    _CARRIED: ClassVar[Tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # The declared fields, resolved once per class (size_bytes runs
        # per broadcast and must not introspect the dataclass each time).
        cls._CARRIED = tuple(inspect.get_annotations(cls))

    @property
    def round_number(self) -> int:
        return self.statement.round_number

    @property
    def digest(self) -> Optional[str]:
        return self.statement.digest if self.SIGNS_VALUE else None

    @property
    def phase(self) -> str:
        return self.statement.phase

    wire_type = phase

    @property
    def size_bytes(self) -> int:
        return sum(wire_size(getattr(self, name)) for name in self._CARRIED)


@dataclass(frozen=True)
class ProposeMessage(WireMessage):
    """⟨Propose, B_l, h_l, r⟩ signed by the leader."""

    block: Any
    statement: SignedStatement


@dataclass(frozen=True)
class VoteMessage(WireMessage):
    """⟨Vote, h, s^pro_l, r⟩ signed by the voter."""

    statement: SignedStatement
    propose_signature: Signature


@dataclass(frozen=True)
class CommitMessage(WireMessage):
    """⟨Commit, h*, s^pro_l, V_i, r⟩: commit plus the vote quorum V_i.

    ``justification`` is V_i in either wire representation: the full
    statement set, or an :class:`AggregateQC` under the
    ``aggregate_certs`` axis.
    """

    statement: SignedStatement
    justification: Justification
    block: Optional[Any] = None


@dataclass(frozen=True)
class RevealMessage(WireMessage):
    """⟨Reveal, h_tc, h_l, W_i, r⟩: ``justification`` is the
    Proof-of-Commitment W_i, the commit quorum in either representation."""

    statement: SignedStatement
    justification: Justification
    block: Optional[Any] = None


@dataclass(frozen=True)
class FinalMessage(WireMessage):
    """⟨Final, h_l, s^pro_l⟩ signed by the finaliser.

    ``block`` is normally None (finals are O(κ)); catch-up
    retransmissions on faulty links attach the block body so a replica
    that lost the round's traffic can adopt the decided block.
    """

    statement: SignedStatement
    block: Optional[Any] = None


@dataclass(frozen=True)
class ExposeMessage(WireMessage):
    """⟨Expose, D_i, r⟩: the Proof-of-Fraud set of double-sign pairs.
    The round it aborts is the signed one, like every other message's."""

    SIGNS_VALUE = False

    statement: SignedStatement
    proofs: FrozenSet[Any]  # FraudProof; Any avoids a circular import


@dataclass(frozen=True)
class ViewChangeMessage(WireMessage):
    """⟨ViewChange, Phase, r⟩ — the digest slot records the stalled phase.

    ``evidence`` carries every propose/vote/commit statement the sender
    holds for the stalled round, the analogue of the prepared
    certificates in pBFT's view change.  It is what lets all honest
    players assemble a Proof-of-Fraud after a fork *attempt* that
    stalled the round without any commit quorum forming: the
    conflicting signatures, scattered across the two victim groups,
    meet inside the view-change exchange (Lemma 4's "signature on h_a
    reaches P_b").
    """

    SIGNS_VALUE = False

    statement: SignedStatement
    evidence: FrozenSet[SignedStatement] = frozenset()


@dataclass(frozen=True)
class CommitViewMessage(WireMessage):
    """⟨CommitView, V_i, r⟩: carries the ViewChange quorum V_i."""

    SIGNS_VALUE = False

    statement: SignedStatement
    view_changes: FrozenSet[SignedStatement]
