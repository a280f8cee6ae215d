"""Aggregated quorum certificates: one tag + bitmap for a whole quorum.

pRFT's justification payloads are the scalability wall: every Commit
carries the full vote quorum and every Reveal the full commit quorum,
so a round moves O(n) signed statements per message and each receiver
re-checks them one by one — O(n^3) statement checks per phase across
the committee.  The fix mirrors HotStuff's threshold-signature model:
replace the n statements with a single :class:`AggregateQC` — the
canonical (phase, round, digest) the quorum signed, a *signer bitmap*
naming exactly who signed, and one *aggregate tag* binding the member
set's individual tags together.

The aggregate tag is a hash over the sorted (signer, tag) pairs, so

- any party holding the individual statements can *build* the
  aggregate without secret material (tags are public), and
- the registry can *verify* the whole certificate in one call by
  re-deriving each bitmap member's tag from the trusted setup and
  recombining — O(quorum) tag derivations on first sight; afterwards
  the verdict is read back off the certificate object itself, or, for
  an equal copy, from one cache lookup.

Accountability survives aggregation (the Polygraph constraint): the
bitmap names the individual signers, and because the simulation's tags
are deterministic functions of (secret, value), a *verified* aggregate
can be expanded back into the exact per-signer statements for
Proof-of-Fraud extraction.  Expansion of an unverified aggregate would
frame honest non-signers, so every expansion site verifies first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Tuple

import hashlib

from repro.crypto.hashing import canonical_bytes

#: Security parameter: bytes charged for the aggregate tag (mirrors the
#: per-signature κ = 32 of the message-size accounting model).
KAPPA = 32


def bitmap_of(signers: Iterable[int]) -> int:
    """Pack a set of player ids into a bitmap (bit ``i`` ⇔ player ``i``)."""
    bitmap = 0
    for signer in signers:
        if signer < 0:
            raise ValueError("signer ids must be non-negative")
        bitmap |= 1 << signer
    return bitmap


def ids_of(bitmap: int) -> Tuple[int, ...]:
    """Unpack a signer bitmap back into the sorted tuple of player ids."""
    if bitmap < 0:
        raise ValueError("signer bitmap must be non-negative")
    ids = []
    index = 0
    while bitmap:
        if bitmap & 1:
            ids.append(index)
        bitmap >>= 1
        index += 1
    return tuple(ids)


def aggregate_tag(tags_by_signer: Mapping[int, str]) -> str:
    """Combine per-signer tags into the certificate's aggregate tag.

    The combination is a hash over the *sorted* (signer, tag) pairs, so
    it is order-independent and needs no secret material — any party
    holding the quorum's statements can aggregate them.  An empty tag
    map is rejected: a certificate signed by nobody certifies nothing.
    """
    if not tags_by_signer:
        raise ValueError("cannot combine an empty tag map")
    payload = canonical_bytes(tuple(sorted(tags_by_signer.items())))
    return hashlib.sha256(b"repro-agg|" + payload).hexdigest()


def statement_value(phase: str, round_number: int, digest: str) -> Tuple[Any, ...]:
    """The canonical tuple a statement signature covers."""
    return ("prft", phase, round_number, digest)


@dataclass(frozen=True)
class AggregateQC:
    """A whole quorum certificate in O(κ + n/8) bytes.

    Binds one canonical statement value (phase, round, digest) to the
    exact signer set (as a bitmap) and their combined tag.  Verify with
    :meth:`repro.crypto.registry.KeyRegistry.verify_aggregate`, which
    checks it against its own pin; never trust the bitmap of an
    unverified aggregate.
    """

    phase: str
    round_number: int
    digest: str
    signer_bitmap: int
    agg_tag: str

    def canonical(self) -> Any:
        return (
            "agg-qc",
            self.phase,
            self.round_number,
            self.digest,
            self.signer_bitmap,
            self.agg_tag,
        )

    @property
    def signers(self) -> Tuple[int, ...]:
        """The bitmap's member ids (memoized; the value is frozen)."""
        cached = self.__dict__.get("_signers")
        if cached is None:
            cached = ids_of(self.signer_bitmap)
            object.__setattr__(self, "_signers", cached)
        return cached

    @property
    def signer_count(self) -> int:
        return len(self.signers)

    @property
    def size_bytes(self) -> int:
        """κ for the aggregate tag plus the packed bitmap bytes.

        This replaces the 2κ·|quorum| a statement-set justification
        charges, which is the whole point of the representation.
        """
        bits = self.signer_bitmap.bit_length()
        return KAPPA + max(1, (bits + 7) // 8)


def aggregate_statements(statements: Iterable[Any]) -> AggregateQC:
    """Build an :class:`AggregateQC` from uniform signed statements.

    Every statement must pin the same (phase, round, digest); a signer
    appearing twice must carry the same tag (identical statements are
    deduplicated, conflicting ones rejected — an aggregate is
    digest-uniform by construction, so it can never smuggle an
    equivocation).
    """
    pool = list(statements)
    if not pool:
        raise ValueError("cannot aggregate an empty statement set")
    head = pool[0]
    tags: Dict[int, str] = {}
    for statement in pool:
        if (
            statement.phase != head.phase
            or statement.round_number != head.round_number
            or statement.digest != head.digest
        ):
            raise ValueError("aggregated statements must share (phase, round, digest)")
        existing = tags.get(statement.signer)
        tag = statement.signature.tag
        if existing is not None and existing != tag:
            raise ValueError(f"conflicting tags for signer {statement.signer}")
        tags[statement.signer] = tag
    return AggregateQC(
        phase=head.phase,
        round_number=head.round_number,
        digest=head.digest,
        signer_bitmap=bitmap_of(tags),
        agg_tag=aggregate_tag(tags),
    )
