"""Proof-of-Fraud construction and verification (Figure 4, Definition 6).

A fraud proof is a pair of validly signed statements by the same player
in the same phase of the same round over *different* digests — exactly
the π_ds deviation.  Unforgeability of signatures makes the proof
convincing to any verifier holding the trusted setup: only the accused
could have produced both signatures.

Two implementations are provided:

- :func:`construct_pof` — the paper's batch ConstructProof procedure
  (Figure 4): scan a pool of statements pairwise and return one proof
  per guilty player;
- :class:`FraudDetector` — an incremental, O(1)-per-statement detector
  replicas use online (same output, indexed by (round, phase, signer)).

The paper restricts the scan to the commit quorums carried by Reveal
messages; we scan vote statements as well (they are carried inside
Commit justifications), which strictly strengthens accountability —
a failed fork attempt whose conflicting *votes* never produced
conflicting commits is still attributable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Container, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.core.messages import (
    KAPPA,
    SignedStatement,
    expand_aggregate,
    verify_quorum,
    verify_statement,
)
from repro.crypto.aggregate import AggregateQC
from repro.crypto.registry import KeyRegistry


@dataclass(frozen=True, order=True)
class FraudProof:
    """Two conflicting signed statements by one player."""

    first: SignedStatement
    second: SignedStatement

    def __post_init__(self) -> None:
        if not self.first.conflicts_with(self.second):
            raise ValueError("statements do not form a double-sign pair")

    @property
    def accused(self) -> int:
        return self.first.signer

    @property
    def round_number(self) -> int:
        return self.first.round_number

    @property
    def phase(self) -> str:
        return self.first.phase

    def canonical(self) -> Tuple[Any, ...]:
        return ("pof", self.first.canonical(), self.second.canonical())

    @property
    def size_bytes(self) -> int:
        return self.first.size_bytes + self.second.size_bytes

    def verify(self, registry: KeyRegistry) -> bool:
        """Both signatures check out against the trusted setup.

        Structural conflict is enforced at construction; verification
        is what makes the accusation binding (Definition 6's V(·)).
        Goes through the batch path so repeat checks of a circulating
        proof (every honest replica re-verifies every Expose) read the
        stamps its two statements carry.
        """
        return verify_quorum(registry, (self.first, self.second))


def construct_pof(
    statements: Iterable[SignedStatement],
    registry: Optional[KeyRegistry] = None,
) -> Dict[int, FraudProof]:
    """The batch ConstructProof of Figure 4.

    Scans the pool for conflicting pairs and returns one proof per
    guilty player.  If ``registry`` is given, statements that fail
    signature verification are discarded first (so a forged statement
    can never frame an honest player).
    """
    pool: List[SignedStatement] = list(statements)
    if registry is not None:
        pool = [stmt for stmt in pool if verify_statement(registry, stmt)]

    by_slot: Dict[Tuple[int, str, int], Dict[str, SignedStatement]] = {}
    proofs: Dict[int, FraudProof] = {}
    for stmt in pool:
        slot = (stmt.round_number, stmt.phase, stmt.signer)
        seen = by_slot.setdefault(slot, {})
        if stmt.digest in seen:
            continue
        if seen and stmt.signer not in proofs:
            other = next(iter(seen.values()))
            first, second = sorted([other, stmt])
            proofs[stmt.signer] = FraudProof(first=first, second=second)
        seen[stmt.digest] = stmt
    return proofs


def guilty_players(proofs: Iterable[FraudProof]) -> Set[int]:
    """The set of players a collection of proofs accuses."""
    return {proof.accused for proof in proofs}


def verify_proofs(
    proofs: Iterable[FraudProof],
    registry: KeyRegistry,
) -> Set[int]:
    """Definition 6's verification algorithm V(π).

    Returns the set of players accused by *valid* proofs; invalid
    proofs accuse nobody.
    """
    return {proof.accused for proof in proofs if proof.verify(registry)}


@dataclass
class FraudDetector:
    """Incremental double-sign detection for online use by replicas.

    Statements are absorbed one by one; the first conflicting pair per
    (round, phase, signer) slot yields a proof.  ``registry`` (when
    set) rejects forged statements on absorption.

    A replica is handed each statement many times — by its signer,
    then inside every justification quoting it — so :meth:`absorb`
    answers from the index before verifying, and
    :meth:`absorb_justification` drops indexed members wholesale.
    """

    registry: Optional[KeyRegistry] = None
    # round → (phase, signer) → the first statement indexed for the
    # slot: the one any later, conflicting digest is paired with.
    _seen: Dict[int, Dict[Tuple[str, int], SignedStatement]] = field(default_factory=dict)
    # round → every statement indexed for the round, as one set, so a
    # justification's unseen members are a C-level set difference.
    _absorbed: Dict[int, Set[SignedStatement]] = field(default_factory=dict)
    _proofs: Dict[int, FraudProof] = field(default_factory=dict)
    # round → (phase, digest) → bitmap of signers already absorbed from
    # aggregate certificates; the memo behind absorb_aggregate's O(1)
    # re-absorption of circulating certs.
    _absorbed_aggregates: Dict[int, Dict[Tuple[str, str], int]] = field(default_factory=dict)

    def absorb(self, statement: SignedStatement) -> Optional[FraudProof]:
        """Add one statement; return a new proof if it exposes fraud.

        A statement whose (round, phase, signer, digest) is already
        indexed adds nothing whether or not its tag is genuine, so the
        index is consulted before the signature is.
        """
        round_number = statement.round_number
        slot = (statement.phase, statement.signer)
        slots = self._seen.get(round_number)
        first = slots.get(slot) if slots is not None else None
        if first is not None and (
            first.digest == statement.digest or statement in self._absorbed[round_number]
        ):
            return None
        if self.registry is not None and not verify_statement(self.registry, statement):
            return None
        if slots is None:
            slots = self._seen[round_number] = {}
            self._absorbed[round_number] = set()
        self._absorbed[round_number].add(statement)
        if first is None:
            slots[slot] = statement
            return None
        if statement.signer in self._proofs:
            return None
        proof = FraudProof(*sorted((first, statement)))
        self._proofs[statement.signer] = proof
        return proof

    def absorb_all(self, statements: Iterable[SignedStatement]) -> List[FraudProof]:
        """Absorb many; return the newly constructed proofs."""
        fresh = []
        for statement in statements:
            proof = self.absorb(statement)
            if proof is not None:
                fresh.append(proof)
        return fresh

    def absorb_justification(
        self,
        justification: Union[Iterable[SignedStatement], AggregateQC],
        phases: Optional[Container[str]] = None,
    ) -> List[FraudProof]:
        """Absorb what a message carries besides its own statement: a
        quorum justification in either wire shape, or view-change
        evidence.

        Members need not be verified (:meth:`absorb` and
        :meth:`absorb_aggregate` do that); those outside ``phases``,
        when given, are ignored.  A statement set's already-indexed
        members are removed by one set difference over the shared
        statement objects, so the n-th copy of a circulating
        certificate costs no per-member work; the rest are absorbed in
        (signer, phase, digest) order — never the set's own iteration
        order, which follows ``PYTHONHASHSEED`` and would decide which
        conflicting pair becomes the proof.
        """
        if isinstance(justification, AggregateQC):
            if phases is not None and justification.phase not in phases:
                return []
            return self.absorb_aggregate(justification)
        fresh = justification
        if isinstance(justification, frozenset) and justification:
            known = self._absorbed.get(next(iter(justification)).round_number)
            if known:
                fresh = justification - known
            if len(fresh) > 1:
                fresh = sorted(fresh, key=lambda s: (s.signer, s.phase, s.digest))
        return self.absorb_all(
            statement for statement in fresh if phases is None or statement.phase in phases
        )

    def absorb_aggregate(self, aggregate: AggregateQC) -> List[FraudProof]:
        """Absorb an aggregate certificate's per-signer evidence.

        Verifies the aggregate first (an invalid one contributes no
        evidence and, crucially, never frames the honest players its
        forged bitmap names), then expands only the signers this
        detector has not yet absorbed for the certificate's
        (round, phase, digest) slot — a bitmap memo that makes the
        n-fold re-absorption of a circulating certificate O(1) after
        the first sight.  Requires a registry: without the trusted
        setup neither verification nor expansion is possible.
        """
        if self.registry is None:
            raise ValueError("absorb_aggregate needs a registry for verification")
        key = (aggregate.phase, aggregate.digest)
        seen_bitmap = self._absorbed_aggregates.get(aggregate.round_number, {}).get(key, 0)
        fresh_bitmap = aggregate.signer_bitmap & ~seen_bitmap
        if not fresh_bitmap:
            return []
        if not self.registry.verify_aggregate(aggregate):
            return []
        self._absorbed_aggregates.setdefault(aggregate.round_number, {})[key] = (
            seen_bitmap | aggregate.signer_bitmap
        )
        return self.absorb_all(
            statement
            for statement in expand_aggregate(self.registry, aggregate)
            if (fresh_bitmap >> statement.signer) & 1
        )

    def proofs(self) -> Dict[int, FraudProof]:
        """All proofs constructed so far, keyed by accused player."""
        return dict(self._proofs)

    def guilty(self) -> Set[int]:
        return set(self._proofs)

    def guilty_in_round(self, round_number: int) -> Set[int]:
        """Players with a constructed proof in ``round_number``."""
        return {
            accused
            for accused, proof in self._proofs.items()
            if proof.round_number == round_number
        }

    def proofs_for_round(self, round_number: int) -> FrozenSet[FraudProof]:
        return frozenset(
            proof for proof in self._proofs.values() if proof.round_number == round_number
        )

    def prune_below(self, round_number: int) -> None:
        """Drop per-round working state for rounds below ``round_number``.

        Retention hook for bounded-memory soak runs: the statement
        index and the aggregate-absorption memo only matter while a
        round's statements can still arrive, so a deployment that prunes
        finalized round state may bound them to the same window.  All
        three are keyed by round, so this deletes whole rounds.
        Constructed proofs are *evidence* — they are never pruned, and
        ``guilty``/``proofs_for_round`` stay complete for the lifetime
        of the run.  A statement for a pruned round re-absorbed later
        can no longer pair with its discarded sibling; callers accept
        that the detection window equals the retention window.
        """
        for index in (self._seen, self._absorbed, self._absorbed_aggregates):
            for stale in [r for r in index if r < round_number]:
                del index[stale]
