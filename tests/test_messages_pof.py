"""Tests for pRFT wire formats and Proof-of-Fraud (Figure 4, Def. 6)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.messages import (
    CommitMessage,
    Phase,
    ProposeMessage,
    SignedStatement,
    VoteMessage,
    make_statement,
    statement_value,
    verify_statement,
)
from repro.core.pof import (
    FraudDetector,
    FraudProof,
    construct_pof,
    guilty_players,
    verify_proofs,
)
from repro.crypto.registry import KeyRegistry
from repro.crypto.signatures import Signature
from repro.ledger.block import Block, genesis_block


@pytest.fixture()
def registry():
    return KeyRegistry.trusted_setup(range(6))


def _stmt(registry, signer, phase="vote", round_number=0, digest="h1"):
    return make_statement(registry.keypair_of(signer), phase, round_number, digest)


class TestSignedStatement:
    def test_roundtrip(self, registry):
        stmt = _stmt(registry, 0)
        assert verify_statement(registry, stmt)
        assert stmt.signer == 0

    def test_tampered_digest_fails(self, registry):
        stmt = _stmt(registry, 0, digest="h1")
        tampered = SignedStatement(
            phase=stmt.phase,
            round_number=stmt.round_number,
            digest="h2",
            signature=stmt.signature,
        )
        assert not verify_statement(registry, tampered)

    def test_replay_to_other_round_fails(self, registry):
        """Footnote 11: round number is inside the signed value."""
        stmt = _stmt(registry, 0, round_number=0)
        replayed = SignedStatement(
            phase=stmt.phase, round_number=1, digest=stmt.digest, signature=stmt.signature
        )
        assert not verify_statement(registry, replayed)

    def test_replay_to_other_phase_fails(self, registry):
        stmt = _stmt(registry, 0, phase="vote")
        replayed = SignedStatement(
            phase="commit",
            round_number=stmt.round_number,
            digest=stmt.digest,
            signature=stmt.signature,
        )
        assert not verify_statement(registry, replayed)

    def test_conflicts_with(self, registry):
        a = _stmt(registry, 0, digest="h1")
        b = _stmt(registry, 0, digest="h2")
        c = _stmt(registry, 1, digest="h2")
        d = _stmt(registry, 0, digest="h1", round_number=1)
        assert a.conflicts_with(b)
        assert not a.conflicts_with(a)          # same digest
        assert not a.conflicts_with(c)          # different signer
        assert not a.conflicts_with(d) or d.round_number == a.round_number

    def test_statement_value_shape(self):
        assert statement_value("vote", 3, "h") == ("prft", "vote", 3, "h")


class TestMessageSizes:
    def test_vote_size(self, registry):
        stmt = _stmt(registry, 0)
        vote = VoteMessage(statement=stmt, propose_signature=stmt.signature)
        assert vote.size_bytes == stmt.size_bytes + 32

    def test_commit_size_grows_with_justification(self, registry):
        stmt = _stmt(registry, 0, phase="commit")
        votes_small = frozenset({_stmt(registry, 1)})
        votes_large = frozenset(_stmt(registry, i) for i in range(4))
        small = CommitMessage(statement=stmt, justification=votes_small)
        large = CommitMessage(statement=stmt, justification=votes_large)
        assert large.size_bytes > small.size_bytes

    def test_propose_includes_block(self, registry):
        block = Block(0, 0, genesis_block().digest, ())
        stmt = _stmt(registry, 0, phase="propose", digest=block.digest)
        message = ProposeMessage(block=block, statement=stmt)
        assert message.size_bytes == block.size_estimate_bytes + stmt.size_bytes


class TestFraudProof:
    def test_valid_pair(self, registry):
        proof = FraudProof(
            first=_stmt(registry, 0, digest="h1"), second=_stmt(registry, 0, digest="h2")
        )
        assert proof.accused == 0
        assert proof.verify(registry)

    def test_non_conflicting_pair_rejected(self, registry):
        with pytest.raises(ValueError):
            FraudProof(first=_stmt(registry, 0), second=_stmt(registry, 1, digest="h2"))

    def test_forged_signature_fails_verification(self, registry):
        good = _stmt(registry, 0, digest="h1")
        forged = SignedStatement(
            phase="vote", round_number=0, digest="h2", signature=Signature(0, "00" * 32)
        )
        proof = FraudProof(first=good, second=forged)
        assert not proof.verify(registry)
        assert verify_proofs([proof], registry) == set()


class TestConstructPof:
    def test_no_conflicts_no_proofs(self, registry):
        statements = [_stmt(registry, i) for i in range(4)]
        assert construct_pof(statements) == {}

    def test_detects_each_double_signer(self, registry):
        statements = []
        for signer in (0, 1):
            statements.append(_stmt(registry, signer, digest="h1"))
            statements.append(_stmt(registry, signer, digest="h2"))
        statements.append(_stmt(registry, 2, digest="h1"))
        proofs = construct_pof(statements)
        assert set(proofs) == {0, 1}
        assert guilty_players(proofs.values()) == {0, 1}

    def test_same_digest_twice_is_not_fraud(self, registry):
        stmt = _stmt(registry, 0)
        assert construct_pof([stmt, stmt]) == {}

    def test_cross_phase_not_fraud(self, registry):
        statements = [
            _stmt(registry, 0, phase="vote", digest="h1"),
            _stmt(registry, 0, phase="commit", digest="h2"),
        ]
        assert construct_pof(statements) == {}

    def test_cross_round_not_fraud(self, registry):
        statements = [
            _stmt(registry, 0, round_number=0, digest="h1"),
            _stmt(registry, 0, round_number=1, digest="h2"),
        ]
        assert construct_pof(statements) == {}

    def test_registry_filter_blocks_framing(self, registry):
        """A forged conflicting statement cannot frame an honest player."""
        good = _stmt(registry, 0, digest="h1")
        forged = SignedStatement(
            phase="vote", round_number=0, digest="h2", signature=Signature(0, "ff" * 32)
        )
        assert construct_pof([good, forged], registry=registry) == {}
        # without the registry the forgery would structurally "work"
        assert set(construct_pof([good, forged])) == {0}

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.sampled_from(["h1", "h2", "h3"]),
                st.sampled_from(["genuine", "genuine", "duplicate", "forged"]),
            ),
            max_size=24,
        )
    )
    def test_batch_matches_incremental(self, draws):
        """Property: Figure 4's batch scan and the online detector
        accuse exactly the same players — with duplicates (a second,
        equal object) and forged tags interleaved at every position,
        including forgeries that collide with an already-indexed
        (round, phase, signer, digest), which the detector answers from
        its index without verifying."""
        shared = KeyRegistry.trusted_setup(range(6), seed="pof-prop")
        statements = []
        for signer, digest, kind in draws:
            genuine = _stmt(shared, signer, digest=digest)
            if kind == "forged":
                statements.append(
                    SignedStatement("vote", 0, digest, Signature(signer, "ee" * 32))
                )
            else:
                statements.append(genuine)
            if kind == "duplicate":
                statements.append(_stmt(shared, signer, digest=digest))
        genuine_only = [stmt for stmt in statements if verify_statement(shared, stmt)]
        batch = construct_pof(statements, registry=shared)
        assert set(batch) == set(construct_pof(genuine_only))
        detector = FraudDetector(registry=shared)
        detector.absorb_all(statements)
        assert detector.guilty() == set(batch)
        # Same evidence offered as one bundle, then offered again.
        bundled = FraudDetector(registry=shared)
        fresh = bundled.absorb_justification(frozenset(statements))
        assert {proof.accused for proof in fresh} == bundled.guilty() == set(batch)
        assert bundled.absorb_justification(frozenset(statements)) == []
        for proof in list(detector.proofs().values()) + fresh:
            assert proof.verify(shared)

    @given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["h1", "h2", "h3"])), max_size=24))
    def test_accusations_are_exactly_double_signers(self, pairs):
        """Property: a player is accused iff it signed ≥ 2 digests."""
        shared = KeyRegistry.trusted_setup(range(6), seed="pof-prop")
        statements = [_stmt(shared, signer, digest=digest) for signer, digest in pairs]
        digests_by_signer = {}
        for signer, digest in pairs:
            digests_by_signer.setdefault(signer, set()).add(digest)
        expected = {s for s, ds in digests_by_signer.items() if len(ds) >= 2}
        assert set(construct_pof(statements, registry=shared)) == expected


class TestFraudDetector:
    def test_absorb_returns_proof_once(self, registry):
        detector = FraudDetector(registry=registry)
        assert detector.absorb(_stmt(registry, 0, digest="h1")) is None
        proof = detector.absorb(_stmt(registry, 0, digest="h2"))
        assert proof is not None and proof.accused == 0
        assert detector.absorb(_stmt(registry, 0, digest="h3")) is None
        assert detector.guilty() == {0}

    def test_guilty_in_round(self, registry):
        detector = FraudDetector(registry=registry)
        detector.absorb_all(
            [
                _stmt(registry, 0, round_number=0, digest="h1"),
                _stmt(registry, 0, round_number=0, digest="h2"),
                _stmt(registry, 1, round_number=1, digest="h1"),
                _stmt(registry, 1, round_number=1, digest="h2"),
            ]
        )
        assert detector.guilty_in_round(0) == {0}
        assert detector.guilty_in_round(1) == {1}
        assert {p.accused for p in detector.proofs_for_round(0)} == {0}

    def test_forged_statement_ignored(self, registry):
        detector = FraudDetector(registry=registry)
        detector.absorb(_stmt(registry, 0, digest="h1"))
        forged = SignedStatement("vote", 0, "h2", Signature(0, "aa" * 32))
        assert detector.absorb(forged) is None
        assert detector.guilty() == set()

    def test_forgery_colliding_with_indexed_statement_changes_nothing(self, registry):
        """The index is consulted before the signature: a forged tag on
        an already-indexed (round, phase, signer, digest) is dropped
        unverified — it proves nothing and must not replace the genuine
        statement a later conflict is paired with."""
        detector = FraudDetector(registry=registry)
        genuine = _stmt(registry, 0, digest="h1")
        assert detector.absorb(genuine) is None
        collision = SignedStatement("vote", 0, "h1", Signature(0, "aa" * 32))
        verified = (registry.cache_hits, registry.cache_misses)
        assert detector.absorb(collision) is None
        # answered from the index
        assert (registry.cache_hits, registry.cache_misses) == verified
        assert detector.guilty() == set()
        proof = detector.absorb(_stmt(registry, 0, digest="h2"))
        assert proof is not None and genuine in (proof.first, proof.second)
        assert collision not in (proof.first, proof.second)
        assert proof.verify(registry)
        # Same for a forgery colliding with the slot's *second* digest.
        late = SignedStatement("vote", 0, "h2", Signature(0, "bb" * 32))
        assert detector.absorb(late) is None
        assert detector.proofs() == {0: proof}

    def test_proofs_verify(self, registry):
        detector = FraudDetector(registry=registry)
        detector.absorb_all(
            [_stmt(registry, 2, digest="h1"), _stmt(registry, 2, digest="h2")]
        )
        assert verify_proofs(detector.proofs().values(), registry) == {2}


class TestAbsorbJustification:
    """The detector's one entry point for what a message carries."""

    def _votes(self, registry, signers, digest="h1", round_number=0):
        return frozenset(
            _stmt(registry, i, round_number=round_number, digest=digest) for i in signers
        )

    def test_already_indexed_members_cost_no_absorb(self, registry, monkeypatch):
        detector = FraudDetector(registry=registry)
        votes = self._votes(registry, range(4))
        for vote in list(votes)[:3]:  # received directly, one by one
            detector.absorb(vote)
        absorbed = []
        real_absorb = FraudDetector.absorb
        monkeypatch.setattr(
            FraudDetector, "absorb",
            lambda self, stmt: absorbed.append(stmt) or real_absorb(self, stmt),
        )
        assert detector.absorb_justification(votes) == []
        assert len(absorbed) == 1  # only the member never seen before
        assert detector.absorb_justification(votes) == []
        # An equal certificate built from *other* objects is skipped too.
        assert detector.absorb_justification(self._votes(registry, range(4))) == []
        assert len(absorbed) == 1

    def test_conflicting_certificate_yields_one_proof_per_double_signer(self, registry):
        detector = FraudDetector(registry=registry)
        assert detector.absorb_justification(self._votes(registry, range(5), "h1")) == []
        other = self._votes(registry, [3, 5, 1], "h2")
        proofs = detector.absorb_justification(other)
        # Proofs come out in signer order, never the frozenset's own
        # (PYTHONHASHSEED-dependent) iteration order.
        assert [proof.accused for proof in proofs] == [1, 3]
        assert detector.guilty() == {1, 3}
        assert detector.absorb_justification(other) == []

    def test_unverified_members_are_verified_here(self, registry):
        """Late payloads and view-change evidence arrive unverified: a
        forged member frames nobody, however often it is offered."""
        detector = FraudDetector(registry=registry)
        detector.absorb_justification(self._votes(registry, range(3), "h1"))
        forged = SignedStatement("vote", 0, "h2", Signature(1, "cc" * 32))
        bundle = frozenset({forged, _stmt(registry, 2, digest="h2")})
        for _ in range(2):
            detector.absorb_justification(bundle)
            assert detector.guilty() == {2}

    def test_phase_filter_and_plain_iterables(self, registry):
        detector = FraudDetector(registry=registry)
        stalled = [
            _stmt(registry, 0, phase="view-change", digest="vote"),
            _stmt(registry, 0, phase="view-change", digest="commit"),
        ]
        assert detector.absorb_justification(stalled, phases={"vote", "commit"}) == []
        assert detector.guilty() == set()
        assert [p.accused for p in detector.absorb_justification(stalled)] == [0]

    def test_bundle_spanning_rounds(self, registry):
        detector = FraudDetector(registry=registry)
        detector.absorb_justification(self._votes(registry, range(3), "h1", round_number=0))
        detector.absorb_justification(self._votes(registry, range(3), "h1", round_number=1))
        mixed = self._votes(registry, [0], "h2", 0) | self._votes(registry, [1], "h2", 1)
        assert {p.accused for p in detector.absorb_justification(mixed)} == {0, 1}

    def test_prune_below_drops_every_per_round_index(self, registry):
        detector = FraudDetector(registry=registry)
        for round_number in range(6):
            detector.absorb_justification(
                self._votes(registry, range(4), "h1", round_number=round_number)
            )
        detector.absorb_justification(self._votes(registry, [2], "h2", round_number=1))
        detector.prune_below(4)
        assert sorted(detector._seen) == sorted(detector._absorbed) == [4, 5]
        assert detector.guilty() == {2}  # evidence outlives the window
        # A pruned round starts from scratch: nothing to pair with.
        assert detector.absorb_justification(self._votes(registry, [3], "h2", 1)) == []

