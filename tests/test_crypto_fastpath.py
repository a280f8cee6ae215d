"""The crypto fast path: serialisation memoization, the verdict stamped
on the signed object, batch quorum verification, the certificate memo
and the backend knob.

The security-critical property under test: remembering verdicts must
never weaken the Recv-boundary checks — only a ``True`` verdict is
stamped, on the one object that earned it, so a forged, re-attributed
or re-signed copy is another object and has its tag derived from the
trusted-setup secret.
"""

import dataclasses
import gc
import json

import pytest

from repro.analysis.accountability import check_accountability
from repro.core.messages import (
    SignedStatement,
    make_statement,
    statement_value,
    verify_quorum,
    verify_statement,
)
from repro.crypto.aggregate import AggregateQC, aggregate_statements
from repro.crypto.backends import backend_names, get_backend
from repro.crypto.hashing import canonical_bytes
from repro.crypto.registry import KeyRegistry
from repro.crypto.signatures import Signature, sign
from repro.experiments.registry import Scenario, get_scenario
from repro.experiments.results import RunRecord

DIGEST = "ab" * 32


def _counts(registry):
    """(stamp reads, tag derivations) of statement checks so far."""
    return registry.cache_hits, registry.cache_misses


# ----------------------------------------------------------------------
# Serialisation memoization
# ----------------------------------------------------------------------
class TestMemoization:
    def test_canonical_bytes_memoized_on_frozen_objects(self):
        stmt = make_statement(KeyRegistry.trusted_setup([0]).keypair_of(0), "vote", 1, DIGEST)
        first = canonical_bytes(stmt)
        assert canonical_bytes(stmt) is first  # same object: served from the memo

    def test_statement_value_bytes_match_fresh_serialisation(self):
        registry = KeyRegistry.trusted_setup([0])
        stmt = make_statement(registry.keypair_of(0), "vote", 3, DIGEST)
        assert stmt.value_bytes() == canonical_bytes(statement_value("vote", 3, DIGEST))
        assert stmt.value_bytes() is stmt.value_bytes()

    def test_memo_does_not_change_equality_or_hash(self):
        registry = KeyRegistry.trusted_setup([0])
        a = make_statement(registry.keypair_of(0), "vote", 1, DIGEST)
        b = make_statement(registry.keypair_of(0), "vote", 1, DIGEST)
        a.value_bytes()  # memoize one side only
        assert a == b
        assert hash(a) == hash(b)


# ----------------------------------------------------------------------
# Stamp reads and tag derivations, as the registry counts them
# ----------------------------------------------------------------------
class TestVerificationCache:
    def setup_method(self):
        self.registry = KeyRegistry.trusted_setup(range(4), verify_cache_size=64)

    def _statement(self, player=0, phase="vote", round_number=1, digest=DIGEST):
        return make_statement(
            self.registry.keypair_of(player), phase, round_number, digest
        )

    def test_repeat_verification_hits_cache(self):
        stmt = self._statement()
        assert verify_statement(self.registry, stmt)
        hits, misses = _counts(self.registry)
        assert verify_statement(self.registry, stmt)
        assert _counts(self.registry) == (hits + 1, misses)

    def test_forged_tag_rejected_after_cache_hit_on_same_digest(self):
        """The attack the stamp must defeat: verify a valid signature
        over a value, then present a forged tag over the *same* value."""
        stmt = self._statement()
        assert verify_statement(self.registry, stmt)
        assert verify_statement(self.registry, stmt)  # answered from the stamp
        forged = SignedStatement(
            phase=stmt.phase,
            round_number=stmt.round_number,
            digest=stmt.digest,
            signature=Signature(signer=0, tag="00" * 32),
        )
        assert not verify_statement(self.registry, forged)
        # ...and the honest statement is still good afterwards.
        assert verify_statement(self.registry, stmt)

    def test_reattributed_tag_rejected_after_cache_hit(self):
        """Player 1 claiming player 0's verified tag is another object,
        carries no stamp and fails tag re-derivation."""
        stmt = self._statement(player=0)
        assert verify_statement(self.registry, stmt)
        stolen = SignedStatement(
            phase=stmt.phase,
            round_number=stmt.round_number,
            digest=stmt.digest,
            signature=Signature(signer=1, tag=stmt.signature.tag),
        )
        assert not verify_statement(self.registry, stolen)

    def test_negative_verdicts_are_never_stamped(self):
        """A forgery is rejected on every check, each check derives its
        tag afresh (one cache miss), and nothing is ever stamped on it."""
        stmt = self._statement()
        forged = SignedStatement(
            phase=stmt.phase,
            round_number=stmt.round_number,
            digest=stmt.digest,
            signature=Signature(signer=0, tag="11" * 32),
        )
        for _ in range(3):
            hits, misses = _counts(self.registry)
            assert not verify_statement(self.registry, forged)
            assert _counts(self.registry) == (hits, misses + 1)
            assert "_verified" not in forged.__dict__

    def test_cache_disabled_still_correct(self):
        registry = KeyRegistry.trusted_setup(range(2), verify_cache_size=0)
        assert not registry.cache_enabled
        stmt = make_statement(registry.keypair_of(0), "vote", 1, DIGEST)
        assert verify_statement(registry, stmt)
        assert _counts(registry) == (0, 0)
        assert "_verified" not in stmt.__dict__

    @pytest.mark.parametrize("size", [True, 2.5, "7", -5])
    def test_a_nonsense_cache_size_is_refused_by_name(self, size):
        with pytest.raises(ValueError, match="verify_cache_size must be a non-negative int"):
            KeyRegistry(verify_cache_size=size)

    def test_a_negative_crypto_cache_size_is_refused_by_name(self):
        with pytest.raises(ValueError, match="crypto_cache_size must be non-negative"):
            Scenario(name="x", crypto_cache_size=-5)


# ----------------------------------------------------------------------
# The verdict stamped on the signed object
# ----------------------------------------------------------------------
class TestVerdictOnTheObject:
    """A signed object that verified carries the registry's mark; the
    property under test is that nothing else can ride it."""

    def setup_method(self):
        self.registry = KeyRegistry.trusted_setup(range(4))
        self.stmt = make_statement(self.registry.keypair_of(0), "vote", 1, DIGEST)
        assert verify_statement(self.registry, self.stmt)

    def test_a_repeat_is_answered_from_the_stamp_and_counted_as_a_hit(self, monkeypatch):
        hits, misses = _counts(self.registry)
        monkeypatch.setattr(KeyRegistry, "verify", None)  # never reached
        assert verify_statement(self.registry, self.stmt)
        assert _counts(self.registry) == (hits + 1, misses)

    def test_a_reattributed_copy_of_a_stamped_statement_is_rejected(self):
        stolen = dataclasses.replace(self.stmt, signature=Signature(1, self.stmt.signature.tag))
        assert not verify_statement(self.registry, stolen)
        forged = dataclasses.replace(self.stmt, signature=Signature(0, "00" * 32))
        assert not verify_statement(self.registry, forged)
        assert verify_statement(self.registry, self.stmt)

    def test_a_stamp_does_not_vouch_under_another_registry(self):
        other = KeyRegistry.trusted_setup(range(4), seed="elsewhere")
        assert not verify_statement(other, self.stmt)
        assert verify_statement(self.registry, self.stmt)

    def test_a_flipped_bit_on_a_stamped_certificate_is_rejected(self):
        aggregate = aggregate_statements(
            make_statement(self.registry.keypair_of(i), "vote", 1, DIGEST) for i in range(3)
        )
        assert self.registry.verify_aggregate(aggregate)
        assert self.registry.verify_aggregate(aggregate)  # from the stamp
        for bit in range(4):
            flipped = dataclasses.replace(aggregate, signer_bitmap=aggregate.signer_bitmap ^ (1 << bit))
            assert not self.registry.verify_aggregate(flipped), bit
        # An equal copy is another object: derived once, then stamped.
        copy = dataclasses.replace(aggregate)
        hits, misses = self.registry.agg_cache_hits, self.registry.agg_cache_misses
        assert self.registry.verify_aggregate(copy)
        assert (self.registry.agg_cache_hits, self.registry.agg_cache_misses) == (hits, misses + 1)
        assert copy.__dict__["_verified"] is self.registry.verified_mark
        assert self.registry.verify_aggregate(copy)
        assert self.registry.agg_cache_hits == hits + 1

    def test_the_mark_holds_nothing_the_collector_walks(self):
        mark = self.registry.verified_mark
        assert self.stmt.__dict__["_verified"] is mark
        assert gc.get_referents(mark) == [] and not gc.is_tracked(mark)

    @pytest.mark.parametrize("name", ["honest", "honest-hotstuff-aggregate"])
    def test_with_the_cache_off_nothing_is_stamped_or_counted(self, name):
        scenario = get_scenario("honest").with_params(n=4, rounds=1, crypto_cache_size=0)
        if name == "honest-hotstuff-aggregate":
            scenario = scenario.with_params(
                protocol="hotstuff", tolerance="bft", aggregate_certs=True
            )
        def signed_objects():
            return [o for o in gc.get_objects() if isinstance(o, (SignedStatement, AggregateQC))]

        # self.stmt and other tests' objects, kept alive so no id is reused
        earlier = {id(obj): obj for obj in signed_objects()}
        result = scenario.run(seed=0)
        registry = result.ctx.registry
        assert registry.verified_mark is None
        signed = [obj for obj in signed_objects() if id(obj) not in earlier]
        assert signed
        assert not any("_verified" in obj.__dict__ for obj in signed)
        assert (registry.cache_hits, registry.cache_misses) == (0, 0)
        assert (registry.agg_cache_hits, registry.agg_cache_misses) == (0, 0)


# ----------------------------------------------------------------------
# Batch quorum verification
# ----------------------------------------------------------------------
class TestVerifyQuorum:
    def setup_method(self):
        self.registry = KeyRegistry.trusted_setup(range(4))

    def _quorum(self, signers=range(3), phase="vote", round_number=1, digest=DIGEST):
        return [
            make_statement(self.registry.keypair_of(i), phase, round_number, digest)
            for i in signers
        ]

    def test_valid_quorum_accepted(self):
        statements = self._quorum()
        assert verify_quorum(
            self.registry, statements, phase="vote", round_number=1,
            digest=DIGEST, minimum=3,
        )

    def test_short_quorum_rejected(self):
        assert not verify_quorum(
            self.registry, self._quorum(signers=range(2)), minimum=3
        )

    def test_duplicate_signers_do_not_count_twice(self):
        statements = self._quorum(signers=[0, 0, 1])
        # Two distinct statements per duplicate signer (different rounds
        # collapse is not allowed here, so reuse the same statement).
        assert not verify_quorum(self.registry, statements, minimum=3)

    def test_structural_mismatch_rejected_without_crypto(self):
        statements = self._quorum(round_number=2)
        before = self.registry.cache_misses
        assert not verify_quorum(self.registry, statements, round_number=1)
        assert self.registry.cache_misses == before  # no tag derived

    def test_one_forged_member_poisons_the_certificate(self):
        statements = self._quorum()
        statements[1] = SignedStatement(
            phase="vote",
            round_number=1,
            digest=DIGEST,
            signature=Signature(signer=1, tag="22" * 32),
        )
        assert not verify_quorum(
            self.registry, statements, phase="vote", round_number=1,
            digest=DIGEST, minimum=3,
        )

    def test_registry_verify_quorum_shares_one_serialisation(self):
        value = ("shared", 7)
        signatures = [sign(self.registry.keypair_of(i), value) for i in range(4)]
        assert self.registry.verify_quorum(signatures, value)
        assert not self.registry.verify_quorum(signatures, ("shared", 8))


# ----------------------------------------------------------------------
# The certificate-verdict memo
# ----------------------------------------------------------------------
class TestQuorumMemo:
    """A fully pinned statement set is verified once per deployment.

    The property under test mirrors the stamp's: the memo key is the
    pin plus the members *with their tags*, so nothing that differs in
    anything the check reads can ride a memoized verdict.
    """

    PIN = {"phase": "vote", "round_number": 1, "digest": DIGEST}

    def setup_method(self):
        self.registry = KeyRegistry.trusted_setup(range(4))
        self.quorum = frozenset(
            make_statement(self.registry.keypair_of(i), "vote", 1, DIGEST) for i in range(3)
        )
        assert self._verify(self.quorum)
        assert self._verify(self.quorum)
        info = self.registry.quorum_cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (1, 1, 1)

    def _verify(self, statements, minimum=3, **pin):
        return verify_quorum(self.registry, statements, minimum=minimum, **{**self.PIN, **pin})

    def _with_signature(self, signer, signature):
        """The memoized set with ``signer``'s member re-signed."""
        kept = {stmt for stmt in self.quorum if stmt.signer != signer}
        return frozenset(kept | {SignedStatement("vote", 1, DIGEST, signature)})

    def _assert_full_path_rejects(self, statements, **pin):
        before = self.registry.quorum_cache_info()
        assert not self._verify(statements, **pin)
        after = self.registry.quorum_cache_info()
        assert after["hits"] == before["hits"]  # never answered from the memo
        assert self._verify(self.quorum)  # and the genuine entry is intact

    def test_forged_tag_rejected_after_memoization(self):
        forged = self._with_signature(1, Signature(signer=1, tag="00" * 32))
        self._assert_full_path_rejects(forged)

    def test_reattributed_member_rejected_after_memoization(self):
        """Player 3 never signed; it claims player 1's tag, keeping the
        set's size and distinct-signer count at the threshold."""
        member = next(stmt for stmt in self.quorum if stmt.signer == 1)
        stolen = self._with_signature(1, Signature(signer=3, tag=member.signature.tag))
        assert len({stmt.signer for stmt in stolen}) == 3
        self._assert_full_path_rejects(stolen)

    @pytest.mark.parametrize(
        "pin", [{"round_number": 2}, {"phase": "commit"}, {"digest": "cd" * 32}]
    )
    def test_other_pin_rejected_after_memoization(self, pin):
        self._assert_full_path_rejects(self.quorum, **pin)

    def test_minimum_is_checked_on_every_call(self):
        before = _counts(self.registry)
        assert not self._verify(self.quorum, minimum=4)
        assert self._verify(self.quorum, minimum=2)
        assert _counts(self.registry) == before  # both answered by the memo
        # A fourth member makes a different key with its own count.
        fourth = make_statement(self.registry.keypair_of(3), "vote", 1, DIGEST)
        assert self._verify(self.quorum | {fourth}, minimum=4)
        assert not self._verify(self.quorum, minimum=4)

    def test_negative_verdicts_are_memoized_per_key(self):
        forged = self._with_signature(1, Signature(signer=1, tag="00" * 32))
        assert not self._verify(forged)
        before = self.registry.quorum_cache_info()["hits"]
        assert not self._verify(forged)
        assert self.registry.quorum_cache_info()["hits"] == before + 1

    def test_unpinned_certificates_are_not_memoized(self):
        before = self.registry.quorum_cache_info()
        assert verify_quorum(self.registry, self.quorum, phase="vote", minimum=3)
        assert self.registry.quorum_cache_info() == before

    def test_cache_size_zero_memoizes_nothing_and_rederives_every_tag(self, monkeypatch):
        registry = KeyRegistry.trusted_setup(range(4), verify_cache_size=0)
        quorum = frozenset(
            make_statement(registry.keypair_of(i), "vote", 1, DIGEST) for i in range(3)
        )
        derived = []
        real_tag = type(registry.backend).tag

        def counting_tag(backend, secret, message):
            derived.append(message)
            return real_tag(backend, secret, message)

        monkeypatch.setattr(type(registry.backend), "tag", counting_tag)
        for _ in range(2):
            assert verify_quorum(registry, quorum, minimum=3, **self.PIN)
        assert len(derived) == 6
        assert registry.quorum_cache_info() == {"hits": 0, "misses": 0, "size": 0, "maxsize": 0}

    def test_memo_bounded_under_churn(self):
        keypairs = [self.registry.keypair_of(i) for i in range(3)]
        for round_number in range(2, 202):
            quorum = frozenset(make_statement(kp, "vote", round_number, DIGEST) for kp in keypairs)
            assert verify_quorum(
                self.registry, quorum, phase="vote", round_number=round_number,
                digest=DIGEST, minimum=3,
            )
        info = self.registry.quorum_cache_info()
        assert info["misses"] == 201
        assert info["size"] == info["maxsize"] < 200
        # The bound never exceeds verify_cache_size.
        small = KeyRegistry.trusted_setup(range(4), verify_cache_size=2)
        assert small.quorum_cache_info()["maxsize"] == 2


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class TestBackends:
    def test_registry_lists_both(self):
        assert backend_names() == ["fast-sim", "hmac-sha256"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown crypto backend"):
            get_backend("rot13")
        with pytest.raises(ValueError):
            KeyRegistry(backend="rot13")

    def test_hmac_tag_formula_unchanged(self):
        """Regression pin: the default backend's tags are exactly the
        seed's ``SHA-256(secret || '|' || canonical(value))``."""
        import hashlib

        registry = KeyRegistry.trusted_setup([0])
        keypair = registry.keypair_of(0)
        value = ("prft", "vote", 1, DIGEST)
        expected = hashlib.sha256(
            keypair.secret + b"|" + canonical_bytes(value)
        ).hexdigest()
        assert sign(keypair, value).tag == expected

    def test_fast_sim_roundtrip(self):
        registry = KeyRegistry.trusted_setup(range(3), backend="fast-sim")
        stmt = make_statement(registry.keypair_of(1), "vote", 1, DIGEST)
        assert verify_statement(registry, stmt)
        assert not verify_statement(
            registry,
            SignedStatement(
                phase="vote", round_number=1, digest=DIGEST,
                signature=Signature(signer=2, tag=stmt.signature.tag),
            ),
        )

    def test_fast_sim_is_declared_forgeable(self):
        assert not get_backend("fast-sim").unforgeable
        assert get_backend("hmac-sha256").unforgeable


# ----------------------------------------------------------------------
# Scenario / analysis integration
# ----------------------------------------------------------------------
class TestScenarioBackendKnob:
    def test_unknown_backend_refused_at_construction(self):
        with pytest.raises(ValueError, match="unknown crypto backend"):
            Scenario(name="x", crypto_backend="rot13")

    def test_fork_scenarios_refuse_fast_sim(self):
        with pytest.raises(ValueError, match="unforgeable"):
            get_scenario("fork").with_params(crypto_backend="fast-sim")
        with pytest.raises(ValueError, match="unforgeable"):
            get_scenario("lone-equivocator").with_params(crypto_backend="fast-sim")

    def test_accountability_analysis_refuses_fast_sim_runs(self):
        scenario = get_scenario("honest").with_params(
            n=4, rounds=1, crypto_backend="fast-sim"
        )
        result = scenario.run(seed=0)
        with pytest.raises(ValueError, match="unforgeable"):
            check_accountability(result)

    def test_fast_sim_honest_run_matches_default_outcome(self):
        base = get_scenario("honest").with_params(n=5, rounds=2)
        fast = base.with_params(crypto_backend="fast-sim")
        a, b = base.run(seed=0), fast.run(seed=0)
        assert a.system_state() == b.system_state()
        assert a.final_block_count() == b.final_block_count()
        assert a.metrics.total_messages == b.metrics.total_messages

    def test_cache_size_is_a_sweep_axis(self):
        base = get_scenario("honest").with_params(n=4, rounds=1)
        cached = base.run(seed=0)
        uncached = base.with_params(crypto_cache_size=0).run(seed=0)
        assert cached.ctx.registry.cache_hits > 0
        assert uncached.ctx.registry.cache_hits == 0
        assert cached.final_block_count() == uncached.final_block_count()


# ----------------------------------------------------------------------
# Cache size must be invisible — on attacked runs above all
# ----------------------------------------------------------------------
ATTACKED = {
    "fork": get_scenario("fork"),
    "thm5-collusion": get_scenario("thm5-collusion"),
    "lossy-prft-fork": get_scenario("lossy-prft-fork"),
    "partition-fork": get_scenario("partition-fork"),
    "fork-polygraph": get_scenario("fork").with_params(protocol="polygraph"),
    "fork-trap": get_scenario("fork").with_params(protocol="trap"),
}


def _observable(scenario, seed=0):
    result = scenario.run(seed=seed)
    record = RunRecord.from_result(scenario, seed, result)
    # pBFT replicas keep no fraud detector.
    detectors = {
        player: getattr(replica, "detector", None) for player, replica in result.replicas.items()
    }
    proofs = {
        player: sorted(
            (accused, proof.canonical()) for accused, proof in detector.proofs().items()
        )
        for player, detector in detectors.items()
        if detector is not None
    }
    return (
        json.dumps(record.canonical(), sort_keys=True),
        sorted(result.ctx.collateral.burned_players()),
        proofs,
    )


@pytest.mark.parametrize("name", sorted(ATTACKED))
def test_cache_size_is_invisible_on_attacked_runs(name):
    """Where justifications carry double signatures, the reference path
    (size 0: every tag re-derived), a thrashing memo (size 2: certificate
    verdicts evicted between receivers) and the default must agree on the
    record, the burns and every replica's proofs — byte for byte."""
    scenario = ATTACKED[name]
    default = _observable(scenario)
    assert any(default[2].values()), "the attack must actually produce fraud proofs"
    for size in (0, 2):
        assert _observable(scenario.with_params(crypto_cache_size=size)) == default


#: Lossy runs where equal but distinct re-signed copies arrive
#: (retransmissions): each copy carries no stamp and is derived afresh.
RETRANSMITTED = {
    "lossy-honest": get_scenario("lossy-honest"),
    "lossy-honest-pbft": get_scenario("lossy-honest").with_params(protocol="pbft"),
    "burst-under-loss": get_scenario("burst-under-loss"),
}


@pytest.mark.parametrize("name", sorted(RETRANSMITTED))
def test_cache_size_is_invisible_on_retransmitted_runs(name):
    """The same contract as above on runs with no attack: the reference
    path, a size-2 memo and the default agree on the record, the burns
    and every replica's proofs — byte for byte."""
    scenario = RETRANSMITTED[name]
    default = _observable(scenario)
    for size in (0, 2):
        assert _observable(scenario.with_params(crypto_cache_size=size)) == default
