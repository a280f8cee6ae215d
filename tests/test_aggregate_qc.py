"""Property tests for aggregate quorum certificates.

The ``AggregateQC`` is the wire representation the ``aggregate_certs``
crypto axis switches on: one canonical digest, a signer bitmap and an
aggregate tag instead of n signed statements.  These tests pin the
representation's contract down with seeded randomised properties:

- bitmap <-> signer-set round trips over the whole committee range;
- ``verify_aggregate`` accepts exactly the honestly-built certificate
  and rejects every single-bit corruption (bitmap bit flips, forged
  tags, unknown signers, sub-quorum signer sets);
- ``expand_aggregate`` reproduces byte-identical per-signer statements
  (so accountability evidence survives the representation change), and
  only after verification — a forged bitmap can never frame an honest
  non-signer;
- fork scenarios still refuse the forgeable ``fast-sim`` backend with
  aggregation on (an aggregate over forgeable tags proves nothing);
- the ``Scenario.n`` bounds and the big-committee smoke at n = 64.
"""

import dataclasses
import random

import pytest

from repro.core.messages import (
    build_justification,
    expand_aggregate,
    justification_statements,
    make_statement,
    statement_value,
    verify_justification,
)
from repro.core.pof import FraudDetector
from repro.crypto import (
    AggregateQC,
    aggregate_statements,
    aggregate_tag,
    bitmap_of,
    ids_of,
)
from repro.crypto.registry import KeyRegistry
from repro.experiments.registry import Scenario

N = 64
PHASE = "commit"
ROUND = 3
DIGEST = "a" * 16
OTHER_DIGEST = "b" * 16


@pytest.fixture(scope="module")
def registry():
    return KeyRegistry.trusted_setup(range(N), seed="agg-qc-tests")


def statements_for(registry, signers, digest=DIGEST, phase=PHASE, round_number=ROUND):
    return [
        make_statement(registry.keypair_of(signer), phase, round_number, digest)
        for signer in signers
    ]


def aggregate_for(registry, signers, **kwargs):
    return aggregate_statements(statements_for(registry, signers, **kwargs))


# ----------------------------------------------------------------------
# Bitmap round trips
# ----------------------------------------------------------------------
class TestBitmap:
    def test_round_trip_randomised(self):
        rng = random.Random("bitmap-round-trip")
        for _ in range(200):
            signers = {rng.randrange(512) for _ in range(rng.randint(0, 40))}
            bitmap = bitmap_of(signers)
            assert set(ids_of(bitmap)) == signers
            assert bin(bitmap).count("1") == len(signers)

    def test_ids_are_sorted(self):
        assert ids_of(bitmap_of([5, 1, 63])) == (1, 5, 63)

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            bitmap_of([3, -1])

    def test_empty_round_trip(self):
        assert bitmap_of([]) == 0
        assert ids_of(0) == ()


# ----------------------------------------------------------------------
# Build + verify
# ----------------------------------------------------------------------
class TestVerifyAggregate:
    def quorum(self):
        return list(range(0, 48))  # n - t0 at n = 64 under pRFT presets

    def test_honest_aggregate_verifies(self, registry):
        aggregate = aggregate_for(registry, self.quorum())
        assert aggregate.signers == tuple(self.quorum())
        assert registry.verify_aggregate(aggregate)

    def test_batch_canonicalize_matches_statement_value(self, registry):
        message, digest = registry.batch_canonicalize(
            statement_value(PHASE, ROUND, DIGEST)
        )
        assert isinstance(message, bytes) and len(digest) == 32

    def test_random_subsets_verify(self, registry):
        rng = random.Random("agg-subsets")
        for _ in range(25):
            signers = sorted(rng.sample(range(N), rng.randint(1, N)))
            aggregate = aggregate_for(registry, signers)
            assert registry.verify_aggregate(aggregate)

    def test_every_single_bit_flip_is_detected(self, registry):
        """Flipping any one bit of the signer bitmap must invalidate the
        tag: added signers never contributed a tag, removed signers'
        tags are still folded in."""
        rng = random.Random("agg-bit-flips")
        aggregate = aggregate_for(registry, self.quorum())
        for _ in range(40):
            bit = rng.randrange(N)
            forged = AggregateQC(
                phase=aggregate.phase,
                round_number=aggregate.round_number,
                digest=aggregate.digest,
                signer_bitmap=aggregate.signer_bitmap ^ (1 << bit),
                agg_tag=aggregate.agg_tag,
            )
            assert not registry.verify_aggregate(forged), f"bit {bit}"

    def test_forged_tag_rejected(self, registry):
        aggregate = aggregate_for(registry, self.quorum())
        forged = AggregateQC(
            phase=aggregate.phase,
            round_number=aggregate.round_number,
            digest=aggregate.digest,
            signer_bitmap=aggregate.signer_bitmap,
            agg_tag="0" * len(aggregate.agg_tag),
        )
        assert not registry.verify_aggregate(forged)

    def test_wrong_value_rejected(self, registry):
        """A certificate is checked against its own pin: an honest one
        moved onto another digest keeps a tag over the old value."""
        aggregate = aggregate_for(registry, self.quorum())
        assert registry.verify_aggregate(aggregate)
        assert not registry.verify_aggregate(
            dataclasses.replace(aggregate, digest=OTHER_DIGEST)
        )

    def test_unknown_signer_rejected(self, registry):
        aggregate = aggregate_for(registry, self.quorum())
        forged = AggregateQC(
            phase=aggregate.phase,
            round_number=aggregate.round_number,
            digest=aggregate.digest,
            signer_bitmap=aggregate.signer_bitmap | (1 << (N + 7)),
            agg_tag=aggregate.agg_tag,
        )
        assert not registry.verify_aggregate(forged)

    def test_empty_bitmap_rejected(self, registry):
        empty = AggregateQC(
            phase=PHASE, round_number=ROUND, digest=DIGEST,
            signer_bitmap=0, agg_tag="deadbeef",
        )
        assert not registry.verify_aggregate(empty)

    def test_sub_quorum_rejected_by_justification_check(self, registry):
        quorum_size = 48
        aggregate = aggregate_for(registry, range(quorum_size - 1))
        assert not verify_justification(
            registry, aggregate,
            phase=PHASE, round_number=ROUND, digest=DIGEST,
            minimum=quorum_size,
        )
        full = aggregate_for(registry, range(quorum_size))
        assert verify_justification(
            registry, full,
            phase=PHASE, round_number=ROUND, digest=DIGEST,
            minimum=quorum_size,
        )

    def test_pin_mismatch_rejected_by_justification_check(self, registry):
        aggregate = aggregate_for(registry, range(48))
        for pin in (
            dict(phase="vote", round_number=ROUND, digest=DIGEST),
            dict(phase=PHASE, round_number=ROUND + 1, digest=DIGEST),
            dict(phase=PHASE, round_number=ROUND, digest=OTHER_DIGEST),
        ):
            assert not verify_justification(registry, aggregate, minimum=1, **pin)

    def test_aggregate_smaller_than_statements(self, registry):
        statements = statements_for(registry, range(48))
        aggregate = aggregate_statements(statements)
        assert aggregate.size_bytes < sum(s.size_bytes for s in statements)

    def test_verdict_cache_counts(self):
        registry = KeyRegistry.trusted_setup(range(8), seed="agg-cache")
        aggregate = aggregate_for(registry, range(6))
        assert registry.verify_aggregate(aggregate)
        before = (registry.agg_cache_hits, registry.agg_cache_misses)
        assert registry.verify_aggregate(aggregate)
        after = (registry.agg_cache_hits, registry.agg_cache_misses)
        assert after == (before[0] + 1, before[1])


# ----------------------------------------------------------------------
# Construction rules
# ----------------------------------------------------------------------
class TestAggregateStatements:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_statements([])

    def test_mixed_digests_rejected(self, registry):
        mixed = statements_for(registry, range(3)) + statements_for(
            registry, range(3, 6), digest=OTHER_DIGEST
        )
        with pytest.raises(ValueError):
            aggregate_statements(mixed)

    def test_mixed_rounds_rejected(self, registry):
        mixed = statements_for(registry, range(3)) + statements_for(
            registry, range(3, 6), round_number=ROUND + 1
        )
        with pytest.raises(ValueError):
            aggregate_statements(mixed)

    def test_duplicate_signer_same_tag_deduplicated(self, registry):
        statements = statements_for(registry, [1, 2, 2, 3])
        aggregate = aggregate_statements(statements)
        assert aggregate.signers == (1, 2, 3)

    def test_tag_is_order_independent(self, registry):
        statements = statements_for(registry, range(10))
        forward = aggregate_statements(statements)
        backward = aggregate_statements(list(reversed(statements)))
        assert forward == backward

    def test_aggregate_tag_rejects_ill_typed_input(self):
        with pytest.raises(ValueError):
            aggregate_tag({})


# ----------------------------------------------------------------------
# Expansion and accountability
# ----------------------------------------------------------------------
class TestExpansion:
    def test_expand_reproduces_original_statements(self, registry):
        originals = statements_for(registry, range(20))
        aggregate = aggregate_statements(originals)
        expanded = expand_aggregate(registry, aggregate)
        assert sorted(expanded) == sorted(originals)

    def test_justification_statements_both_shapes(self, registry):
        originals = statements_for(registry, range(20))
        as_set = build_justification(originals, aggregate=False)
        as_agg = build_justification(originals, aggregate=True)
        assert isinstance(as_agg, AggregateQC)
        assert set(justification_statements(registry, as_set)) == set(originals)
        assert set(justification_statements(registry, as_agg)) == set(originals)

    def test_detector_burns_exactly_the_equivocators(self, registry):
        """Two aggregates over conflicting digests expose exactly the
        signers in both bitmaps — and nobody else."""
        double_signers = {0, 5, 17}
        side_a = sorted(double_signers | set(range(20, 55)))
        side_b = sorted(double_signers | set(range(55, 64)) | {1})
        agg_a = aggregate_for(registry, side_a)
        agg_b = aggregate_for(registry, side_b, digest=OTHER_DIGEST)
        detector = FraudDetector(registry=registry)
        assert detector.absorb_aggregate(agg_a) == []
        proofs = detector.absorb_aggregate(agg_b)
        assert {proof.accused for proof in proofs} == double_signers
        assert detector.guilty() == double_signers
        for proof in proofs:
            assert proof.verify(registry)

    def test_forged_aggregate_contributes_no_evidence(self, registry):
        """A forged bitmap must neither frame honest players nor poison
        the detector's absorption memo for the genuine certificate."""
        detector = FraudDetector(registry=registry)
        genuine = aggregate_for(registry, range(10))
        forged = AggregateQC(
            phase=genuine.phase,
            round_number=genuine.round_number,
            digest=genuine.digest,
            signer_bitmap=genuine.signer_bitmap | (1 << 60),
            agg_tag=genuine.agg_tag,
        )
        assert detector.absorb_aggregate(forged) == []
        assert detector._seen == {}
        # The genuine aggregate still absorbs in full afterwards.
        conflicting = aggregate_for(registry, range(10), digest=OTHER_DIGEST)
        assert detector.absorb_aggregate(genuine) == []
        proofs = detector.absorb_aggregate(conflicting)
        assert {proof.accused for proof in proofs} == set(range(10))

    def test_reabsorption_is_memoized(self, registry):
        detector = FraudDetector(registry=registry)
        aggregate = aggregate_for(registry, range(10))
        detector.absorb_aggregate(aggregate)
        seen_before = {slot: dict(v) for slot, v in detector._seen.items()}
        assert detector.absorb_aggregate(aggregate) == []
        assert detector._seen == seen_before

    def test_expansion_requires_registry(self, registry):
        detector = FraudDetector(registry=None)
        aggregate = aggregate_for(registry, range(10))
        with pytest.raises(ValueError):
            detector.absorb_aggregate(aggregate)


# ----------------------------------------------------------------------
# Scenario integration: fast-sim refusal, n bounds, big-committee smoke
# ----------------------------------------------------------------------
class TestScenarioIntegration:
    def test_fork_refuses_fast_sim_with_aggregation_on(self):
        with pytest.raises(ValueError, match="unforgeable"):
            Scenario(
                name="agg-forged", n=9, rounds=2, rational=1, attack="fork",
                crypto_backend="fast-sim", aggregate_certs=True,
            )

    def test_n_bounds(self):
        with pytest.raises(ValueError, match="n must lie"):
            Scenario(name="too-small", n=0)
        with pytest.raises(ValueError, match="n must lie"):
            Scenario(name="too-big", n=257)
        assert Scenario(name="ceiling", n=256).n == 256
        assert Scenario(name="floor", n=1).n == 1

    def test_big_committee_smoke_n64(self):
        """Tier-1 n=64 smoke: one aggregated honest round, oracle-clean."""
        scenario = Scenario(
            name="agg-smoke-64", n=64, rounds=1, timeout=30.0,
            aggregate_certs=True, check_invariants=True,
        )
        result = scenario.run(seed=0)
        assert result.final_block_count() == 1
        assert result.oracle.ok, result.oracle.violated_names

    @pytest.mark.large_n
    def test_equivocating_leader_pof_at_n64(self):
        """An equivocating round-0 leader at n = 64: honest replicas
        extract a verifying Proof-of-Fraud from the aggregated quorum
        evidence and burn exactly the provably-faulty signer — never an
        honest bitmap member."""
        scenario = Scenario(
            name="agg-equivocating-leader", n=64, rounds=2,
            rational_ids=(0,), attack="fork", timeout=30.0,
            aggregate_certs=True, check_invariants=True, max_time=500.0,
        )
        result = scenario.run(seed=0)
        assert result.penalised_players() == {0}
        registry = result.ctx.registry
        proofs = {}
        for pid in result.honest_ids:
            proofs.update(result.replicas[pid].detector.proofs())
        assert set(proofs) == {0}
        assert proofs[0].verify(registry)
        assert result.oracle.ok, result.oracle.violated_names
