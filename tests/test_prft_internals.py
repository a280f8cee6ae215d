"""White-box tests of the pRFT replica: Recv-boundary validation,
quorum-certificate checking, the Expose path, buffering and catch-up."""

import pytest

from repro.agents.player import honest_player
from repro.agents.strategies import EquivocateStrategy
from repro.core.messages import (
    CommitMessage,
    ExposeMessage,
    Phase,
    ProposeMessage,
    SignedStatement,
    VoteMessage,
    make_statement,
)
from repro.core.pof import FraudProof
from repro.core.replica import PRFTReplica, prft_factory
from repro.crypto.signatures import Signature
from repro.gametheory.states import SystemState
from repro.ledger.block import Block
from repro.net.delays import FixedDelay
from repro.protocols.base import ProtocolConfig
from repro.protocols.runner import RetentionSpec, build_context

from tests.conftest import roster, run_prft


def _deployment(n=4, **overrides):
    config = ProtocolConfig.for_prft(n=n, **overrides)
    ctx = build_context(config, range(n))
    replicas = {i: PRFTReplica(honest_player(i), config, ctx) for i in range(n)}
    return config, ctx, replicas


class TestRecvValidation:
    """Invalid messages must be discarded at the Recv boundary
    (Figure 1's cryptographic abstraction)."""

    def test_propose_from_non_leader_ignored(self):
        config, ctx, replicas = _deployment()
        intruder = ctx.registry.keypair_of(2)  # leader of round 0 is 0
        block = Block(0, 2, replicas[1].chain.head().digest, ())
        statement = make_statement(intruder, Phase.PROPOSE.value, 0, block.digest)
        replicas[1].handle_payload(2, ProposeMessage(block=block, statement=statement))
        assert replicas[1].round_state(0).proposals == {}

    def test_propose_with_forged_signature_ignored(self):
        config, ctx, replicas = _deployment()
        block = Block(0, 0, replicas[1].chain.head().digest, ())
        forged = SignedStatement(
            Phase.PROPOSE.value, 0, block.digest, Signature(0, "00" * 32)
        )
        replicas[1].handle_payload(0, ProposeMessage(block=block, statement=forged))
        assert replicas[1].round_state(0).proposals == {}

    def test_propose_digest_mismatch_ignored(self):
        config, ctx, replicas = _deployment()
        leader_key = ctx.registry.keypair_of(0)
        block = Block(0, 0, replicas[1].chain.head().digest, ())
        statement = make_statement(leader_key, Phase.PROPOSE.value, 0, "f" * 64)
        replicas[1].handle_payload(0, ProposeMessage(block=block, statement=statement))
        assert replicas[1].round_state(0).proposals == {}

    def test_relayed_vote_with_wrong_sender_ignored(self):
        """A vote signed by player 2 but delivered as if from player 3
        must be dropped (signer == sender check)."""
        config, ctx, replicas = _deployment()
        key = ctx.registry.keypair_of(2)
        statement = make_statement(key, Phase.VOTE.value, 0, "a" * 64)
        vote = VoteMessage(statement=statement, propose_signature=Signature(0, "00" * 32))
        replicas[1].handle_payload(3, vote)
        assert replicas[1].round_state(0).tally == {}

    def test_commit_with_undersized_justification_ignored(self):
        config, ctx, replicas = _deployment()
        digest = "a" * 64
        votes = frozenset(
            {make_statement(ctx.registry.keypair_of(2), Phase.VOTE.value, 0, digest)}
        )
        commit_statement = make_statement(
            ctx.registry.keypair_of(2), Phase.COMMIT.value, 0, digest
        )
        replicas[1].handle_payload(
            2, CommitMessage(statement=commit_statement, justification=votes)
        )
        assert replicas[1].round_state(0).tally == {}

    def test_commit_with_forged_justification_ignored(self):
        config, ctx, replicas = _deployment()
        digest = "a" * 64
        votes = frozenset(
            SignedStatement(Phase.VOTE.value, 0, digest, Signature(i, "ab" * 32))
            for i in range(config.quorum_size)
        )
        commit_statement = make_statement(
            ctx.registry.keypair_of(2), Phase.COMMIT.value, 0, digest
        )
        replicas[1].handle_payload(
            2, CommitMessage(statement=commit_statement, justification=votes)
        )
        assert replicas[1].round_state(0).tally == {}

    def test_expose_with_invalid_proofs_burns_nobody(self):
        config, ctx, replicas = _deployment()
        key2 = ctx.registry.keypair_of(2)
        good = make_statement(key2, Phase.VOTE.value, 0, "a" * 64)
        forged = SignedStatement(Phase.VOTE.value, 0, "b" * 64, Signature(2, "cd" * 32))
        proof = FraudProof(*sorted([good, forged]))
        statement = make_statement(ctx.registry.keypair_of(3), Phase.EXPOSE.value, 0, "")
        replicas[1].handle_payload(
            3, ExposeMessage(proofs=frozenset({proof}), statement=statement)
        )
        assert ctx.collateral.burned_players() == set()

    @pytest.mark.parametrize("proof_round,aborts", [(0, True), (5, False)])
    def test_expose_aborts_only_on_fraud_of_its_signed_round(self, proof_round, aborts):
        """An Expose names its round in the signed statement, and only
        double-signs of that round count towards aborting it: a genuine
        proof about another round still burns its culprit, but is no
        reason to abandon this one."""
        config, ctx, replicas = _deployment()  # n=4: t0 = 0, one proof suffices
        key2 = ctx.registry.keypair_of(2)
        proof = FraudProof(*sorted(
            make_statement(key2, Phase.VOTE.value, proof_round, digest * 64)
            for digest in "ab"
        ))
        statement = make_statement(ctx.registry.keypair_of(3), Phase.EXPOSE.value, 0, "")
        expose = ExposeMessage(proofs=frozenset({proof}), statement=statement)
        assert expose.round_number == 0
        replicas[1].handle_payload(3, expose)
        assert ctx.collateral.burned_players() == {2}
        assert ctx.trace.count("expose_accepted") == int(aborts)
        assert replicas[1].current_round == int(aborts)


class TestExposePath:
    """With more than t0 double-signers visible to honest players the
    round must Expose and abort rather than finalise (Figure 1 lines
    31-32).  Noisy equivocators (both versions to everyone) are the
    canonical trigger."""

    def _noisy_run(self, max_rounds):
        from repro.agents.strategies import NoisyEquivocateStrategy

        # n=9, t0=2: three noisy equivocators (> t0); honest leader in
        # round 3 so the fabrication path fires for every colluder.
        players = roster(9, rational_ids=[4, 5, 6])
        shared = {}
        for pid in (4, 5, 6):
            players[pid].strategy = NoisyEquivocateStrategy(
                colluders={4, 5, 6}, shared_sides=shared
            )
        return run_prft(players, max_rounds=max_rounds, timeout=15.0, max_time=800.0)

    def test_expose_when_guilty_exceed_t0(self):
        result = self._noisy_run(max_rounds=2)
        assert result.trace.count("expose") > 0
        assert result.penalised_players() == {4, 5, 6}

    def test_exposed_rounds_never_fork(self):
        result = self._noisy_run(max_rounds=2)
        assert result.system_state() is not SystemState.FORK
        from repro.analysis.robustness import check_robustness

        assert check_robustness(result).agreement


class TestBufferingAndCatchUp:
    def test_future_round_messages_buffered_and_replayed(self):
        """Messages for round r+1 arriving in round r are processed
        when the round starts — exercised by running with near-zero
        delays so fast replicas race ahead."""
        result = run_prft(roster(5), max_rounds=3, delay=FixedDelay(0.01))
        assert result.final_block_count() == 3

    def test_retro_finalize_records_trace(self):
        """A replica that missed a round adopts it from late reveals
        (exercised via partition: the minority side catches up)."""
        from repro.net.partition import Partition, PartitionSchedule

        partitions = PartitionSchedule()
        partitions.add(Partition.of({0, 1, 2, 3, 4, 5}, {6, 7, 8}), 0.0, 40.0)
        result = run_prft(
            roster(9), max_rounds=2, timeout=100.0,
            partitions=partitions, max_time=400.0,
        )
        from repro.analysis.robustness import check_robustness

        assert check_robustness(result).agreement
        heights = {
            pid: len(chain.final_blocks())
            for pid, chain in result.honest_chains().items()
        }
        assert max(heights.values()) == 2

    def test_halted_replicas_send_nothing(self):
        result = run_prft(roster(4), max_rounds=1, retention=RetentionSpec(trace_traffic=True))
        halt_times = [e.time for e in result.trace.events("halt")]
        assert halt_times
        last_halt = max(halt_times)
        sends = result.trace.events("send")
        assert len(sends) == result.trace.count("send") > 0  # every send is stored
        late_sends = [e for e in sends if e.time > last_halt]
        assert late_sends == []


class TestLeaderRotation:
    def test_current_leader_tracks_round(self):
        config, ctx, replicas = _deployment()
        replica = replicas[0]
        assert replica.current_leader() == 0
        replica.current_round = 3
        assert replica.current_leader() == 3 % config.n

    def test_factory_returns_registered_replica(self):
        config = ProtocolConfig.for_prft(n=3, max_rounds=1)
        ctx = build_context(config, range(3))
        replica = prft_factory(honest_player(0), config, ctx)
        assert isinstance(replica, PRFTReplica)
        assert list(ctx.network.participants()) == [0]
