"""pRFT under honest execution: Figure 1's normal path, Figure 2a's
message schedule, and Definition 1's clauses."""

import pytest

from repro.analysis.robustness import check_robustness
from repro.gametheory.states import SystemState
from repro.ledger.validation import common_prefix_holds, strict_ordering_holds
from repro.net.delays import FixedDelay, PartialSynchronyDelay, SynchronousDelay
from repro.protocols.runner import RetentionSpec, make_transactions

from tests.conftest import roster, run_prft


class TestHonestExecution:
    @pytest.mark.parametrize("n", [4, 5, 7, 8, 13])
    def test_all_rounds_finalize(self, n):
        result = run_prft(roster(n), max_rounds=3)
        assert result.system_state() is SystemState.HONEST
        assert result.final_block_count() == 3

    def test_all_honest_chains_identical(self):
        result = run_prft(roster(7), max_rounds=3)
        digests = {
            pid: [b.digest for b in chain.final_blocks()]
            for pid, chain in result.honest_chains().items()
        }
        reference = next(iter(digests.values()))
        assert all(view == reference for view in digests.values())

    def test_robustness_report_all_green(self):
        result = run_prft(roster(8), max_rounds=3)
        report = check_robustness(result, c=0)
        assert report.robust
        assert report.agreement and report.validity
        assert report.eventual_liveness and report.strict_ordering
        assert report.progressed
        assert report.fork_heights == []

    def test_strict_ordering_and_common_prefix(self):
        result = run_prft(roster(6), max_rounds=3)
        chains = result.honest_chains()
        assert strict_ordering_holds(chains, 0)
        assert common_prefix_holds(chains, 0)

    def test_no_collateral_burned(self):
        result = run_prft(roster(8), max_rounds=3)
        assert result.penalised_players() == set()

    def test_transactions_flow_into_blocks(self):
        txs = make_transactions(8)
        result = run_prft(roster(4), max_rounds=2, **{})
        chain = next(iter(result.honest_chains().values()))
        included = {tx.tx_id for b in chain.final_blocks() for tx in b.transactions}
        assert included  # every round carried client transactions

    def test_censorship_resistance_in_honest_run(self):
        result = run_prft(roster(5), max_rounds=3)
        report = check_robustness(result, censored_tx_ids=["tx-0"])
        assert report.censorship_resistance
        assert report.strongly_robust

    def test_rounds_rotate_leaders(self):
        result = run_prft(roster(4), max_rounds=3)
        proposers = [
            b.proposer
            for b in next(iter(result.honest_chains().values())).final_blocks()
        ]
        assert proposers == [0, 1, 2]

    def test_blocks_chain_by_parent(self):
        result = run_prft(roster(4), max_rounds=3)
        chain = next(iter(result.honest_chains().values()))
        blocks = chain.blocks(include_genesis=True)
        for parent, child in zip(blocks, blocks[1:]):
            assert child.parent_digest == parent.digest


class TestMessageSchedule:
    """Figure 2a: each round is Propose → Vote → Commit → Reveal (+Final)."""

    def test_per_phase_counts(self):
        n, rounds = 6, 2
        result = run_prft(roster(n), max_rounds=rounds)
        by_type = result.metrics.by_type()
        assert by_type["propose"][0] == n * rounds           # leader to all
        assert by_type["vote"][0] == n * n * rounds           # all-to-all
        assert by_type["commit"][0] == n * n * rounds
        assert by_type["reveal"][0] == n * n * rounds
        assert by_type["final"][0] == n * n * rounds
        assert "view-change" not in by_type
        assert "expose" not in by_type

    def test_phase_ordering_in_trace(self):
        result = run_prft(roster(4), max_rounds=1, retention=RetentionSpec(trace_traffic=True))
        sends = [e for e in result.trace.events("send") if e.detail["round"] == 0]
        first_of = {}
        for event in sends:
            first_of.setdefault(event.detail["message_type"], event.time)
        assert (
            first_of["propose"]
            <= first_of["vote"]
            <= first_of["commit"]
            <= first_of["reveal"]
            <= first_of["final"]
        )

    def test_tentative_precedes_final(self):
        result = run_prft(roster(4), max_rounds=1)
        tentative = result.trace.last("tentative")
        final = result.trace.last("final")
        assert tentative is not None and final is not None
        assert tentative.time <= final.time

    def test_accountable_messages_carry_quorums(self):
        """Commit/Reveal bytes dominate Vote bytes — the cost of
        accountability (Figure 3's κ·n factor)."""
        result = run_prft(roster(8), max_rounds=2)
        by_type = result.metrics.by_type()
        assert by_type["commit"][1] > by_type["vote"][1]
        assert by_type["reveal"][1] > by_type["vote"][1]


class TestNetworkModels:
    def test_synchronous_jitter(self):
        result = run_prft(roster(6), max_rounds=3, delay=SynchronousDelay(delta=2.0, seed=11))
        assert result.system_state() is SystemState.HONEST
        assert result.final_block_count() == 3

    def test_partial_synchrony_recovers_after_gst(self):
        result = run_prft(
            roster(6),
            max_rounds=4,
            delay=PartialSynchronyDelay(gst=60.0, delta=1.0, pre_gst_scale=80.0, seed=5),
            max_time=600.0,
            timeout=25.0,
        )
        assert result.system_state() is SystemState.HONEST
        assert result.final_block_count() >= 1
        report = check_robustness(result)
        assert report.agreement

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_partial_synchrony_never_forks(self, seed):
        result = run_prft(
            roster(5),
            max_rounds=3,
            delay=PartialSynchronyDelay(gst=40.0, delta=1.0, seed=seed),
            max_time=400.0,
            timeout=15.0,
        )
        assert check_robustness(result).agreement

    def test_determinism(self):
        """Identical configurations produce identical traces."""
        a = run_prft(roster(5), max_rounds=2, delay=SynchronousDelay(seed=9))
        b = run_prft(roster(5), max_rounds=2, delay=SynchronousDelay(seed=9))
        assert a.metrics.total_messages == b.metrics.total_messages
        assert a.metrics.total_bytes == b.metrics.total_bytes
        chain_a = next(iter(a.honest_chains().values()))
        chain_b = next(iter(b.honest_chains().values()))
        assert [x.digest for x in chain_a.final_blocks()] == [
            x.digest for x in chain_b.final_blocks()
        ]
