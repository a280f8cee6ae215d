"""Tests for the bounded-memory retention path (RetentionSpec et al.).

Covers the TraceRecorder's per-kind windows and exact lifetime
counters, its unrecorded kinds and the network traffic a deployment
leaves to the metrics unless asked to store it, the CommitLog's
consumed-prefix truncation, RetentionSpec
validation and threading through RunSpec/Scenario/CLI, ledger
body-pruning and round-state pruning, the mempool history bound, and
the oracle's refusal semantics: checkers that need evicted history
skip with an explanatory note instead of certifying a window they
cannot see.
"""

from collections import Counter

import pytest

from repro.agents.player import honest_player
from repro.core.replica import prft_factory
from repro.experiments import Scenario, get_scenario, scenario_catalog
from repro.experiments.registry import PROTOCOL_FACTORIES
from repro.experiments.results import RunRecord
from repro.ledger.block import Block
from repro.protocols.base import ProtocolConfig
from repro.ledger.chain import Chain
from repro.ledger.mempool import Mempool
from repro.ledger.transaction import Transaction
from repro.net.network import TRAFFIC_KINDS, Network
from repro.protocols.runner import RetentionSpec, RunSpec, run
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import CommitLog
from repro.sim.trace import TraceRecorder


def make_tx(i):
    return Transaction(tx_id=f"tx{i}", payload=f"p{i}", submitted_at=float(i))


def make_block(parent, round_number, txs=()):
    return Block(
        round_number=round_number,
        proposer=0,
        parent_digest=parent.digest,
        transactions=tuple(txs),
    )


class TestTraceRecorderRetention:
    def test_legacy_mode_unbounded_and_untruncated(self):
        trace = TraceRecorder()
        for i in range(100):
            trace.record(float(i), "send", player=0)
        assert trace.window is None
        assert len(trace.events("send")) == 100
        assert trace.dropped() == 0
        assert not trace.truncated()

    def test_window_is_per_kind(self):
        trace = TraceRecorder(window=2)
        for i in range(5):
            trace.record(float(i), "send", player=0)
        trace.record(9.0, "crash", player=1)
        # Five sends overflow the window; the lone crash does not.
        assert len(trace.events("send")) == 2
        assert len(trace.events("crash")) == 1
        assert trace.truncated("send")
        assert not trace.truncated("crash")
        assert trace.dropped("send") == 3
        assert trace.dropped() == 3

    def test_lifetime_counters_stay_exact_under_eviction(self):
        trace = TraceRecorder(window=3)
        for i in range(50):
            trace.record(float(i), "send", player=i % 4)
        assert trace.count("send") == 50
        assert len(trace) == 50
        assert trace.last("send").time == 49.0

    def test_retained_events_interleave_in_record_order(self):
        trace = TraceRecorder(window=2)
        trace.record(0.0, "a")
        trace.record(1.0, "b")
        trace.record(2.0, "a")
        trace.record(3.0, "b")
        assert [(e.time, e.kind) for e in trace] == [
            (0.0, "a"), (1.0, "b"), (2.0, "a"), (3.0, "b"),
        ]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            TraceRecorder(window=0)

    def test_a_refused_record_leaves_the_trace_as_it_was(self):
        """Time and player are typed columns: a record they cannot hold
        is refused whole, never half-appended."""
        trace = TraceRecorder()
        trace.record(0.0, "send", 0, to=1)
        for time, player in ((1.0, "p1"), (1.0, 1 << 64), ("soon", 1)):
            with pytest.raises((TypeError, OverflowError)):
                trace.record(time, "send", player, to=2)
        trace.record(2.0, "send", None, to=3)
        with pytest.raises(TypeError):
            trace.record(3.0, "crash", "p1")  # the first record of its kind
        assert (trace.count("crash"), trace.last("crash"), trace.events("crash")) == (0, None, [])
        assert len(trace) == trace.count("send") == 2
        assert [(e.time, e.player, e.detail) for e in trace] == [
            (0.0, 0, {"to": 1}), (2.0, None, {"to": 3}),
        ]

    def test_schemas_are_bounded_before_anything_is_appended(self):
        trace = TraceRecorder()
        for index in range(1 << 16):
            trace.record(0.0, "step", None, **{f"k{index}": index})
        with pytest.raises(ValueError, match="65536 distinct detail key sets"):
            trace.record(1.0, "step", None, fresh=True)
        assert len(trace) == trace.count("step") == 1 << 16
        assert trace.last("step").detail == {f"k{(1 << 16) - 1}": (1 << 16) - 1}

    def test_a_repeated_kind_is_read_once(self):
        trace = TraceRecorder()
        trace.record(0.0, "send", 0)
        trace.record(1.0, "final", 0)
        assert [e.kind for e in trace.events(("send", "send"))] == ["send"]
        assert [e.kind for e in trace.events(["final", "send", "final"])] == ["send", "final"]


class TestUnrecordedKinds:
    @staticmethod
    def _fed():
        trace = TraceRecorder(unrecorded=("send", "drop"))
        trace.record(0.0, "final", 0, height=1)
        trace.record(1.0, "timeout", None)
        return trace

    def test_only_recorded_kinds_are_counted_and_stored(self):
        trace = self._fed()
        assert trace.unrecorded == ("send", "drop")
        assert len(trace) == 2
        assert (trace.count("final"), trace.count("timeout"), trace.count("absent")) == (1, 1, 0)
        assert [(e.time, e.kind) for e in trace] == [(0.0, "final"), (1.0, "timeout")]
        assert trace.events() == list(trace)
        assert (trace.dropped(), trace.truncated()) == (0, False)

    @pytest.mark.parametrize("read", [
        lambda trace: trace.events("send"),
        lambda trace: trace.events(("final", "drop")),
        lambda trace: trace.events("send", player=0),
        lambda trace: trace.last("send"),
        lambda trace: trace.last("drop"),
        lambda trace: trace.count("send"),
        lambda trace: trace.count("drop"),
        lambda trace: trace.dropped("send"),
        lambda trace: trace.truncated("drop"),
    ])
    def test_reading_an_unrecorded_kind_raises(self, read):
        with pytest.raises(ValueError, match="trace_traffic"):
            read(self._fed())

    def test_a_window_still_bounds_the_recorded_kinds(self):
        trace = TraceRecorder(window=2, unrecorded=("send",))
        for step in range(5):
            trace.record(float(step), "final", 0)
        assert [e.time for e in trace] == [3.0, 4.0]
        assert (trace.dropped("final"), trace.dropped(), len(trace)) == (3, 3, 5)

    def test_a_network_records_all_traffic_or_none(self):
        with pytest.raises(ValueError, match="all of"):
            Network(SimulationEngine(), trace=TraceRecorder(unrecorded=("send",)))


def _deployment_trace(retention: RetentionSpec) -> TraceRecorder:
    return run(RunSpec(
        factory=prft_factory,
        players=tuple(honest_player(i) for i in range(4)),
        config=ProtocolConfig.for_prft(n=4, max_rounds=1),
        retention=retention,
    )).trace


def test_a_deployment_records_traffic_only_when_asked_to_store_it():
    assert TraceRecorder().unrecorded == ()  # a recorder built directly records every kind
    assert _deployment_trace(RetentionSpec()).unrecorded == TRAFFIC_KINDS
    assert _deployment_trace(RetentionSpec(trace_traffic=True)).unrecorded == ()
    assert "trace_traffic" not in get_scenario("honest").to_dict()
    assert get_scenario("honest").with_params(trace_traffic=True).to_dict()["trace_traffic"]


def test_a_default_deployment_never_hands_traffic_to_the_trace(monkeypatch):
    kinds = []
    record = TraceRecorder.record

    def counting(self, time, kind, player=None, **detail):
        kinds.append(kind)
        record(self, time, kind, player, **detail)

    monkeypatch.setattr(TraceRecorder, "record", counting)
    result = get_scenario("lossy-honest").run(seed=0)
    assert result.metrics.total_messages > 0 and result.metrics.total_dropped > 0
    assert kinds and not set(kinds) & set(TRAFFIC_KINDS)


def test_an_unbounded_default_run_drops_nothing():
    """Leaving traffic out is not dropping it: the 2,097 traffic events
    of this run are the metrics' to count, and none was evicted."""
    trace = get_scenario("honest").run(seed=0).trace
    assert trace.window is None
    assert (trace.truncated(), trace.dropped(), len(trace)) == (False, 0, 120)


TRAFFIC_CELLS = {
    **{f"catalog/{name}": scenario for name, scenario in scenario_catalog().items()},
    **{
        f"protocol-matrix/{protocol}": get_scenario("protocol-matrix").with_params(
            protocol=protocol
        )
        for protocol in PROTOCOL_FACTORIES
    },
}


def _drops_by_reason(trace):
    return dict(Counter(event.detail["reason"] for event in trace.events("drop")))


@pytest.mark.parametrize("cell", sorted(TRAFFIC_CELLS))
def test_counting_traffic_changes_nothing_but_what_is_stored(cell):
    """Traffic off against traffic on, at seed 0: the run, its record
    and its oracle are the same; the off trace is the on trace minus
    its traffic, the metrics count that traffic either way, and asking
    the off trace for it raises."""
    checked = TRAFFIC_CELLS[cell].with_params(check_invariants=True)
    stored = checked.with_params(trace_traffic=True)
    off, on = checked.run(seed=0), stored.run(seed=0)
    assert (
        RunRecord.from_result(checked, 0, off).canonical()
        == RunRecord.from_result(stored, 0, on).canonical()
    )
    verdicts = [
        [(verdict.name, verdict.status, verdict.note) for verdict in result.oracle.verdicts]
        for result in (off, on)
    ]
    assert verdicts[0] == verdicts[1]
    assert off.trace.events() == [e for e in on.trace if e.kind not in TRAFFIC_KINDS]
    assert len(on.trace) - len(off.trace) == sum(map(on.trace.count, TRAFFIC_KINDS))
    assert on.trace.count("send") > 0
    for result in (off, on):
        assert result.metrics.total_messages == on.trace.count("send")
        assert result.metrics.dropped_by_reason() == _drops_by_reason(on.trace)
    with pytest.raises(ValueError, match="trace_traffic"):
        off.trace.count("send")


class TestCommitLogRetention:
    def _feed(self, log, count):
        chain = Chain()
        head = chain.head()
        for i in range(count):
            block = make_block(head, i + 1, [make_tx(i)])
            log.note(0, float(i), block)
            head = block

    def test_window_evicts_consumed_prefix_after_listeners(self):
        seen = []
        log = CommitLog(window=3)
        log.subscribe(lambda tx_id, when: seen.append(tx_id))
        self._feed(log, 10)
        # Every first commit was announced before its record could be
        # evicted — the stream is complete even though the map is not.
        assert seen == [f"tx{i}" for i in range(10)]
        assert len(log.commit_times()) == 3
        assert log.truncated
        assert log.committed_transactions == 10
        assert log.committed_blocks == 10

    def test_truncated_counts_transaction_evictions_only(self):
        log = CommitLog(window=3)
        head = Chain().head()
        for i in range(10):  # ten empty blocks: only block records evicted
            head = make_block(head, i + 1, [])
            log.note(0, float(i), head)
        assert log.committed_blocks == 10 and not log.truncated
        assert list(log.commit_times()) == []

    def test_unbounded_log_never_truncates(self):
        log = CommitLog()
        self._feed(log, 10)
        assert len(log.commit_times()) == 10
        assert not log.truncated

    def test_window_validation(self):
        with pytest.raises(ValueError):
            CommitLog(window=0)


# The rule Scenario applies to trace_window / commit_window: an int, not
# a bool, >= 1 — refused at construction, not at the first event.
@pytest.mark.parametrize("owner", [TraceRecorder, CommitLog])
@pytest.mark.parametrize("window", [True, 2.5, 0, "3"])
def test_a_bad_window_is_refused_at_construction(owner, window):
    with pytest.raises(ValueError, match="window must be an int >= 1"):
        owner(window=window)


class TestRetentionSpec:
    def test_a_window_does_not_change_the_throughput_report(self):
        """One pipeline: a retention window that evicts nothing leaves
        the report alone — the closed loop's install-time window of
        submissions included."""
        base = get_scenario("closed-loop-prft")
        plain = base.run(seed=0).throughput
        windowed = base.with_params(trace_window=100_000).run(seed=0).throughput
        assert plain.submitted > plain.committed > 0
        assert windowed.summary() == plain.summary()
        assert windowed.backlog_series == plain.backlog_series

    def test_backlog_resolution_keeps_a_static_batch_scalars(self):
        base = Scenario(name="static-duration", protocol="prft", n=4,
                        duration=50, tx_count=20, max_time=100)
        plain = base.run(seed=0).throughput
        capped = base.with_params(backlog_resolution=64).run(seed=0).throughput
        assert capped.submitted == capped.committed == 20
        assert capped.summary() == plain.summary()

    def test_validation(self):
        with pytest.raises(ValueError):
            RetentionSpec(trace_window=0)
        with pytest.raises(ValueError):
            RetentionSpec(backlog_resolution=1)

    def test_derive_folds_retention_dict(self):
        base = RunSpec(
            factory=prft_factory,
            players=tuple(honest_player(i) for i in range(4)),
            config=ProtocolConfig.for_prft(n=4),
        )
        derived = base.derive(retention={"trace_window": 7})
        assert derived.retention.trace_window == 7
        assert derived.retention.commit_window is None
        assert base.retention == RetentionSpec()


class TestLedgerRetention:
    def test_prune_final_bodies_keeps_digests_and_length(self):
        chain = Chain()
        blocks = []
        for i in range(6):
            block = make_block(chain.head(), i + 1, [make_tx(i)])
            chain.append_tentative(block)
            chain.finalize(block.digest)
            blocks.append(block)
        pruned = chain.prune_final_bodies(keep_last=2)
        assert pruned == 4
        assert chain.bodies_pruned
        finals = chain.final_blocks()
        assert len(finals) == 6
        # Digests and parent links are untouched; deep bodies are gone.
        for original, kept in zip(blocks, finals):
            assert kept.digest == original.digest
        assert finals[0].transactions == ()
        assert finals[-1].transactions == blocks[-1].transactions

    def test_prune_is_idempotent_and_monotone(self):
        chain = Chain()
        for i in range(6):
            block = make_block(chain.head(), i + 1, [make_tx(i)])
            chain.append_tentative(block)
            chain.finalize(block.digest)
        assert chain.prune_final_bodies(keep_last=2) == 4
        assert chain.prune_final_bodies(keep_last=2) == 0

    def test_mempool_history_limit_bounds_known_ids(self):
        pool = Mempool()
        pool.history_limit = 8
        for i in range(100):
            pool.submit(make_tx(i))
        pool.mark_included([f"tx{i}" for i in range(100)])
        assert len(pool) == 0
        # The dedup history holds only the retained suffix.
        assert pool.submit(make_tx(0))  # forgotten, re-admitted
        assert not pool.submit(make_tx(99))  # still remembered


class TestOracleRefusal:
    def test_trace_eviction_skips_declared_checker(self):
        """churn-liveness records two crash/recover pairs; a one-event
        trace window evicts the older pair, so the crash-recovery
        checker must refuse rather than replay half an alternation."""
        scenario = get_scenario("churn-liveness").with_params(
            trace_window=1, check_invariants=True
        )
        result = scenario.run(seed=0)
        assert result.trace.truncated("crash") or result.trace.truncated("recover")
        statuses = dict(result.oracle.as_items())
        assert statuses["crash-recovery"] == "skipped"
        verdict = result.oracle.verdict("crash-recovery")
        assert "retention" in verdict.note
        assert result.oracle.ok  # refusal is not a violation

    def test_full_history_checker_skips_when_submissions_evicted(self):
        scenario = get_scenario("poisson-honest").with_params(
            submission_window=1, check_invariants=True
        )
        result = scenario.run(seed=0)
        assert result.history_truncated
        statuses = dict(result.oracle.as_items())
        assert statuses["validity"] == "skipped"

    def test_untruncated_retention_run_still_certifies(self):
        """Windows wide enough to retain everything leave every checker
        active: refusal triggers on actual eviction, not on the mode."""
        scenario = get_scenario("crash-leader").with_params(
            trace_window=100_000, check_invariants=True
        )
        result = scenario.run(seed=0)
        statuses = dict(result.oracle.as_items())
        assert statuses["crash-recovery"] == "ok"
        assert result.oracle.ok


class TestRetentionEndToEnd:
    def test_retained_run_matches_unbounded_scalars(self):
        """A retention run must not change what happened — only what is
        remembered: scalar throughput totals match the unbounded run."""
        base = get_scenario("poisson-honest")
        unbounded = base.run(seed=0)
        retained = base.with_params(
            trace_window=64,
            commit_window=4096,
            submission_window=1024,
            ledger_window=4,
            backlog_resolution=32,
        ).run(seed=0)
        assert retained.throughput.submitted == unbounded.throughput.submitted
        assert retained.throughput.committed == unbounded.throughput.committed
        assert retained.throughput.blocks == unbounded.throughput.blocks
        assert retained.throughput.latency_p99 == pytest.approx(
            unbounded.throughput.latency_p99
        )
        # And the bounded structures actually engaged.
        assert retained.throughput.final_backlog == unbounded.throughput.final_backlog

    def test_round_state_pruning_preserves_agreement(self):
        """ledger_window also prunes per-round protocol state; honest
        chains must still agree block for block."""
        result = get_scenario("poisson-honest").with_params(
            ledger_window=2
        ).run(seed=0)
        chains = result.honest_chains()
        digests = {
            pid: tuple(b.digest for b in chain.final_blocks())
            for pid, chain in chains.items()
        }
        assert len(set(digests.values())) == 1
        assert any(chain.bodies_pruned for chain in chains.values())
        for replica in result.replicas.values():
            if replica.current_round > 10:
                assert min(replica._rounds) > 0  # round 1's state is long gone

    def test_censorship_audit_refuses_pruned_bodies(self):
        """The censorship check reads final block bodies; under a
        ledger_window it would find a confirmed transaction missing and
        report an honest run as censored, so the pairing is refused."""
        honest = Scenario(
            name="x", n=4, rounds=6, censored_tx_ids=("tx-0",), check_invariants=True
        )
        result = honest.run(seed=0)
        assert result.oracle.ok
        assert result.system_state(censored_tx_ids=["tx-0"]).name == "HONEST"
        with pytest.raises(ValueError, match="censored_tx_ids.*ledger_window"):
            honest.with_params(ledger_window=1)
