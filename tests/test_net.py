"""Unit and property tests for the network substrate (repro.net)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.delays import (
    AsynchronousDelay,
    FixedDelay,
    PartialSynchronyDelay,
    SynchronousDelay,
)
from repro.net.envelope import Envelope
from repro.net.faults import LinkPipeline
from repro.net.network import Network
from repro.net.partition import Partition, PartitionSchedule
from repro.sim.engine import SimulationEngine


class TestDelayModels:
    def test_fixed(self):
        model = FixedDelay(2.5)
        assert model.delay(0, 1, 0.0) == 2.5
        assert model.bound_at(100.0) == 2.5

    def test_fixed_negative_rejected(self):
        with pytest.raises(ValueError):
            FixedDelay(-1.0)

    @given(st.integers(min_value=0, max_value=1000))
    def test_synchronous_within_bounds(self, seed):
        model = SynchronousDelay(delta=2.0, min_delay=0.5, seed=seed)
        for _ in range(20):
            delay = model.delay(0, 1, 0.0)
            assert 0.5 <= delay <= 2.0

    def test_synchronous_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            SynchronousDelay(delta=1.0, min_delay=2.0)

    @given(st.integers(min_value=0, max_value=100))
    def test_asynchronous_finite(self, seed):
        model = AsynchronousDelay(seed=seed)
        for _ in range(50):
            delay = model.delay(0, 1, 0.0)
            assert 0 < delay < float("inf")

    def test_asynchronous_unbounded_reported(self):
        assert AsynchronousDelay().bound_at(0.0) == float("inf")

    @given(st.integers(min_value=0, max_value=200))
    def test_partial_synchrony_pre_gst_delivery_by_gst_plus_delta(self, seed):
        """The DLS88 guarantee: anything sent before GST arrives by GST + Δ."""
        model = PartialSynchronyDelay(gst=50.0, delta=2.0, seed=seed)
        for send_time in (0.0, 10.0, 49.9):
            delay = model.delay(0, 1, send_time)
            assert send_time + delay <= 50.0 + 2.0 + 1e-9

    @given(st.integers(min_value=0, max_value=200))
    def test_partial_synchrony_post_gst_bounded(self, seed):
        model = PartialSynchronyDelay(gst=50.0, delta=2.0, seed=seed)
        for _ in range(20):
            assert model.delay(0, 1, 60.0) <= 2.0

    def test_partial_synchrony_bound_visibility(self):
        model = PartialSynchronyDelay(gst=50.0, delta=2.0)
        assert model.bound_at(10.0) == float("inf")
        assert model.bound_at(50.0) == 2.0


class TestPartition:
    def test_blocks_across_groups(self):
        partition = Partition.of({0, 1}, {2, 3})
        assert partition.blocks(0, 2)
        assert partition.blocks(3, 1)
        assert not partition.blocks(0, 1)

    def test_unlisted_players_unrestricted(self):
        partition = Partition.of({0, 1}, {2, 3})
        assert not partition.blocks(9, 0)
        assert not partition.blocks(2, 9)

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            Partition.of({0, 1}, {1, 2})

    def test_group_of(self):
        partition = Partition.of({0}, {1})
        assert partition.group_of(0) == frozenset({0})
        assert partition.group_of(7) is None


class TestPartitionSchedule:
    def test_active_window(self):
        schedule = PartitionSchedule()
        schedule.add(Partition.of({0}, {1}), 10.0, 20.0)
        assert schedule.active_at(5.0) is None
        assert schedule.active_at(10.0) is not None
        assert schedule.active_at(20.0) is None

    def test_blocks_at(self):
        schedule = PartitionSchedule()
        schedule.add(Partition.of({0}, {1}), 0.0, 10.0)
        assert schedule.blocks_at(0, 1, 5.0)
        assert not schedule.blocks_at(0, 1, 15.0)

    def test_heal_time(self):
        schedule = PartitionSchedule()
        schedule.add(Partition.of({0}, {1}), 0.0, 10.0)
        assert schedule.heal_time(0, 1, 5.0) == 10.0
        assert schedule.heal_time(0, 2, 5.0) == 5.0
        assert schedule.heal_time(0, 1, 12.0) == 12.0

    def test_heal_time_boundaries(self):
        """Sends exactly on the window edges: start is inclusive
        (blocked, deferred to the end), end is exclusive (crosses
        immediately)."""
        schedule = PartitionSchedule()
        schedule.add(Partition.of({0}, {1}), 10.0, 20.0)
        assert schedule.heal_time(0, 1, 10.0) == 20.0   # at start: blocked
        assert schedule.heal_time(0, 1, 20.0) == 20.0   # at end: free
        assert schedule.heal_time(0, 1, 9.999) == 9.999  # just before: free
        assert not schedule.blocks_at(0, 1, 20.0)
        assert schedule.blocks_at(0, 1, 10.0)

    def test_heal_time_chains_across_back_to_back_windows(self):
        """A send landing in window one, whose heal time lands exactly
        at the start of window two blocking the same pair, is deferred
        all the way to the end of window two."""
        schedule = PartitionSchedule()
        schedule.add(Partition.of({0}, {1}), 0.0, 10.0)
        schedule.add(Partition.of({0}, {1}), 10.0, 25.0)
        assert schedule.heal_time(0, 1, 5.0) == 25.0
        # A pair only the first window blocks escapes at its end.
        schedule2 = PartitionSchedule()
        schedule2.add(Partition.of({0}, {1}), 0.0, 10.0)
        schedule2.add(Partition.of({0}, {2}), 10.0, 25.0)
        assert schedule2.heal_time(0, 1, 5.0) == 10.0

    def test_overlapping_windows_rejected(self):
        schedule = PartitionSchedule()
        schedule.add(Partition.of({0}, {1}), 0.0, 10.0)
        with pytest.raises(ValueError):
            schedule.add(Partition.of({2}, {3}), 5.0, 15.0)

    def test_touching_windows_allowed_but_contained_rejected(self):
        """[0,10) then [10,20) touch without overlap; a window nested
        inside an existing one is an overlap."""
        schedule = PartitionSchedule()
        schedule.add(Partition.of({0}, {1}), 0.0, 10.0)
        schedule.add(Partition.of({0}, {1}), 10.0, 20.0)
        with pytest.raises(ValueError):
            schedule.add(Partition.of({0}, {1}), 12.0, 15.0)

    def test_zero_length_window_rejected(self):
        schedule = PartitionSchedule()
        with pytest.raises(ValueError):
            schedule.add(Partition.of({0}, {1}), 5.0, 5.0)

    def test_consecutive_windows(self):
        schedule = PartitionSchedule()
        schedule.add(Partition.of({0}, {1}), 0.0, 10.0)
        schedule.add(Partition.of({0}, {2}), 10.0, 20.0)
        assert schedule.heal_time(0, 1, 5.0) == 10.0
        # sent before the second window opens: crosses immediately
        assert schedule.heal_time(0, 2, 5.0) == 5.0
        # sent inside the second window: deferred to its end
        assert schedule.heal_time(0, 2, 12.0) == 20.0


def _mk_network(delay=None, partitions=None):
    engine = SimulationEngine()
    network = Network(
        engine, LinkPipeline(delay_model=delay or FixedDelay(1.0), partitions=partitions)
    )
    inboxes = {i: [] for i in range(4)}
    for i in range(4):
        network.register(i, lambda env, i=i: inboxes[i].append(env))
    return engine, network, inboxes


class TestNetwork:
    def test_point_to_point_delivery(self):
        engine, network, inboxes = _mk_network()
        network.send(Envelope(0, 1, "hello", "msg", 10))
        engine.run()
        assert len(inboxes[1]) == 1
        assert inboxes[1][0].payload == "hello"

    def test_unknown_recipient_rejected(self):
        from repro.net.network import UnknownRecipientError

        engine, network, _ = _mk_network()
        with pytest.raises(UnknownRecipientError):
            network.send(Envelope(0, 9, "x", "msg", 1))
        # Subclass of ValueError: pre-existing callers keep working.
        with pytest.raises(ValueError):
            network.send(Envelope(0, 9, "x", "msg", 1))

    def test_participants_cached_and_sorted(self):
        engine, network, _ = _mk_network()
        first = network.participants()
        assert first == (0, 1, 2, 3)
        assert network.participants() is first  # no re-sort per call
        network.register(9, lambda env: None)
        network.register(5, lambda env: None)
        assert network.participants() == (0, 1, 2, 3, 5, 9)

    def test_duplicate_registration_rejected(self):
        engine, network, _ = _mk_network()
        with pytest.raises(ValueError):
            network.register(0, lambda env: None)

    def test_broadcast_reaches_everyone_including_sender(self):
        engine, network, inboxes = _mk_network()
        sent = network.broadcast(0, dict.fromkeys(network.participants(), "v"), "msg", 10)
        engine.run()
        assert sent == 4
        assert all(len(inbox) == 1 for inbox in inboxes.values())

    def test_broadcast_per_recipient_payloads(self):
        """Equivocation hook: different recipients can get different payloads."""
        engine, network, inboxes = _mk_network()
        network.broadcast(0, {r: f"v{r % 2}" for r in network.participants()}, "msg", 10)
        engine.run()
        assert inboxes[0][0].payload == "v0"
        assert inboxes[1][0].payload == "v1"

    def test_broadcast_skips_none(self):
        engine, network, inboxes = _mk_network()
        sent = network.broadcast(0, {0: "v", 1: "v", 2: None, 3: "v"}, "msg", 10)
        engine.run()
        assert sent == 3
        assert inboxes[2] == []

    def test_broadcast_sends_every_payload_planned_for_a_recipient(self):
        """A plan entry may be several payloads (None among them is skipped);
        all travel under the one description, in the plan's order."""
        engine, network, inboxes = _mk_network()
        sent = network.broadcast(0, {3: ["a", None, "b"], 1: ("c",)}, "vote", 7, round_number=2)
        engine.run()
        assert sent == 3
        assert [env.payload for env in inboxes[3]] == ["a", "b"]
        assert [e.player for e in network.trace.events("deliver")] == [3, 3, 1]
        assert network.metrics.by_type() == {"vote": (3, 21)}
        assert network.metrics.round_totals() == {2: (3, 21)}

    def test_partition_defers_not_drops(self):
        """Reliable channels: cross-partition traffic is delayed to heal time."""
        schedule = PartitionSchedule()
        schedule.add(Partition.of({0}, {1}), 0.0, 50.0)
        engine, network, inboxes = _mk_network(partitions=schedule)
        network.send(Envelope(0, 1, "late", "msg", 1))
        network.send(Envelope(0, 2, "ontime", "msg", 1))
        engine.run()
        assert len(inboxes[1]) == 1
        assert len(inboxes[2]) == 1
        deliveries = {e.detail["sender"]: e.time for e in network.trace.events("deliver")}
        assert deliveries is not None
        delivery_times = sorted(e.time for e in network.trace.events("deliver"))
        assert delivery_times[0] == 1.0       # unpartitioned
        assert delivery_times[1] >= 50.0      # deferred to heal

    def test_metrics_and_trace_recorded(self):
        engine, network, _ = _mk_network()
        network.send(Envelope(0, 1, "x", "vote", 99, round_number=3))
        engine.run()
        assert network.metrics.by_type() == {"vote": (1, 99)}
        sends = network.trace.events("send")
        assert sends[0].detail["round"] == 3
