"""Unit tests for the discrete-event engine, timers, trace and metrics."""

import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import SimulationEngine
from repro.sim.metrics import MetricsCollector, fit_exponent
from repro.sim.timers import TimerService
from repro.sim.trace import TraceRecorder


class TestEngine:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(3.0, lambda: order.append("c"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(2.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        engine = SimulationEngine()
        order = []
        for name in "abc":
            engine.schedule(1.0, lambda n=name: order.append(n))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.0]

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self):
        """``nan < 0`` is false, so a NaN used to be scheduled, fire
        first, set the clock to NaN and leave the heap un-ordered (every
        comparison against its entry is false)."""
        engine = SimulationEngine()
        fired = []
        with pytest.raises(ValueError, match="nan"):
            engine.schedule(float("nan"), lambda: fired.append("nan"))
        with pytest.raises(ValueError, match="nan"):
            engine.schedule_at(float("nan"), lambda: fired.append("nan"))
        engine.schedule(1.0, lambda: fired.append("late"))
        engine.schedule(0.5, lambda: fired.append("early"))
        engine.run(until=10)
        assert fired == ["early", "late"]
        assert engine.now == 10

    def test_infinite_delay_is_legal_and_never_reached(self):
        """A link that never heals delivers at ``inf``."""
        engine = SimulationEngine()
        fired = []
        engine.schedule(float("inf"), lambda: fired.append("never"))
        engine.schedule_at(float("inf"), lambda: fired.append("never"))
        engine.schedule(1.0, lambda: fired.append("once"))
        engine.run(until=1e9)
        assert fired == ["once"]
        assert (engine.pending, engine.now) == (2, 1e9)

    def test_scheduled_arguments_reach_the_callback(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule(2.0, lambda *args: seen.append(args), "a", 1)
        engine.schedule_at(1.0, lambda *args: seen.append(args), "b")
        event = engine.schedule(3.0, lambda *args: seen.append(args))
        assert (event.time, event.cancelled) == (3.0, False)
        engine.run()
        assert seen == [("b",), ("a", 1), ()]

    def test_cancelled_event_skipped(self):
        engine = SimulationEngine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        engine.run()
        assert fired == []
        assert engine.events_processed == 0

    def test_run_until_advances_clock_over_all_cancelled_queue(self):
        """A queue of nothing but cancelled events must not stop the
        clock short of the requested bound."""
        engine = SimulationEngine()
        for delay in (1.0, 2.0, 3.0):
            engine.schedule(delay, lambda: None).cancel()
        engine.run(until=50.0)
        assert engine.now == 50.0
        assert engine.events_processed == 0
        assert engine.pending == 0

    def test_run_without_until_leaves_clock_on_all_cancelled_queue(self):
        engine = SimulationEngine()
        engine.schedule(7.0, lambda: None).cancel()
        engine.run()
        assert engine.now == 0.0
        assert engine.pending == 0

    def test_run_until_past_cancelled_head_fires_live_tail(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append("dead")).cancel()
        engine.schedule(2.0, lambda: fired.append("live"))
        engine.run(until=10.0)
        assert fired == ["live"]
        assert engine.now == 10.0

    def test_run_until_is_exclusive(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(2.0, lambda: fired.append(2))
        engine.run(until=2.0)
        assert fired == [1]
        assert engine.now == 2.0
        engine.run()
        assert fired == [1, 2]

    def test_an_int_bound_leaves_the_clock_a_float(self):
        """The trace stores times in an ``array('d')``, which would
        silently turn an int clock into a float; the clock is never one."""
        for max_events in (None, 0):
            engine = SimulationEngine()
            engine.run(until=5, max_events=max_events)
            assert (engine.now, type(engine.now)) == (5.0, float)
        engine = SimulationEngine()
        engine.schedule(10.0, lambda: None)
        engine.run(until=5)  # stopped by the bound with an event still queued
        assert (engine.now, type(engine.now)) == (5.0, float)

    def test_max_events_bound(self):
        engine = SimulationEngine()
        fired = []
        for i in range(5):
            engine.schedule(float(i + 1), lambda i=i: fired.append(i))
        engine.run(max_events=2)
        assert len(fired) == 2

    def test_events_scheduled_during_run_are_processed(self):
        engine = SimulationEngine()
        fired = []

        def chain():
            fired.append(engine.now)
            if len(fired) < 3:
                engine.schedule(1.0, chain)

        engine.schedule(1.0, chain)
        engine.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_schedule_at_absolute_time(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule(1.0, lambda: engine.schedule_at(5.0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [5.0]

    def test_pending_counts_live_events_only(self):
        engine = SimulationEngine()
        live = engine.schedule(1.0, lambda: None)
        dead = engine.schedule(2.0, lambda: None)
        dead.cancel()
        assert engine.pending == 1
        assert live is not dead

    def test_pending_counter_survives_cancel_pop_mixtures(self):
        engine = SimulationEngine()
        events = [engine.schedule(float(i + 1), lambda: None) for i in range(10)]
        events[0].cancel()
        events[0].cancel()  # double cancel is a no-op
        engine.step()       # fires the event at t=2
        events[1].cancel()  # already fired: must not corrupt the counter
        assert engine.pending == 8
        engine.run()
        assert engine.pending == 0

    def test_pending_zero_after_drain_with_cancellations(self):
        engine = SimulationEngine()
        keep = [engine.schedule(1.0, lambda: None) for _ in range(5)]
        drop = [engine.schedule(2.0, lambda: None) for _ in range(5)]
        for event in drop:
            event.cancel()
        engine.run()
        assert engine.pending == 0
        assert engine.events_processed == len(keep)

    def test_heap_compacted_when_cancellations_dominate(self):
        """Mass-cancelling timers shrinks the heap instead of leaving a
        graveyard of dead entries for every later push/pop to sift."""
        engine = SimulationEngine()
        events = [engine.schedule(float(i + 1), lambda: None) for i in range(200)]
        for event in events[2:]:
            event.cancel()
        assert engine.pending == 2
        assert len(engine._queue) < 64  # compaction kicked in
        engine.run()
        assert engine.events_processed == 2

    def test_cancellation_inside_callback_keeps_order(self):
        engine = SimulationEngine()
        order = []
        later = engine.schedule(2.0, lambda: order.append("later"))
        engine.schedule(1.0, lambda: (order.append("first"), later.cancel()))
        engine.schedule(3.0, lambda: order.append("last"))
        engine.run()
        assert order == ["first", "last"]
        assert engine.pending == 0

    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), max_size=20))
    def test_firing_times_nondecreasing(self, delays):
        engine = SimulationEngine()
        times = []
        for delay in delays:
            engine.schedule(delay, lambda: times.append(engine.now))
        engine.run()
        assert times == sorted(times)


class TestTimerService:
    def test_timer_fires(self):
        engine = SimulationEngine()
        timers = TimerService(engine)
        fired = []
        timers.set_timer(0, "t", 2.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [2.0]

    def test_rearm_replaces(self):
        engine = SimulationEngine()
        timers = TimerService(engine)
        fired = []
        timers.set_timer(0, "t", 1.0, lambda: fired.append("first"))
        timers.set_timer(0, "t", 2.0, lambda: fired.append("second"))
        engine.run()
        assert fired == ["second"]

    def test_cancel(self):
        engine = SimulationEngine()
        timers = TimerService(engine)
        fired = []
        timers.set_timer(0, "t", 1.0, lambda: fired.append(1))
        assert timers.cancel(0, "t")
        assert not timers.cancel(0, "t")
        engine.run()
        assert fired == []

    def test_cancel_all_only_touches_owner(self):
        engine = SimulationEngine()
        timers = TimerService(engine)
        fired = []
        timers.set_timer(0, "a", 1.0, lambda: fired.append("0a"))
        timers.set_timer(0, "b", 1.0, lambda: fired.append("0b"))
        timers.set_timer(1, "a", 1.0, lambda: fired.append("1a"))
        assert timers.cancel_all(0) == 2
        engine.run()
        assert fired == ["1a"]

    def test_is_armed(self):
        engine = SimulationEngine()
        timers = TimerService(engine)
        timers.set_timer(0, "t", 1.0, lambda: None)
        assert timers.is_armed(0, "t")
        engine.run()
        assert not timers.is_armed(0, "t")

    def test_only_the_armed_event_clears_its_key(self):
        """A timer cancelled and re-armed from inside another timer's
        callback at the same instant stays armed until it fires itself."""
        engine = SimulationEngine()
        timers = TimerService(engine)
        fired = []

        def rearm():
            timers.cancel(0, "t")
            timers.set_timer(0, "t", 1.0, lambda: fired.append(engine.now))

        timers.set_timer(0, "other", 1.0, rearm)
        timers.set_timer(0, "t", 1.0, lambda: fired.append("stale"))
        engine.run(until=1.5)
        assert timers.is_armed(0, "t") and fired == []
        engine.run()
        assert fired == [2.0] and not timers.is_armed(0, "t")

    @pytest.mark.parametrize("ending", ["fires", "cancelled", "replaced"])
    def test_a_finished_timer_is_freed_without_the_cycle_collector(self, ending):
        """A timer must not be a reference cycle (it was: the callback
        closed over its own event), or each one waits for a collector
        pass — thousands per faulty run."""
        engine = SimulationEngine()
        timers = TimerService(engine)
        gc.disable()
        try:
            timer = weakref.ref(timers.set_timer(0, "t", 1.0, lambda: None))
            if ending == "cancelled":
                assert timers.cancel(0, "t")
            elif ending == "replaced":
                timers.set_timer(0, "t", 5.0, lambda: None)
            engine.run(until=2.0)  # pops the entry, fired or dead
            assert timer() is None
        finally:
            gc.enable()


class TestTrace:
    def test_record_and_filter(self):
        trace = TraceRecorder()
        trace.record(1.0, "send", 0, to=1)
        trace.record(2.0, "send", 1, to=0)
        trace.record(3.0, "final", 0)
        assert trace.count("send") == 2
        assert len(trace.events("send", player=0)) == 1
        assert trace.last("final").time == 3.0
        assert trace.last("missing") is None
        assert len(trace) == 3

    def test_detail_stored(self):
        trace = TraceRecorder()
        trace.record(0.0, "burn", 2, accused=5)
        assert trace.events("burn")[0].detail["accused"] == 5


class TestMetrics:
    def test_accounting(self):
        metrics = MetricsCollector()
        metrics.record_send("vote", 100, round_number=0)
        metrics.record_send("vote", 100, round_number=1)
        metrics.record_send("commit", 500, round_number=1)
        assert metrics.total_messages == 3
        assert metrics.total_bytes == 700
        assert metrics.by_type() == {"vote": (2, 200), "commit": (1, 500)}

    def test_reading_a_counter_adds_no_row(self):
        """Asking about a type nobody sent used to index the
        ``defaultdict`` and grow the table reports and the differential
        compare."""
        metrics = MetricsCollector()
        metrics.record_send("vote", 10, 1)
        assert metrics.by_type().get("ghost", (0, 0)) == (0, 0)
        metrics.per_round_average()
        assert metrics.by_type() == {"vote": (1, 10)}
        assert metrics.round_totals() == {1: (1, 10)}

    def test_per_round_average(self):
        metrics = MetricsCollector()
        metrics.record_send("a", 10, round_number=0)
        metrics.record_send("a", 30, round_number=1)
        count, size = metrics.per_round_average()
        assert count == 1.0
        assert size == 20.0

    def test_per_round_average_empty(self):
        assert MetricsCollector().per_round_average() == (0.0, 0.0)

    def test_unrounded_traffic_excluded_from_round_average(self):
        metrics = MetricsCollector()
        metrics.record_send("a", 10)  # round -1
        assert metrics.per_round_average() == (0.0, 0.0)


class TestFitExponent:
    def test_quadratic(self):
        sizes = [4, 8, 16, 32]
        values = [float(n * n) for n in sizes]
        assert abs(fit_exponent(sizes, values) - 2.0) < 1e-9

    def test_linear_with_constant(self):
        sizes = [4, 8, 16, 32]
        values = [7.0 * n for n in sizes]
        assert abs(fit_exponent(sizes, values) - 1.0) < 1e-9

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_exponent([4], [16.0])

    @given(st.floats(min_value=0.5, max_value=4.0), st.floats(min_value=0.1, max_value=10))
    def test_recovers_exponent(self, exponent, scale):
        sizes = [4, 8, 16, 32, 64]
        values = [scale * n**exponent for n in sizes]
        assert abs(fit_exponent(sizes, values) - exponent) < 1e-6
