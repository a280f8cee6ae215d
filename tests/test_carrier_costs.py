"""The per-message carrier: reference models, and costs asserted by counting.

The engine, the trace and the network sit under every message of every
run, so their hot paths are written for cost (tuple heap entries,
closure-free delivery, counts derived from rings).  These tests hold
them to plain reference models under random operation sequences, and
pin the costs the design is for — Python frames made while ordering the
heap, functions defined per send or per timer, collector-tracked
objects per message, cyclic garbage per finished deployment — by
*counting* them, never by wall-clock.
"""

import collections
import gc
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments.registry import (
    PROTOCOL_FACTORIES, Scenario, get_scenario, scenario_catalog,
)
from repro.experiments.results import RunRecord
from repro.net.envelope import Envelope
from repro.net.network import Network, UnknownRecipientError
from repro.protocols.runner import Deployment
from repro.sim.engine import SimulationEngine
from repro.sim.timers import TimerService
from repro.sim.trace import TraceEvent, TraceRecorder


# ----------------------------------------------------------------------
# (a) the engine against a list-based model
# ----------------------------------------------------------------------
class ModelEngine:
    """The engine's contract with no heap, no lazy deletion and no
    compaction: one list kept sorted by (time, seq), linear removal."""

    def __init__(self):
        self.entries, self.seq = [], 0
        self.now = self.last_event_time = 0.0
        self.events_processed = 0

    pending = property(lambda self: len(self.entries))

    def schedule(self, delay, callback, *args):
        entry = (self.now + delay, self.seq, callback, args)
        self.seq += 1
        self.entries = sorted(self.entries + [entry], key=lambda e: e[:2])
        return entry

    def schedule_at(self, time, callback, *args):
        return self.schedule(time - self.now, callback, *args)

    def cancel(self, entry):
        self.entries = [e for e in self.entries if e is not entry]

    def step(self):
        if not self.entries:
            return False
        self.now, _, callback, args = self.entries.pop(0)
        self.last_event_time = self.now
        self.events_processed += 1
        callback(*args)
        return True

    def run(self, until=None, max_events=None):
        fired = 0
        while self.entries:
            if max_events is not None and fired >= max_events:
                return
            if until is not None and self.entries[0][0] >= until:
                break
            fired += self.step()
        if until is not None:
            self.now = max(self.now, until)


class Driver:
    """Applies one operation script to an engine; callbacks log their
    label and may schedule or cancel from inside the firing event."""

    def __init__(self, engine, cancel):
        self.engine, self._cancel = engine, cancel
        self.handles, self.log = [], []

    def schedule(self, delay, label, inner=None, absolute=False):
        if absolute:
            handle = self.engine.schedule_at(self.engine.now + delay, self.fire, label, inner)
        else:
            handle = self.engine.schedule(delay, self.fire, label, inner)
        self.handles.append(handle)

    def cancel(self, index):
        if self.handles:
            self._cancel(self.handles[index % len(self.handles)])

    def fire(self, label, inner):
        self.log.append((label, self.engine.now))
        if inner is not None:
            self.apply(inner)

    def apply(self, op):
        kind = op[0]
        if kind in ("schedule", "schedule_at"):
            self.schedule(op[1], op[2], op[3], absolute=kind == "schedule_at")
        elif kind == "cancel":
            self.cancel(op[1])
        elif kind == "burst":  # more than 64 queued, most of them then cancelled
            first = len(self.handles)
            for offset in range(op[1]):
                self.schedule(1.0 + offset % 7, ("burst", offset))
            for index in range(first + op[2], len(self.handles)):
                self.cancel(index)
        elif kind == "step":
            self.log.append(("step", self.engine.step()))
        else:
            until = None if op[1] is None else self.engine.now + op[1]
            self.engine.run(until=until, max_events=op[2])

    def state(self):
        engine = self.engine
        return (
            list(self.log), engine.now, engine.last_event_time,
            engine.pending, engine.events_processed,
        )


# Few distinct delays, so ties (ordered by seq alone) are common.
_delays = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0, 5, allow_nan=False))
_labels = st.integers(0, 999)
_inner = st.one_of(
    st.none(),
    st.tuples(st.just("schedule"), _delays, _labels, st.none()),
    st.tuples(st.just("cancel"), st.integers(0, 500)),
)
_ops = st.one_of(
    st.tuples(st.sampled_from(["schedule", "schedule_at"]), _delays, _labels, _inner),
    st.tuples(st.just("cancel"), st.integers(0, 500)),
    st.tuples(st.just("burst"), st.integers(65, 90), st.integers(0, 30)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), st.one_of(st.none(), _delays), st.one_of(st.none(), st.integers(0, 40))),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_ops, max_size=40))
# The event budget runs out with only a cancelled entry left queued: the
# clock must land where it would had that entry never been scheduled.
@example([("schedule", 1.0, 1, None), ("schedule", 5.0, 2, None), ("cancel", 1), ("run", 10.0, 1)])
def test_engine_matches_the_list_model(script):
    model = ModelEngine()
    real, reference = Driver(SimulationEngine(), lambda e: e.cancel()), Driver(model, model.cancel)
    for op in script:
        real.apply(op)
        reference.apply(op)
        assert real.state() == reference.state(), op
    real.engine.run()
    reference.engine.run()
    assert real.state() == reference.state()
    assert real.engine.pending == 0


def test_the_model_script_crosses_the_compaction_threshold():
    """The ``burst`` operation is what makes the property test reach
    heap compaction; hold it to that."""
    driver = Driver(SimulationEngine(), lambda e: e.cancel())
    driver.apply(("burst", 90, 5))
    assert driver.engine.pending == 5
    assert len(driver.engine._queue) < SimulationEngine._COMPACT_MIN_QUEUE


# ----------------------------------------------------------------------
# (b) the trace against a list of TraceEvents
# ----------------------------------------------------------------------
class ModelTrace:
    """The recorder's contract as a list of every ``TraceEvent``: each
    kind keeps its newest ``window`` events, with no columns and no
    compaction."""

    def __init__(self, window):
        self.window = window
        self.history = []  # (index within its kind, event), in record order
        self.of_kind = collections.defaultdict(list)

    def record(self, event):
        events = self.of_kind[event.kind]
        self.history.append((len(events), event))
        events.append(event)

    def kept(self, kind):
        events = self.of_kind.get(kind, [])
        return events if self.window is None else events[-self.window:]

    def kept_count(self, kind):
        """``len(self.kept(kind))`` without the slice."""
        lifetime = len(self.of_kind.get(kind, ()))
        return lifetime if self.window is None else min(lifetime, self.window)

    def retained(self):
        """Every kind's newest ``window`` events, in record order."""
        window = self.window or len(self.history)
        return [
            event for index, event in self.history
            if len(self.of_kind[event.kind]) - index <= window
        ]


def _assert_lifetime(trace, model):
    assert len(trace) == len(model.history)
    for kind in "abcz":
        lifetime, kept = model.of_kind.get(kind, []), model.kept_count(kind)
        assert trace.count(kind) == len(lifetime)
        assert trace.last(kind) == (lifetime[-1] if lifetime else None)
        assert trace.dropped(kind) == len(lifetime) - kept
        assert trace.truncated(kind) == (len(lifetime) > kept)
    dropped = sum(len(events) - model.kept_count(kind) for kind, events in model.of_kind.items())
    assert trace.dropped() == dropped
    assert trace.truncated() == (dropped > 0)


def _assert_reads(trace, model):
    retained = model.retained()
    # A kind named twice is read once.
    for kinds in ("a", "z", ("a", "c"), ("c", "z", "a"), ("a", "a"), ["c", "a", "c"], None):
        names = "abc" if kinds is None else kinds
        for who in (None, 0, 1):
            expected = [
                e for e in retained if e.kind in names and (who is None or e.player == who)
            ]
            assert trace.events(kinds, who) == expected, (kinds, who)
    assert list(trace) == trace.events() == retained


# Key sets and key orders vary within one kind; details may be empty or
# hold a list.
_details = st.lists(
    st.tuples(st.sampled_from(["x", "y", "round"]),
              st.one_of(st.integers(-3, 300), st.none(), st.lists(st.integers(0, 3), max_size=2))),
    unique_by=lambda item: item[0], max_size=3,
).map(dict)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([None, 1, 2, 3, 64]),
    st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from([None, 0, 1]), _details),
             min_size=1, max_size=8),
)
@example(1, [("a", None, {}), ("a", 0, {"x": 1, "y": [2]}), ("b", 1, {"round": 3})])
def test_trace_matches_the_list_model(window, pattern):
    """The pattern repeats until each kind in it is recorded at least
    3 × (window + 64) times, so a finite window crosses several
    compactions; reads are checked on both sides of each."""
    keep = 64 if window is None else window
    # A kind compacts when its rows reach keep + slack, down to keep.
    slack = max(64, keep // 8)
    per_kind = collections.Counter(kind for kind, _, _ in pattern)
    script = pattern * -(-3 * (keep + 64) // min(per_kind.values()))
    trace, model = TraceRecorder(window=window), ModelTrace(window)
    for time, (kind, player, detail) in enumerate(script):
        trace.record(float(time), kind, player, **detail)
        model.record(TraceEvent(float(time), kind, player, dict(detail)))
        _assert_lifetime(trace, model)
        count = len(model.of_kind[kind])
        if count >= keep + slack - 1 and (count - keep) % slack in (0, 1, slack - 1):
            _assert_reads(trace, model)
    _assert_reads(trace, model)
    if window is not None:
        assert all(trace.dropped(kind) > 0 for kind in per_kind)
    expected = model.retained()
    first, second = trace.events(), trace.events()
    assert first == second == expected
    assert [list(e.detail) for e in first] == [list(e.detail) for e in expected]
    # Every read builds fresh events, so a reader's edits stay its own.
    assert all(a is not b and a.detail is not b.detail for a, b in zip(first, second))
    for event in first + [trace.last(k) for k in "abc" if trace.count(k)]:
        event.detail.clear()
        event.detail["edited"] = True
    assert trace.events() == expected
    assert [trace.last(k) for k in "abc"] == [
        model.kept(k)[-1] if model.kept(k) else None for k in "abc"
    ]


# ----------------------------------------------------------------------
# (c) no Python frame orders the heap; nothing is defined per send or timer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["honest", "crash-leader"])
def test_a_real_run_compares_in_c_and_defines_no_function_per_message(name):
    """``crash-leader`` is here because its timers *fire*: a per-timer
    closure that is only ever cancelled would never show up as a call."""
    calls = collections.Counter()

    def profiler(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_qualname] += 1

    scenario = get_scenario(name).with_params(n=4, rounds=1)
    sys.setprofile(profiler)
    try:
        result = scenario.run()
    finally:
        sys.setprofile(None)
    assert calls["Network.send"] == result.metrics.total_messages > 0
    assert calls["TimerService.set_timer"] > 0
    if name == "crash-leader":
        assert result.ctx.trace.count("timeout") > 0
    assert [called for called in calls if called.rsplit(".", 1)[-1] == "__lt__"] == []
    per_call = ("Network.send.<locals>", "TimerService.set_timer.<locals>")
    assert [called for called in calls if called.startswith(per_call)] == []


# ----------------------------------------------------------------------
# (d) collector-tracked objects per message
# ----------------------------------------------------------------------
def _tracked():
    return collections.Counter(type(obj).__name__ for obj in gc.get_objects())


def _carrier(recipients):
    """An engine and a network whose recipients keep only a count."""
    engine = SimulationEngine()
    network = Network(engine)
    received = []
    for player in range(recipients):
        network.register(player, lambda envelope: received.append(None))
    plan = dict.fromkeys(range(recipients), "payload")
    network.broadcast(0, plan, "vote", 10, 1)  # the rings and counters now exist
    engine.run()
    return engine, network, plan, received


def test_tracked_objects_per_message():
    """What the cycle collector must walk per message is the unit that
    sets its share of a run (15-20 %): at most four objects while a
    message is in flight — its ``Envelope``, the ``Event``, its heap
    entry and its argument tuple — and none once delivered and
    collected.  The trace keeps the send and the deliver in typed
    columns and a flat values list, so recording them allocates no
    tracked object at all."""
    recipients, broadcasts = 8, 100
    engine, network, plan, received = _carrier(recipients)
    messages = recipients * broadcasts
    _tracked()  # a first call fills caches of its own; they are not per message
    gc.collect()
    gc.disable()
    try:
        before = _tracked()
        for _ in range(broadcasts):
            network.broadcast(0, plan, "vote", 10, 1)
        in_flight = _tracked() - before
        engine.run()
        gc.collect()
        retained = _tracked() - before
    finally:
        gc.enable()
    assert len(received) == recipients + messages
    # The two snapshots' own Counters and frames are the slack.
    assert sum(in_flight.values()) <= 4 * messages + 20, in_flight
    assert retained["TraceEvent"] == 0
    assert sum(retained.values()) <= 0.01 * messages, retained


def test_retained_bytes_per_record():
    """A retained 3-key ``send`` / ``deliver`` record costs 26 bytes of
    array slots (sequence number, time, player, schema index) and three
    pointers in the values list — 56 B measured here, where a value
    tuple per record made it 153 and a ``TraceEvent`` plus a ``detail``
    dict 328."""
    recipients, broadcasts = 8, 1000
    engine, network, plan, received = _carrier(recipients)
    records = len(network.trace)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(broadcasts):
            network.broadcast(0, plan, "vote", 10, 1)
        engine.run()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    records = len(network.trace) - records
    assert records == 2 * recipients * broadcasts
    assert grown / records <= 64, grown / records


def test_retained_bytes_under_a_window():
    """A finite window lets a kind grow ``max(64, window // 8)`` rows
    past ``window`` before it deletes its oldest rows, so after ten
    windows' worth of records the trace holds at most that many rows
    per kind, each within the per-record bound above.  A slack of a
    whole window more would not fit."""
    window, kinds = 1000, ("send", "deliver", "drop")
    rows = window + max(64, window // 8)
    trace = TraceRecorder(window=window)
    for kind in kinds:  # the columns and the schema now exist
        trace.record(0.0, kind, 0, recipient=0, message_type="vote", round=1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for step in range(10 * window):
            for kind in kinds:
                trace.record(float(step), kind, step % 8, recipient=step % 8,
                             message_type="vote", round=1)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == len(kinds) * (10 * window + 1)
    assert trace.dropped() == len(kinds) * (9 * window + 1)
    assert grown <= len(kinds) * rows * 64, grown / (len(kinds) * rows)


# ----------------------------------------------------------------------
# (e) a finished deployment is freed by reference counting
# ----------------------------------------------------------------------
_FINISHED = {
    **scenario_catalog(),
    **{
        f"protocol-matrix/{protocol}": get_scenario("protocol-matrix").with_params(
            protocol=protocol
        )
        for protocol in PROTOCOL_FACTORIES
    },
    # Every retention window evicts: the trace, the commit log and the
    # submission record are all truncated by the end of the run.
    "hotstuff-retention": Scenario(
        name="hotstuff-retention", protocol="hotstuff", tolerance="bft", n=7,
        workload="poisson", arrival_rate=4.0, duration=60.0, timeout=10.0,
        max_time=400.0, aggregate_certs=True, trace_window=64, commit_window=8,
        submission_window=32, ledger_window=4,
    ),
    "pbft-loss-crash": Scenario(
        name="pbft-loss-crash", protocol="pbft", tolerance="bft", n=7,
        workload="poisson", arrival_rate=0.5, duration=120.0, timeout=5.0,
        max_time=600.0, loss_rate=0.05, crash_spec=((1, 10.0, 40.0), (4, 60.0)),
    ),
}


@pytest.mark.parametrize("name", list(_FINISHED))
def test_a_finished_deployment_is_freed_by_reference_counting(name):
    """Dropping a finished run's result frees the whole deployment at
    once: nothing is left for the cycle collector.  A run that kept its
    event-loop wiring left thousands of objects in reference cycles
    (4,037 on ``honest``), which a sweep of many cells holds in memory
    until a full collection."""
    scenario = _FINISHED[name].with_params(check_invariants=True)
    gc.collect()
    gc.disable()
    try:
        result = scenario.run(seed=0)
        RunRecord.from_result(scenario, 0, result)
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_release_keeps_the_engine_counters_exact(monkeypatch):
    """``liveness`` ends at ``max_time`` with timers still armed.  The
    release empties the queue, yet ``pending`` must read 0 (not the
    live count the queue had), the clock and counters must keep the
    values the run left, and cancelling a timer handle a replica still
    holds must not count a queued event off a queue that is gone."""
    handles = []
    set_timer = TimerService.set_timer

    def recording_set_timer(self, *args):
        handles.append(set_timer(self, *args))
        return handles[-1]

    monkeypatch.setattr(TimerService, "set_timer", recording_set_timer)
    deployment = Deployment(get_scenario("liveness").build_run_spec(seed=0))
    engine = deployment.ctx.engine
    release, at_release = engine.release, {}

    def observed_release():
        at_release.update(
            pending=engine.pending,
            counters=(engine.events_processed, engine.last_event_time, engine.now),
        )
        release()

    monkeypatch.setattr(engine, "release", observed_release)
    result = deployment.execute()
    assert at_release["pending"] > 0
    assert engine.pending == 0
    assert (engine.events_processed, engine.last_event_time, engine.now) == at_release["counters"]
    unfired = [
        event for event in handles
        if not event.cancelled and event.time > engine.last_event_time
    ]
    assert unfired
    for event in unfired:
        event.cancel()
    assert engine.pending == 0
    with pytest.raises(RuntimeError, match="only be executed once"):
        deployment.execute()
    network = result.ctx.network
    assert network.participants() == tuple(sorted(result.replicas))
    with pytest.raises(UnknownRecipientError):
        network.send(Envelope(0, 1, "payload", "vote", 10))
    assert engine.pending == 0


# ----------------------------------------------------------------------
# (f) Envelope's surface
# ----------------------------------------------------------------------
def test_envelope_surface():
    envelope = Envelope(0, 1, "payload", "vote", 99)
    assert Envelope._fields == (
        "sender", "recipient", "payload", "message_type", "size_bytes", "round_number"
    )
    assert envelope.round_number == -1
    assert envelope == Envelope(0, 1, "payload", "vote", 99, round_number=-1)
    assert envelope != Envelope(0, 1, "payload", "vote", 99, round_number=3)
    assert (envelope.sender, envelope.recipient, envelope.payload) == (0, 1, "payload")
    assert (envelope.message_type, envelope.size_bytes) == ("vote", 99)
    with pytest.raises(AttributeError):
        envelope.recipient = 2
