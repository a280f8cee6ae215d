"""The message bus tying engine, link pipeline and replicas together.

``Network`` asks the deployment's
:class:`~repro.net.faults.LinkPipeline` (delay → partition → drop →
duplication → reorder-jitter) when each envelope arrives and schedules
one delivery per surviving copy.  Payloads are tamper-proof (the
pipeline decides delivery *times*, never contents); with every fault
knob at zero, channels are reliable and exactly-once, as the paper's
baseline model assumes.  This package is also the only place an
:class:`~repro.net.envelope.Envelope` is described: replicas hand
:meth:`Network.broadcast` a plan and the traffic's description once.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.net.envelope import Envelope
from repro.net.faults import LinkPipeline
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import MetricsCollector
from repro.sim.trace import TraceRecorder

Handler = Callable[[Envelope], None]

#: The trace kinds a :class:`Network` records if its trace takes them:
#: a send, a delivered copy, an envelope that never reached a live replica.
TRAFFIC_KINDS = ("send", "deliver", "drop")


class UnknownRecipientError(ValueError):
    """Raised when an envelope is addressed to an unregistered player."""


class Network:
    """Point-to-point and broadcast delivery through the link pipeline.

    The metrics count every send, drop and duplicate.  The trace gets
    :data:`TRAFFIC_KINDS` only from a recorder that records them, which
    is decided once, at construction.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        pipeline: Optional[LinkPipeline] = None,
        metrics: Optional[MetricsCollector] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self._engine = engine
        self._pipeline = pipeline if pipeline is not None else LinkPipeline()
        self.metrics = metrics if metrics is not None else MetricsCollector()
        # `is not None`, not `or`: an empty recorder is falsy (len 0)
        # but may carry a retention window that must survive.
        self.trace = trace if trace is not None else TraceRecorder()
        left_out = set(TRAFFIC_KINDS).intersection(self.trace.unrecorded)
        if 0 < len(left_out) < len(TRAFFIC_KINDS):
            raise ValueError(f"a network's trace records all of {TRAFFIC_KINDS} or none")
        self._trace_traffic = not left_out
        self._handlers: Dict[int, Handler] = {}
        # Sorted-id cache, rebuilt on (rare) registration so the (hot)
        # broadcast path never re-sorts.
        self._participants: Tuple[int, ...] = ()
        self._crash_faults = False
        # Bound once: a delivery is this method plus its envelope on the
        # event, not a closure or a fresh bound method per send — tracked
        # allocations per message are the collector's share of a run.
        self._bound_deliver = self._deliver

    @property
    def unreliable(self) -> bool:
        """True when delivery is not exactly-once: the pipeline injects
        faults, or a crash schedule takes replicas down mid-run.
        Protocol timeout paths consult this to decide whether to
        retransmit (retransmission on a reliable network would change
        executions that must stay byte-identical)."""
        return self._crash_faults or self._pipeline.fault_injecting

    def mark_unreliable(self) -> None:
        """Declare out-of-band faults (crash/recovery schedules)."""
        self._crash_faults = True

    def register(self, player_id: int, handler: Handler) -> None:
        """Attach ``handler`` as the inbox of ``player_id``."""
        if player_id in self._handlers:
            raise ValueError(f"player {player_id} already registered")
        self._handlers[player_id] = handler
        self._participants = tuple(sorted(self._handlers))

    def release(self) -> None:
        """Detach every inbox at the end of a run.

        Each inbox is bound to a replica that holds this network back,
        as is the bound ``_deliver``.  :meth:`participants`, the metrics
        and the trace stay readable; a later :meth:`send` raises
        :class:`UnknownRecipientError`.
        """
        self._handlers.clear()
        self._bound_deliver = None

    def participants(self) -> Tuple[int, ...]:
        """Ids of all registered players, sorted (cached on register)."""
        return self._participants

    def note_undeliverable(self, envelope: Envelope, reason: str) -> None:
        """Account an envelope that never reached a live state machine.

        Used for link-layer loss (``reason="loss"``) and by replicas
        when a delivery reaches a crashed or halted state machine: the
        traffic was sent and carried, but from the protocol's point of
        view it was dropped, and the metrics say so instead of
        silently counting it as delivered.
        """
        self.metrics.record_drop(reason)
        if self._trace_traffic:
            sender, recipient, _, message_type, _, round_number = envelope
            self.trace.record(
                self._engine.now, "drop", recipient,
                sender=sender, message_type=message_type, round=round_number, reason=reason,
            )

    def send(self, envelope: Envelope) -> None:
        """Send one envelope; each surviving copy is scheduled on the engine.

        Self-addressed envelopes are delivered with the same delay
        distribution (a replica's loopback message still takes a hop in
        the paper's all-to-all broadcasts; this also keeps quorum sizes
        uniform) — and are subject to the same link faults.
        """
        sender, recipient, _, message_type, size_bytes, round_number = envelope
        if recipient not in self._handlers:
            raise UnknownRecipientError(f"unknown recipient {recipient}")
        engine = self._engine
        now = engine.now
        self.metrics.record_send(message_type, size_bytes, round_number)
        if self._trace_traffic:
            self.trace.record(
                now, "send", sender,
                recipient=recipient, message_type=message_type, round=round_number,
            )
        times = self._pipeline.transmit(sender, recipient, now)
        if not times:
            self.note_undeliverable(envelope, reason="loss")
            return
        for index, deliver_at in enumerate(times):
            if index:
                self.metrics.record_duplicate(size_bytes)
            engine.schedule_at(max(deliver_at, now), self._bound_deliver, envelope)

    def _deliver(self, envelope: Envelope) -> None:
        """One scheduled copy of ``envelope`` reaches its recipient."""
        if self._trace_traffic:
            sender, recipient, _, message_type, _, round_number = envelope
            self.trace.record(
                self._engine.now, "deliver", recipient,
                sender=sender, message_type=message_type, round=round_number,
            )
        self._handlers[envelope.recipient](envelope)

    def broadcast(
        self,
        sender: int,
        plan: Dict[int, Any],
        message_type: str,
        size_bytes: int,
        round_number: int = -1,
    ) -> int:
        """Put on the wire what ``plan`` maps each recipient to — a
        payload, several, or None — in the plan's own order.

        Per-recipient payloads are what let byzantine players
        *equivocate* — send conflicting messages to different subsets —
        while an honest plan maps every participant (the sender
        included) to one message.  Every copy travels under the one
        description given here.  Returns the number of envelopes sent.
        """
        sent = 0
        for recipient, planned in plan.items():
            payloads = planned if isinstance(planned, (list, tuple)) else (planned,)
            for payload in payloads:
                if payload is None:
                    continue
                self.send(
                    Envelope(sender, recipient, payload, message_type, size_bytes, round_number)
                )
                sent += 1
        return sent
