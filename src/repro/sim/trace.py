"""Structured execution traces.

Every observable protocol action — send, deliver, tentative/final
decision, Proof-of-Fraud exposure, view change, collateral burn — is
appended to a :class:`TraceRecorder`.  Traces are the interface between
protocol execution and analysis: the robustness checker (Definition 1),
the accountability checker (Definition 6) and the game-theoretic state
classifier (Table 2) all operate on traces, never on replica internals.

The recorder stores events one way: a per-kind ring buffer of capacity
``window``.  The default, ``window=None``, is the unbounded ring — every
event is kept, the behaviour every oracle check was written against.
Soak runs pass a finite ``window`` so a ≥10⁶-event run holds only the
newest ``window`` events of each kind.  Lifetime bookkeeping (``count``,
``len``, ``last``) stays exact either way, and :meth:`truncated` tells
analysis code whether the events it is about to iterate are the
complete history or just the retained suffix.
"""

from __future__ import annotations

from collections import deque
from heapq import merge
from typing import Any, Deque, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union


class TraceEvent(NamedTuple):
    """One observable action at virtual time ``time``.

    ``kind`` is a short verb: "send", "deliver", "tentative", "final",
    "expose", "view_change", "burn", "propose", "timeout", ...
    ``player`` is the acting player's id (or None for system events).
    ``detail`` carries event-specific structured data.
    """

    time: float
    kind: str
    player: Optional[int]
    detail: Dict[str, Any]


_new_event = tuple.__new__


class TraceRecorder:
    """Append-only log of :class:`TraceEvent` objects.

    Each event kind keeps its newest ``window`` events in a ring
    buffer (``None``, the default, never evicts); older events are
    dropped and counted in :meth:`dropped`.  A parallel ring holds each
    retained event's record-order sequence number, so kinds merge back
    into the order they were recorded in.  The rings are the only
    per-kind state :meth:`record` touches: a kind's lifetime count is
    its ring's length plus what the ring dropped, and its last event is
    the ring's newest (``window >= 1``, so a recorded kind always
    retains one).
    """

    def __init__(self, window: Optional[int] = None) -> None:
        if window is not None and window < 1:
            raise ValueError("window must be positive")
        self._window = window
        self._rings: Dict[str, Deque[TraceEvent]] = {}
        self._seqs: Dict[str, Deque[int]] = {}
        self._dropped: Dict[str, int] = {}
        self._total = 0

    @property
    def window(self) -> Optional[int]:
        return self._window

    def record(self, time: float, kind: str, player: Optional[int] = None, **detail: Any) -> None:
        """Append one event."""
        ring = self._rings.get(kind)
        if ring is None:
            ring = self._rings[kind] = deque(maxlen=self._window)
            self._seqs[kind] = deque(maxlen=self._window)
        if len(ring) == self._window:
            self._dropped[kind] = self._dropped.get(kind, 0) + 1
        # ``tuple.__new__`` skips the NamedTuple's Python-level ``__new__``.
        ring.append(_new_event(TraceEvent, (time, kind, player, detail)))
        # The lifetime count doubles as the record-order sequence number.
        self._seqs[kind].append(self._total)
        self._total += 1

    def events(
        self, kind: Union[None, str, Tuple[str, ...]] = None, player: Optional[int] = None
    ) -> List[TraceEvent]:
        """Return retained events in record order, optionally filtered
        by kind (one name, or a tuple of names) and/or player.  Costs
        O(matching kinds), not a scan of the whole trace."""
        if isinstance(kind, str):  # one ring is already in record order
            selected: Iterable[TraceEvent] = self._rings.get(kind, ())
        else:
            kinds = self._rings if kind is None else [k for k in kind if k in self._rings]
            pairs = merge(*(zip(self._seqs[k], self._rings[k]) for k in kinds))
            selected = (event for _, event in pairs)
        return [event for event in selected if player is None or event.player == player]

    def count(self, kind: str) -> int:
        """Lifetime number of events of ``kind`` (O(1), exact even when
        the retention window has dropped some of them)."""
        return len(self._rings.get(kind, ())) + self._dropped.get(kind, 0)

    def last(self, kind: str) -> Optional[TraceEvent]:
        """The most recent event of ``kind``, or None (O(1))."""
        ring = self._rings.get(kind)
        return ring[-1] if ring else None

    def dropped(self, kind: Optional[str] = None) -> int:
        """Events evicted by the retention window (0 when unbounded)."""
        if kind is not None:
            return self._dropped.get(kind, 0)
        return sum(self._dropped.values())

    def truncated(self, kind: Optional[str] = None) -> bool:
        """True if retention dropped any event (of ``kind``, if given).

        Oracle checks consult this before iterating: a checker whose
        evidence window was truncated refuses to certify rather than
        silently passing on a partial trace.
        """
        return self.dropped(kind) > 0

    def __len__(self) -> int:
        """Lifetime event count (exact even under retention)."""
        return self._total

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())
