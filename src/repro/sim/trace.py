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
from itertools import repeat
from typing import Any, Deque, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union


class TraceEvent(NamedTuple):
    """One observable action at virtual time ``time``.

    ``kind`` is a short verb: "send", "deliver", "tentative", "final",
    "expose", "view_change", "burn", "propose", "timeout", ...
    ``player`` is the acting player's id (or None for system events).
    ``detail`` carries event-specific structured data, its keys in the
    order they were recorded.

    The recorder does not keep these: every read builds fresh ones, so
    a reader may mutate ``detail`` without changing the trace.
    """

    time: float
    kind: str
    player: Optional[int]
    detail: Dict[str, Any]


# ``tuple.__new__`` skips the NamedTuple's Python-level ``__new__``.
_new_event = tuple.__new__


def check_window(window: Optional[int]) -> Optional[int]:
    """``window`` if it is None or an int (not a bool) >= 1, else a ValueError naming it."""
    if window is not None and (
        isinstance(window, bool) or not isinstance(window, int) or window < 1
    ):
        raise ValueError(f"window must be an int >= 1, got {type(window).__name__} {window!r}")
    return window


class TraceRecorder:
    """Append-only log of :class:`TraceEvent` objects, stored as columns.

    Each event kind keeps its newest ``window`` events (``None``, the
    default, never evicts) in five parallel rings: the record-order
    sequence number (so kinds merge back into record order), time,
    player, key schema and values.  The schema is ``tuple(detail)``
    interned per recorder, so a call site's keys are stored once; the
    values are an exact tuple, which the cycle collector untracks at
    its first pass when every value is atomic — a retained event is
    nothing the collector walks.  Reads rebuild each event and its
    ``detail`` dict, so the cost sits with the reads that want events.
    Evicted events are counted in :meth:`dropped`; a kind's lifetime
    count is its rings' length plus what they dropped, and its last
    event is the rings' newest (``window >= 1``, so a recorded kind
    always retains one).
    """

    def __init__(self, window: Optional[int] = None) -> None:
        self._window = check_window(window)
        self._rings: Dict[str, Tuple[Deque[Any], ...]] = {}
        self._schemas: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._dropped: Dict[str, int] = {}
        self._total = 0

    @property
    def window(self) -> Optional[int]:
        return self._window

    def record(self, time: float, kind: str, player: Optional[int] = None, **detail: Any) -> None:
        """Append one event."""
        ring = self._rings.get(kind)
        if ring is None:
            ring = self._rings[kind] = tuple(deque(maxlen=self._window) for _ in range(5))
        seqs, times, players, schemas, values = ring
        if len(seqs) == self._window:
            self._dropped[kind] = self._dropped.get(kind, 0) + 1
        # The lifetime count doubles as the record-order sequence number.
        seqs.append(self._total)
        times.append(time)
        players.append(player)
        keys = tuple(detail)
        schemas.append(self._schemas.setdefault(keys, keys))
        values.append(tuple(detail.values()))
        self._total += 1

    def events(
        self, kind: Union[None, str, Tuple[str, ...]] = None, player: Optional[int] = None
    ) -> List[TraceEvent]:
        """Return retained events in record order, optionally filtered
        by kind (one name, or a tuple of names, each read once) and/or
        player.  Costs O(matching kinds), not a scan of the whole trace."""
        if kind is None:
            kinds: Iterable[str] = self._rings
        else:
            kinds = (kind,) if isinstance(kind, str) else dict.fromkeys(kind)
        per_kind = [zip(*self._rings[name], repeat(name)) for name in kinds if name in self._rings]
        rows = per_kind[0] if len(per_kind) == 1 else merge(*per_kind)
        return [
            _new_event(TraceEvent, (time, name, who, dict(zip(keys, values))))
            for _, time, who, keys, values, name in rows
            if player is None or who == player
        ]

    def count(self, kind: str) -> int:
        """Lifetime number of events of ``kind`` (O(1), exact even when
        the retention window has dropped some of them)."""
        ring = self._rings.get(kind)
        return (len(ring[0]) if ring else 0) + self._dropped.get(kind, 0)

    def last(self, kind: str) -> Optional[TraceEvent]:
        """The most recent event of ``kind``, or None (O(1))."""
        ring = self._rings.get(kind)
        if ring is None:
            return None
        _, times, players, schemas, values = ring
        return _new_event(
            TraceEvent, (times[-1], kind, players[-1], dict(zip(schemas[-1], values[-1])))
        )

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
