"""Structured execution traces.

Every observable protocol action — send, deliver, tentative/final
decision, Proof-of-Fraud exposure, view change, collateral burn — is
appended to a :class:`TraceRecorder`.  Traces are the interface between
protocol execution and analysis: the robustness checker (Definition 1),
the accountability checker (Definition 6) and the game-theoretic state
classifier (Table 2) all operate on traces, never on replica internals.

The recorder stores events one way: per kind, typed columns that keep
the newest ``window`` events.  The default, ``window=None``, keeps
every event — the behaviour every oracle check was written against.
Soak runs pass a finite ``window`` so a ≥10⁶-event run holds only the
newest ``window`` events of each kind.  Kinds named in ``unrecorded``
never reach the recorder, and reading one raises: a deployment leaves
its network traffic (``send`` / ``deliver`` / ``drop``) out this way
unless its :class:`~repro.protocols.spec.RetentionSpec` sets
``trace_traffic``, and :class:`~repro.sim.metrics.MetricsCollector`
counts sends, drops and duplicates either way.  Lifetime bookkeeping
(``count``, ``len``) stays exact for every recorded kind, and
:meth:`truncated` tells analysis code whether the events it is about to
iterate are the complete history or just the retained suffix.
"""

from __future__ import annotations

import sys
from array import array
from itertools import islice
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union


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

#: The player column's value for ``player=None`` (no player id is this small).
_NO_PLAYER = -(1 << 63)
#: The schema column is ``array('H')``: a recorder interns at most this many key sets.
_MAX_SCHEMAS = 1 << 16


def check_window(window: Optional[int]) -> Optional[int]:
    """``window`` if it is None or an int (not a bool) >= 1, else a ValueError naming it."""
    if window is not None and (
        isinstance(window, bool) or not isinstance(window, int) or window < 1
    ):
        raise ValueError(f"window must be an int >= 1, got {type(window).__name__} {window!r}")
    return window


class _Ring(NamedTuple):
    """One kind's columns, row i being its i-th oldest stored event,
    and their appenders, bound once."""

    seqs: array  # 'q': record-order sequence number
    times: array  # 'd'
    players: array  # 'q', ``_NO_PLAYER`` for None
    schemas: array  # 'H': index into the recorder's interned key tuples
    values: List[Any]  # every row's detail values, flat, ``len(schema)`` per row
    add_seq: Callable[[int], None]
    add_time: Callable[[float], None]
    add_player: Callable[[int], None]
    add_schema: Callable[[int], None]
    add_values: Callable[[Iterable[Any]], None]


def _open_ring() -> _Ring:
    columns = (array("q"), array("d"), array("q"), array("H"), [])
    return _Ring(*columns, *(column.append for column in columns[:4]), columns[4].extend)


class TraceRecorder:
    """Append-only log of :class:`TraceEvent` objects, stored as typed columns.

    Each event kind keeps five columns: the record-order sequence number
    (so kinds merge back into record order), time and player as
    ``array('q')`` / ``array('d')`` / ``array('q')``, the key schema as
    an ``array('H')`` index into ``tuple(detail)`` interned per recorder
    (one tuple per call site), and one flat list that every record
    extends with ``detail.values()``.  A stored record thus owns no
    Python object of its own — no sequence ``int``, time ``float`` or
    value tuple — only 26 bytes of array slots and a pointer per detail
    value.  Reads rebuild each event and its ``detail`` dict, walking
    the values ``len(schema)`` at a time, so the cost sits with the
    reads that want events.

    A finite ``window`` keeps the newest ``window`` rows of each kind:
    a kind whose columns reach ``window + max(64, window // 8)`` rows
    deletes its oldest rows down to ``window``, and reads skip any rows
    beyond the newest ``window``.  ``window=None`` is the same code with
    a window no run reaches.  A kind's lifetime count is its rows plus
    those compaction deleted, and its last event is its newest row
    (``window >= 1``, so a recorded kind always retains one).

    A kind in ``unrecorded`` is one its producer never records (a
    deployment's network, for its traffic, unless ``trace_traffic`` is
    set).  Reading it by name (:meth:`events`, :meth:`last`,
    :meth:`count`, :meth:`dropped`) raises ``ValueError`` rather than
    answering with an empty history or a 0; :meth:`events` with no kind
    returns the recorded kinds.  A recorder built directly records
    every kind.
    """

    def __init__(self, window: Optional[int] = None, unrecorded: Iterable[str] = ()) -> None:
        self._window = check_window(window)
        self._keep = sys.maxsize if window is None else window
        self._compact_at = self._keep + max(64, self._keep // 8)
        self._rings: Dict[str, _Ring] = {}
        self._schema_ids: Dict[Tuple[str, ...], int] = {}
        self._schemas: List[Tuple[str, ...]] = []
        self._widths: List[int] = []  # len(self._schemas[i])
        self._unrecorded = tuple(dict.fromkeys(unrecorded))
        self._compacted: Dict[str, int] = {}
        self._total = 0

    @property
    def window(self) -> Optional[int]:
        return self._window

    @property
    def unrecorded(self) -> Tuple[str, ...]:
        """The kinds this recorder is never given and refuses to read."""
        return self._unrecorded

    def record(self, time: float, kind: str, player: Optional[int] = None, **detail: Any) -> None:
        """Append one event."""
        ring = self._rings.get(kind)
        if ring is None:
            ring = self._rings[kind] = _open_ring()
        seqs, times, players, _, _, add_seq, add_time, add_player, add_schema, add_values = ring
        keys = tuple(detail)
        schema = self._schema_ids.get(keys)
        if schema is None:
            schema = self._intern(keys)
        try:
            add_time(time)
            add_player(_NO_PLAYER if player is None else player)
        except (TypeError, OverflowError):
            del times[len(players):]  # a time appended without its player
            raise
        # The lifetime count doubles as the record-order sequence number.
        add_seq(self._total)
        add_schema(schema)
        add_values(detail.values())
        self._total += 1
        if len(seqs) == self._compact_at:
            self._compact(kind, ring)

    def _intern(self, keys: Tuple[str, ...]) -> int:
        schema = len(self._schemas)
        if schema == _MAX_SCHEMAS:
            raise ValueError(f"a trace holds at most {_MAX_SCHEMAS} distinct detail key sets")
        self._schemas.append(keys)
        self._widths.append(len(keys))
        self._schema_ids[keys] = schema
        return schema

    def _compact(self, kind: str, ring: _Ring) -> None:
        """Delete ``kind``'s rows older than its newest ``window``."""
        cut = len(ring.seqs) - self._keep
        del ring.values[: sum(map(self._widths.__getitem__, ring.schemas[:cut]))]
        for column in ring[:4]:
            del column[:cut]
        self._compacted[kind] = self._compacted.get(kind, 0) + cut

    def _refuse_unrecorded(self, kinds: Iterable[str]) -> None:
        """A ValueError if a read names an unrecorded kind: its events
        never reached the trace, so an empty answer would be a false one."""
        for kind in kinds:
            if kind in self._unrecorded:
                raise ValueError(
                    f"this trace does not record {kind!r} events; a run that reads "
                    f"network traffic sets RetentionSpec.trace_traffic (the Scenario "
                    f"axis trace_traffic=True), and MetricsCollector counts it either way"
                )

    def _read(self, kind: str) -> Tuple[array, List[TraceEvent]]:
        """The sequence numbers and freshly built events of ``kind``'s
        retained rows, oldest first."""
        seqs, times, players, schemas, values = self._rings[kind][:5]
        start = max(0, len(seqs) - self._keep)
        skipped = sum(map(self._widths.__getitem__, schemas[:start]))
        # ``zip`` stops at the end of a row's key tuple without pulling
        # from ``flat``, so each row takes exactly its own values.
        flat, names = islice(values, skipped, None), self._schemas
        return seqs[start:], [
            _new_event(
                TraceEvent,
                (time, kind, None if who == _NO_PLAYER else who, dict(zip(names[schema], flat))),
            )
            for time, who, schema in zip(times[start:], players[start:], schemas[start:])
        ]

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
            self._refuse_unrecorded(kinds)
        reads = [self._read(name) for name in kinds if name in self._rings]
        if len(reads) == 1:
            events = reads[0][1]
        else:
            seqs, events = array("q"), []
            for kind_seqs, kind_events in reads:
                seqs += kind_seqs
                events += kind_events
            events = [events[i] for i in sorted(range(len(events)), key=seqs.__getitem__)]
        if player is not None:
            events = [event for event in events if event.player == player]
        return events

    def count(self, kind: str) -> int:
        """Lifetime number of events of ``kind`` (O(1), exact even when
        the retention window has dropped some of them)."""
        ring = self._rings.get(kind)
        if ring is None:
            self._refuse_unrecorded((kind,))
            return 0
        return len(ring.seqs) + self._compacted.get(kind, 0)

    def last(self, kind: str) -> Optional[TraceEvent]:
        """The most recent event of ``kind``, or None (O(1))."""
        ring = self._rings.get(kind)
        if ring is None or not ring.seqs:  # a kind whose first record was refused
            self._refuse_unrecorded((kind,))
            return None
        keys, values = self._schemas[ring.schemas[-1]], ring.values
        who = ring.players[-1]
        return _new_event(
            TraceEvent,
            (
                ring.times[-1], kind, None if who == _NO_PLAYER else who,
                dict(zip(keys, values[len(values) - len(keys):])),
            ),
        )

    def dropped(self, kind: Optional[str] = None) -> int:
        """Events the retention window evicted (0 when unbounded)."""
        if kind is None:
            return sum(map(self._evicted, self._rings))
        if kind in self._rings:
            return self._evicted(kind)
        self._refuse_unrecorded((kind,))
        return 0

    def _evicted(self, kind: str) -> int:
        """Rows of ``kind`` compaction deleted, plus those past the newest ``window``."""
        return self._compacted.get(kind, 0) + max(0, len(self._rings[kind].seqs) - self._keep)

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
