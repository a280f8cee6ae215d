"""The simulation event loop.

The engine owns a virtual clock and a priority queue of events.  Time
advances only when events fire; two events scheduled for the same time
fire in scheduling order (FIFO), which makes runs deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled ``callback(*args)``.

    The engine's heap holds ``(time, seq, event)`` entries, so ordering
    is two C-level comparisons (``seq`` is unique: the third element is
    never reached) and an ``Event`` is never compared.  ``cancelled``
    events stay in the heap but are skipped when popped (lazy
    deletion); the owning engine keeps a live counter so cancellation
    is O(1) and ``pending`` never scans.
    """

    __slots__ = (
        "time", "seq", "callback", "args", "cancelled", "_owner", "_in_queue", "__weakref__"
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        owner: Optional["SimulationEngine"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._owner = owner
        self._in_queue = owner is not None

    def cancel(self) -> None:
        """Mark this event so it is skipped when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._owner is not None:
            self._owner._on_cancelled(self)


class SimulationEngine:
    """A deterministic discrete-event loop with a virtual clock."""

    #: below this queue length, compaction is never worth the rebuild
    _COMPACT_MIN_QUEUE = 64

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._last_event_time = 0.0
        self._events_processed = 0
        self._live = 0

    @property
    def now(self) -> float:
        """The current virtual time."""
        return self._now

    @property
    def last_event_time(self) -> float:
        """When the last event actually fired.

        Unlike :attr:`now` — which :meth:`run` advances to its
        ``until`` bound even when the queue drained long before — this
        is the instant the simulation last *did* anything, i.e. the
        quiesce time of a run that finished early.
        """
        return self._last_event_time

    @property
    def events_processed(self) -> int:
        """How many events have fired so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """How many live (non-cancelled) events are queued (O(1))."""
        return self._live

    def _on_cancelled(self, event: Event) -> None:
        """Bookkeeping hook called by :meth:`Event.cancel`.

        Keeps the live counter exact and compacts the heap once
        cancelled entries dominate, so long timeout-heavy runs don't
        drag a heap full of dead timers.
        """
        if not event._in_queue:
            return
        self._live -= 1
        if (
            len(self._queue) > self._COMPACT_MIN_QUEUE
            and self._live * 2 < len(self._queue)
        ):
            self._queue = [entry for entry in self._queue if not entry[2].cancelled]
            heapq.heapify(self._queue)

    def release(self) -> None:
        """Drop every queued event; the clock and the counters stay.

        A queued event's callback is bound to a replica or the network,
        which hold this engine back, so a finished run's queue closes
        reference cycles only the collector could free.  After this,
        :attr:`pending` is 0 and ``cancel()`` on a handle a replica
        still holds changes nothing here.
        """
        for entry in self._queue:
            entry[2]._in_queue = False
        self._queue = []
        self._live = 0

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` time units from now.

        Passing the arguments here, rather than closing over them, keeps
        a scheduled call to one :class:`Event` and one tuple.  Returns
        the :class:`Event`, whose :meth:`Event.cancel` method can be
        used to revoke it (e.g. a timeout that was beaten by a quorum).
        ``delay`` may be ``inf`` (never fires under ``run(until=...)``)
        but not negative or NaN, which would un-order the heap.
        """
        if not delay >= 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        time, seq = self._now + delay, next(self._sequence)
        event = Event(time, seq, callback, args, self)
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual ``time`` (>= now)."""
        return self.schedule(time - self._now, callback, *args)

    def step(self) -> bool:
        """Fire the next live event.  Returns False if the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            event._in_queue = False
            if event.cancelled:
                continue
            self._live -= 1
            self._now = event.time
            self._last_event_time = event.time
            self._events_processed += 1
            event.callback(*event.args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the queue drains, ``until`` time, or ``max_events``.

        ``until`` is exclusive: an event at exactly ``until`` does not
        fire, and the clock is advanced to ``until`` when the bound is
        hit, so a subsequent ``run`` continues from there.
        """
        fired = 0
        while self._queue:
            head = self._queue[0][2]
            if head.cancelled:  # before the budget check: dead entries are not work left
                heapq.heappop(self._queue)
                head._in_queue = False
                continue
            if max_events is not None and fired >= max_events:
                return
            if until is not None and head.time >= until:
                self._now = max(self._now, float(until))
                return
            if not self.step():
                return
            fired += 1
        if until is not None:
            self._now = max(self._now, float(until))
