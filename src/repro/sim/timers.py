"""Named, cancellable timers on top of the simulation engine.

Replicas use timers for phase timeouts: pRFT triggers view change when
the local waiting time Δ elapses without a proposal or without n - t0
messages for the current phase (Section 5.2).  The service keys timers
by (owner, name) so re-arming a timer for a new round silently replaces
the stale one.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Tuple

from repro.sim.engine import Event, SimulationEngine


class TimerService:
    """Manages per-owner named timers over a shared engine."""

    def __init__(self, engine: SimulationEngine) -> None:
        self._engine = engine
        self._timers: Dict[Tuple[Hashable, str], Event] = {}

    def set_timer(
        self,
        owner: Hashable,
        name: str,
        delay: float,
        callback: Callable[[], None],
    ) -> Event:
        """Arm (or re-arm) the timer ``name`` for ``owner``.

        An existing timer with the same key is cancelled first, so each
        (owner, name) pair has at most one live timer.  The returned
        :class:`Event`'s ``cancel()`` revokes it.  The key and callback
        ride in the event's arguments, not in a closure over the event,
        so a fired, cancelled or replaced timer is not a reference
        cycle and is freed as soon as it is dropped.
        """
        key = (owner, name)
        existing = self._timers.get(key)
        if existing is not None:
            existing.cancel()
        event = self._timers[key] = self._engine.schedule(delay, self._fire, key, callback)
        return event

    def _fire(self, key: Tuple[Hashable, str], callback: Callable[[], None]) -> None:
        """Only the armed event clears its key: a cancelled or replaced
        event never fires, so the one firing is the one armed, if any."""
        self._timers.pop(key, None)
        callback()

    def cancel(self, owner: Hashable, name: str) -> bool:
        """Cancel the timer if it is armed.  Returns True if one was live."""
        event = self._timers.pop((owner, name), None)
        if event is None or event.cancelled:
            return False
        event.cancel()
        return True

    def cancel_all(self, owner: Hashable) -> int:
        """Cancel every live timer belonging to ``owner``."""
        keys = [key for key in self._timers if key[0] == owner]
        cancelled = 0
        for key in keys:
            event = self._timers.pop(key)
            if not event.cancelled:
                event.cancel()
                cancelled += 1
        return cancelled

    def release(self) -> None:
        """Forget every armed timer at the end of a run.  An armed
        event calls this service's ``_fire`` with a callback bound to a
        replica, and both lead back here; :meth:`is_armed` reads False
        afterwards."""
        self._timers.clear()

    def is_armed(self, owner: Hashable, name: str) -> bool:
        """True if (owner, name) has a live timer."""
        event = self._timers.get((owner, name))
        return event is not None and not event.cancelled
