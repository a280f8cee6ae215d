"""Replica crash/recovery lifecycle (the BAR model's crash class).

The BAR model (Aiyer et al., SOSP '05) treats crash/recovery as a
first-class behavior alongside byzantine and rational deviation.  This
module adds it to the simulation: a :class:`CrashSchedule` — the
crash-domain analogue of :class:`~repro.net.partition.PartitionSchedule`
— takes replicas through the

    UP ── crash() ──▶ CRASHED ── recover() ──▶ RECOVERING ──▶ UP

state machine at scheduled virtual times.  A CRASHED replica loses its
timers and drops every inbound envelope (counted as dropped in the
metrics); on recovery it replays its persisted state — the finalized
chain prefix, its keys and (for accountable protocols) collected fraud
evidence — discards everything volatile (tentative blocks, in-flight
round state, buffered future messages) and re-enters its current round
through the protocol's ``on_recover`` hook.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.sim.engine import SimulationEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base imports us)
    from repro.protocols.base import BaseReplica


class ReplicaStatus(enum.Enum):
    """Where a replica is in its crash/recovery lifecycle."""

    UP = "up"
    CRASHED = "crashed"
    RECOVERING = "recovering"


@dataclass(frozen=True)
class CrashWindow:
    """One outage: ``replica`` is down during [crash_time, recover_time).

    ``recover_time`` of ``None`` means the replica never comes back
    (a permanent crash fault).
    """

    replica: int
    crash_time: float
    recover_time: Optional[float] = None

    def __post_init__(self) -> None:
        if type(self.replica) is not int:
            raise ValueError(f"crash replica must be an int, got {self.replica!r}")
        if math.isnan(self.crash_time) or (
            self.recover_time is not None and math.isnan(self.recover_time)
        ):
            raise ValueError("crash and recover times must not be NaN")
        if self.crash_time < 0:
            raise ValueError("crash_time must be non-negative")
        if self.recover_time is not None and self.recover_time <= self.crash_time:
            raise ValueError("recover_time must be after crash_time")

    def down_at(self, time: float) -> bool:
        if time < self.crash_time:
            return False
        return self.recover_time is None or time < self.recover_time


class CrashSchedule:
    """Time-scheduled crash/recovery windows over a deployment.

    Windows for the same replica may not overlap, and a replica that
    never recovers cannot crash again.  ``install`` schedules the
    ``crash()``/``recover()`` calls on the engine; everything stays a
    pure function of the schedule, so runs remain deterministic.
    """

    def __init__(self, windows: Iterable[CrashWindow] = ()) -> None:
        self._windows: List[CrashWindow] = []
        for window in windows:
            self.add(window.replica, window.crash_time, window.recover_time)

    @classmethod
    def from_spec(
        cls, spec: Iterable[Sequence[float]]
    ) -> "CrashSchedule":
        """Build from plain tuples: ``(replica, crash[, recover])``.

        This is the declarative form :class:`~repro.experiments.registry.Scenario`
        carries (plain values pickle across sweep workers); a 2-tuple
        is a permanent crash.
        """
        schedule = cls()
        for entry in spec:
            items = tuple(entry)
            if len(items) == 2:
                replica, crash_time = items
                recover_time: Optional[float] = None
            elif len(items) == 3:
                replica, crash_time, recover_time = items
                if recover_time is not None:
                    recover_time = float(recover_time)
            else:
                raise ValueError(
                    f"crash spec entry {entry!r} must be (replica, crash[, recover])"
                )
            schedule.add(replica, float(crash_time), recover_time)
        return schedule

    def add(
        self, replica: int, crash_time: float, recover_time: Optional[float] = None
    ) -> None:
        window = CrashWindow(replica=replica, crash_time=crash_time, recover_time=recover_time)
        new_end = recover_time if recover_time is not None else float("inf")
        for existing in self._windows:
            if existing.replica != replica:
                continue
            existing_end = (
                existing.recover_time if existing.recover_time is not None else float("inf")
            )
            if crash_time < existing_end and existing.crash_time < new_end:
                raise ValueError(f"crash windows for replica {replica} overlap")
        self._windows.append(window)
        self._windows.sort(key=lambda w: (w.crash_time, w.replica))

    @property
    def windows(self) -> Tuple[CrashWindow, ...]:
        return tuple(self._windows)

    def replicas(self) -> Tuple[int, ...]:
        return tuple(sorted({window.replica for window in self._windows}))

    def status_at(self, replica: int, time: float) -> ReplicaStatus:
        """The scheduled status of ``replica`` at ``time``."""
        for window in self._windows:
            if window.replica == replica and window.down_at(time):
                return ReplicaStatus.CRASHED
        return ReplicaStatus.UP

    def install(
        self, engine: SimulationEngine, replicas: Mapping[int, "BaseReplica"]
    ) -> None:
        """Schedule every crash and recovery on the engine."""
        for window in self._windows:
            replica = replicas.get(window.replica)
            if replica is None:
                raise ValueError(f"crash schedule names unknown replica {window.replica}")
            engine.schedule_at(window.crash_time, replica.crash)
            if window.recover_time is not None:
                engine.schedule_at(window.recover_time, replica.recover)
