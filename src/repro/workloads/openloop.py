"""Open-loop arrival processes: Poisson traffic and burst schedules.

Open-loop clients submit on their own clock, independent of how fast
the committee commits — the framing under which pBFT's and HotStuff's
throughput evaluations are stated, and the regime where mempool backlog
grows without bound once the arrival rate crosses the deployment's
service rate (the saturation knee the ``throughput`` claim row pins).

Both processes are driven entirely by engine events seeded from the run
seed: :class:`PoissonOpenLoop` draws exponential inter-arrival gaps
from a dedicated ``random.Random``, lazily scheduling each arrival from
the previous one; :class:`Burst` schedules fixed-size batches at fixed
virtual times.  Either way the same (scenario, seed) pair replays the
identical arrival sequence.
"""

from __future__ import annotations

import random
from typing import Any, List, Sequence, Tuple

from repro.ledger.transaction import Transaction
from repro.workloads.base import Workload


class PoissonOpenLoop(Workload):
    """Memoryless client traffic at ``rate`` transactions per time unit.

    Arrivals stop at ``duration``; the run then drains what is already
    in flight and quiesces.

    With ``coalesce_window > 0`` arrivals are held client-side and
    flushed as one batched submission ``coalesce_window`` after the
    first held arrival — modelling client batching at the cost of up to
    one window of extra submit latency.  At ``0.0`` (the default) every
    arrival submits immediately, so the legacy event sequence is
    replayed byte-identically.
    """

    kind = "poisson"

    def __init__(
        self,
        rate: float,
        duration: float,
        seed: str = "default",
        coalesce_window: float = 0.0,
    ) -> None:
        super().__init__()
        if rate <= 0:
            raise ValueError("rate must be positive")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if coalesce_window < 0:
            raise ValueError("coalesce_window must be non-negative")
        self.rate = rate
        self.duration = duration
        self.coalesce_window = coalesce_window
        self._rng = random.Random(f"poisson-workload/{seed}")
        self._exhausted = False
        self._held: List[Transaction] = []
        self._flush_scheduled = False

    def _start(self, ctx: Any) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = self._rng.expovariate(self.rate)
        if self._engine.now + gap >= self.duration:
            self._exhausted = True
            return
        self._engine.schedule(gap, self._arrive)

    def _arrive(self) -> None:
        if self.coalesce_window > 0:
            self._held.append(self._next_transaction())
            if not self._flush_scheduled:
                self._flush_scheduled = True
                self._engine.schedule(self.coalesce_window, self._flush)
        else:
            self.submit([self._next_transaction()])
        self._schedule_next()

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self._held:
            return
        batch, self._held = self._held, []
        self.submit(batch)

    def finished(self, now: float) -> bool:
        return self._exhausted and not self._held


class Burst(Workload):
    """Batches of transactions at fixed virtual times.

    ``schedule`` is a sequence of ``(time, count)`` entries; bursts at
    or beyond ``duration`` are dropped (arrivals stop at the duration,
    like every continuous workload).
    """

    kind = "burst"

    def __init__(self, schedule: Sequence[Tuple[float, int]], duration: float) -> None:
        super().__init__()
        if duration <= 0:
            raise ValueError("duration must be positive")
        entries = []
        for when, count in schedule:
            when, count = float(when), int(count)
            if when < 0:
                raise ValueError("burst times must be non-negative")
            if count < 1:
                raise ValueError("burst counts must be at least 1")
            if when < duration:
                entries.append((when, count))
        if not entries:
            raise ValueError("burst schedule has no bursts before the duration")
        self.schedule = tuple(sorted(entries))
        self.duration = duration
        self._pending_bursts = len(self.schedule)

    def _start(self, ctx: Any) -> None:
        for when, count in self.schedule:
            self._engine.schedule_at(when, lambda c=count: self._burst(c))

    def _burst(self, count: int) -> None:
        self.submit([self._next_transaction() for _ in range(count)])
        self._pending_bursts -= 1

    def finished(self, now: float) -> bool:
        return self._pending_bursts == 0
