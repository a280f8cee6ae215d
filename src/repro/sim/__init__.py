"""Discrete-event simulation engine.

All protocol runs execute on a single deterministic event loop:

- :class:`~repro.sim.engine.SimulationEngine` — a priority queue of
  timestamped events with a virtual clock.
- :class:`~repro.sim.timers.TimerService` — named, cancellable timers
  used for phase timeouts and view changes.
- :class:`~repro.sim.trace.TraceRecorder` — a structured log of sends,
  deliveries, decisions, exposures and view changes; the game-theoretic
  analysis and the robustness checkers consume traces rather than
  peeking into replica internals.
- :class:`~repro.sim.metrics.MetricsCollector` — message counts and
  byte sizes per protocol phase, backing the Figure-3 complexity table.

Determinism: events fire in (time, sequence) order, all randomness is
drawn from seeded ``random.Random`` instances owned by delay models, so
every run is exactly reproducible from its configuration.
"""

from repro.sim.engine import Event, SimulationEngine
from repro.sim.metrics import MetricsCollector
from repro.sim.timers import TimerService
from repro.sim.trace import TraceEvent, TraceRecorder

__all__ = [
    "Event",
    "MetricsCollector",
    "SimulationEngine",
    "TimerService",
    "TraceEvent",
    "TraceRecorder",
]
