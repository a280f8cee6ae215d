"""The client-workload protocol: traffic as first-class engine events.

A :class:`Workload` models the clients of the deployment.  It is
installed into a run *before* the replicas start and schedules client
submissions as ordinary engine events, so traffic interleaves with
protocol messages deterministically: one (scenario, seed) pair always
replays the identical arrival sequence, whatever the worker count.

Submissions are broadcast to every replica's mempool (clients gossip to
the whole committee, the model under which Definition 1's censorship
clause — "input to all honest players" — is stated).  The workload
tells the run's :class:`~repro.sim.streaming.ThroughputAccumulator` of
each submission and the deployment's
:class:`~repro.sim.metrics.CommitLog` tells it of each transaction's
first honest finalisation, which together yield the run's
:class:`~repro.sim.metrics.ThroughputReport`.

The round loop consults :meth:`Workload.finished` for the *quiesce*
half of the continuous stop rule: a replica on a duration-driven run
halts early once the arrival process is exhausted and its own backlog
has drained (see :meth:`repro.protocols.base.BaseReplica.round_limit_reached`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Sequence, Tuple

from repro.ledger.transaction import Transaction


def make_transactions(count: int, prefix: str = "tx") -> List[Transaction]:
    """A simple deterministic client batch (the legacy default)."""
    return [Transaction(tx_id=f"{prefix}-{index}", payload=f"payload-{index}") for index in range(count)]


class Workload(ABC):
    """One client arrival process, bound to a deployment at install time.

    Subclasses implement :meth:`_start` (schedule or perform the first
    submissions) and :meth:`finished`; the base class owns transaction
    naming, the submission record and the broadcast to every replica.
    """

    #: short tag, also the generated transaction id prefix
    kind: str = "abstract"

    def __init__(self) -> None:
        self._submissions: List[Tuple[str, float]] = []
        self._engine: Any = None
        self._replicas: Tuple[Any, ...] = ()
        self._counter = 0
        self._installed = False
        self._accumulator: Any = None
        self._submission_window: int | None = None
        self._dropped_submissions = 0

    # ------------------------------------------------------------------
    # Throughput observer and the RetentionSpec submission window
    # ------------------------------------------------------------------
    def attach_accumulator(self, accumulator: Any) -> None:
        """Stream every submission into ``accumulator.note_submit``.
        The deployment wires this, before :meth:`install`, for every run
        that reports throughput, so the report never needs the full
        submission record."""
        self._accumulator = accumulator

    def bound_submissions(self, window: int) -> None:
        """Keep only the newest ``window`` recorded submissions.

        Older pairs have already been streamed to the accumulator;
        :meth:`submissions`/:meth:`submitted_ids` then return the
        retained suffix and :attr:`submissions_truncated` turns True
        once anything is dropped, so analysis code can refuse instead
        of treating the suffix as the complete history.
        """
        if window < 1:
            raise ValueError("window must be positive")
        self._submission_window = window
        self._trim_submissions()

    def _trim_submissions(self) -> None:
        window = self._submission_window
        if window is None or len(self._submissions) <= window:
            return
        excess = len(self._submissions) - window
        del self._submissions[:excess]
        self._dropped_submissions += excess

    @property
    def submissions_truncated(self) -> bool:
        return self._dropped_submissions > 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self, ctx: Any, replicas: Dict[int, Any]) -> None:
        """Bind to a deployment and begin the arrival process.

        Called once by the :class:`~repro.protocols.runner.Deployment`,
        after replicas are constructed and before any of them starts.
        """
        if self._installed:
            raise RuntimeError("a workload instance can only be installed once")
        self._installed = True
        self._engine = ctx.engine
        self._replicas = tuple(replicas[player_id] for player_id in sorted(replicas))
        self._start(ctx)

    def release(self) -> None:
        """Drop the engine and replica handles at the end of a run; the
        submission record and :attr:`submitted_count` stay readable."""
        self._engine = None
        self._replicas = ()

    @abstractmethod
    def _start(self, ctx: Any) -> None:
        """Perform install-time submissions / schedule arrival events."""

    @abstractmethod
    def finished(self, now: float) -> bool:
        """True once no further arrival can ever occur (quiesce hook)."""

    # ------------------------------------------------------------------
    # Submission plumbing
    # ------------------------------------------------------------------
    def _next_transaction(self) -> Transaction:
        index = self._counter
        self._counter += 1
        return Transaction(tx_id=f"{self.kind}-{index}", payload=f"payload-{index}")

    def submit(self, transactions: Sequence[Transaction]) -> None:
        """Record and broadcast a batch of client transactions."""
        now = self._engine.now
        batch = tuple(transactions)
        for tx in batch:
            self._submissions.append((tx.tx_id, now))
            if self._accumulator is not None:
                self._accumulator.note_submit(tx.tx_id, now)
        self._trim_submissions()
        for replica in self._replicas:
            replica.submit_transactions(batch)

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def submissions(self) -> List[Tuple[str, float]]:
        """Ordered ``(tx_id, submit_time)`` pairs so far (the retained
        suffix when a submission window is bounding memory)."""
        return list(self._submissions)

    def submitted_ids(self) -> List[str]:
        return [tx_id for tx_id, _ in self._submissions]

    @property
    def submitted_count(self) -> int:
        """Lifetime submission count (exact even under a window)."""
        return len(self._submissions) + self._dropped_submissions
