"""Message, throughput and latency accounting.

The paper's Figure 3 compares protocols by message complexity (O(n^2)
vs O(n^3)) and message *size* (O(κ·n^3) vs O(κ·n^4)), where κ is the
security parameter.  The collector tallies, per message type, how many
messages crossed the network and how many bytes of payload they carried
under the κ-per-signature size model, so a sweep over n can recover the
asymptotic exponents empirically.

Continuous-workload runs (the pBFT/HotStuff evaluation framing:
blocks/sec and commit latency under sustained client load) additionally
record *when* each transaction became client-visible: the
:class:`CommitLog` collects first-finalisation times as replicas commit
blocks and announces each first commit to the run's
:class:`~repro.sim.streaming.ThroughputAccumulator`, which the workload
also tells of every submission; :func:`report_from_accumulator` — the
only builder — projects it into a :class:`ThroughputReport`:
blocks/sec, the per-transaction commit-latency distribution, and the
client-side backlog (submitted but not yet committed) over time.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.sim.streaming import ThroughputAccumulator
from repro.sim.trace import check_window


@dataclass
class MessageStats:
    """Totals for one message type."""

    count: int = 0
    bytes: int = 0

    def add(self, size_bytes: int) -> None:
        self.count += 1
        self.bytes += size_bytes


class MetricsCollector:
    """Tallies network traffic by message type and by round.

    Send counts measure *protocol-level* traffic (what Figure 3 is
    about).  Link-layer faults are accounted separately: drops (lost
    on the wire, or delivered to a crashed/halted recipient) and
    duplicated copies never perturb the send totals, so fault-free
    runs keep their historical numbers exactly.  This is the one count
    of a run's traffic: the trace stores it only when asked
    (``RetentionSpec.trace_traffic``) and never counts it otherwise.
    """

    def __init__(self) -> None:
        self._by_type: Dict[str, MessageStats] = defaultdict(MessageStats)
        self._by_round: Dict[int, MessageStats] = defaultdict(MessageStats)
        self._total = MessageStats()
        self._dropped_by_reason: Dict[str, int] = defaultdict(int)
        self._duplicates = MessageStats()

    def record_send(self, message_type: str, size_bytes: int, round_number: int = -1) -> None:
        """Account one message leaving a sender.  Runs once per message,
        so the three tallies are bumped in place, not through ``add``."""
        stats = self._by_type[message_type]
        stats.count += 1
        stats.bytes += size_bytes
        stats = self._by_round[round_number]
        stats.count += 1
        stats.bytes += size_bytes
        self._total.count += 1
        self._total.bytes += size_bytes

    def record_drop(self, reason: str) -> None:
        """Account one message that never reached a live state machine.

        ``reason`` is ``"loss"`` (dropped by the link pipeline),
        ``"crashed"`` or ``"halted"`` (delivered to a recipient that
        could not process it).
        """
        self._dropped_by_reason[reason] += 1

    def record_duplicate(self, size_bytes: int) -> None:
        """Account one extra link-layer copy of an already-sent message."""
        self._duplicates.add(size_bytes)

    @property
    def total_dropped(self) -> int:
        return sum(self._dropped_by_reason.values())

    @property
    def total_duplicates(self) -> int:
        return self._duplicates.count

    def dropped_by_reason(self) -> Dict[str, int]:
        """Return {reason: count} for every observed drop reason."""
        return dict(self._dropped_by_reason)

    @property
    def total_messages(self) -> int:
        return self._total.count

    @property
    def total_bytes(self) -> int:
        return self._total.bytes

    def by_type(self) -> Dict[str, Tuple[int, int]]:
        """Return {type: (count, bytes)} for every observed type."""
        return {name: (stats.count, stats.bytes) for name, stats in self._by_type.items()}

    def round_totals(self) -> Dict[int, Tuple[int, int]]:
        """Return {round: (count, bytes)}."""
        return {rnd: (stats.count, stats.bytes) for rnd, stats in self._by_round.items()}

    def per_round_average(self) -> Tuple[float, float]:
        """Mean (messages, bytes) per round, over rounds that saw traffic."""
        rounds = [rnd for rnd in self._by_round if rnd >= 0]
        if not rounds:
            return (0.0, 0.0)
        count = sum(self._by_round[rnd].count for rnd in rounds) / len(rounds)
        size = sum(self._by_round[rnd].bytes for rnd in rounds) / len(rounds)
        return (count, size)


# ----------------------------------------------------------------------
# Commit observation (continuous-workload support)
# ----------------------------------------------------------------------
def evict_oldest(history: Dict[str, Any], limit: int) -> int:
    """Cut an insertion-ordered dict to its newest ``limit`` keys and
    return how many were evicted — one pass over the excess, so a dict
    trimmed once per block pays one scan of its deleted prefix, not one
    per key."""
    excess = max(0, len(history) - limit)
    for key in list(islice(history, excess)):
        del history[key]
    return excess


class CommitLog:
    """First-finalisation times per transaction and per block digest.

    Every replica reports each block it finalises via
    :meth:`~repro.protocols.base.BaseReplica.note_block_finalized`; the
    log keeps only the *first* observation per transaction / digest
    from the observed player set (the deployment restricts it to the
    honest roster, so a deviator's lone fork block never counts as a
    client-visible commit).  Workloads may subscribe to first commits —
    the closed-loop client uses that to keep its in-flight window full.

    Recording is append-only and schedules no events, so legacy
    static-batch runs are byte-identical with the log in place.

    With ``window`` set (the soak/retention path) the log truncates its
    consumed prefix: once listeners have been notified of a first
    commit, only the newest ``window`` per-transaction (and per-block)
    records are retained for dedup.  The lifetime totals stay exact.
    The window trades memory for dedup depth — a replica finalising a
    block more than ``window`` first-commits after everyone else can
    re-announce transactions, so windows should comfortably exceed the
    straggler spread (retention-off runs keep the unbounded legacy
    maps and are unaffected).
    """

    def __init__(self, window: Optional[int] = None) -> None:
        self._window = check_window(window)
        self._observed: Optional[FrozenSet[int]] = None
        self._tx_first: Dict[str, float] = {}
        self._block_first: Dict[str, float] = {}
        self._listeners: List[Callable[[str, float], None]] = []
        self._tx_total = 0
        self._block_total = 0
        self._evicted = 0

    def restrict_to(self, player_ids: Iterable[int]) -> None:
        """Only count finalisations reported by these players."""
        self._observed = frozenset(player_ids)

    def subscribe(self, listener: Callable[[str, float], None]) -> None:
        """Call ``listener(tx_id, time)`` on each first transaction commit."""
        self._listeners.append(listener)

    def release(self) -> None:
        """Unsubscribe every listener at the end of a run (a closed-loop
        client's listener is bound to a workload that reaches the
        replicas).  The totals and commit times stay readable."""
        self._listeners.clear()

    def note(self, player_id: int, now: float, block: Any) -> None:
        """Record one replica finalising one block."""
        if self._observed is not None and player_id not in self._observed:
            return
        if block.digest not in self._block_first:
            self._block_first[block.digest] = now
            self._block_total += 1
        for tx in block.transactions:
            if tx.tx_id in self._tx_first:
                continue
            self._tx_first[tx.tx_id] = now
            self._tx_total += 1
            for listener in self._listeners:
                listener(tx.tx_id, now)
        if self._window is not None:
            self._truncate()

    def _truncate(self) -> None:
        """Drop the oldest consumed first-commit records beyond the
        retention window.  Listeners have already been notified of
        everything evicted — truncation only shrinks the dedup maps."""
        window = self._window
        assert window is not None
        self._evicted += evict_oldest(self._tx_first, window)
        evict_oldest(self._block_first, window)

    def first_commit(self, tx_id: str) -> Optional[float]:
        return self._tx_first.get(tx_id)

    def commit_times(self) -> Dict[str, float]:
        """{tx_id: first finalisation time} over observed players.

        Under a retention window this is only the retained suffix —
        check :attr:`truncated` before treating it as complete.
        """
        return dict(self._tx_first)

    @property
    def committed_transactions(self) -> int:
        """Lifetime first-commit count (exact even under retention)."""
        return self._tx_total

    @property
    def committed_blocks(self) -> int:
        """Lifetime first-finalisation count (exact even under retention)."""
        return self._block_total

    @property
    def truncated(self) -> bool:
        """True once the retention window has evicted any record."""
        return self._evicted > 0


@dataclass(frozen=True)
class ThroughputReport:
    """Per-run throughput metrics of one continuous-workload execution.

    ``horizon`` is the virtual-time span the rates are normalised over
    (the configured duration, or the quiesce time when the run drained
    early).  Latencies are per-transaction first-commit minus
    submission time, over the transactions that committed (exact
    percentiles below the sketch's ``exact_limit`` commits, P² estimates
    beyond; count, mean and max exact either way); backlog is the
    client-side count of submitted-but-uncommitted transactions at the
    end of every submission and first-commit instant.
    """

    horizon: float
    blocks: int
    submitted: int
    committed: int
    blocks_per_sec: float
    latency_mean: float
    latency_p50: float
    latency_p99: float
    latency_max: float
    peak_backlog: int
    final_backlog: int
    backlog_series: Tuple[Tuple[float, int], ...] = ()

    #: backlog points kept when a report is flattened into a RunRecord:
    #: enough to plot the shape, independent of run duration.
    RECORD_SERIES_POINTS = 64

    def summary(self) -> Dict[str, float]:
        """The flat scalar projection (everything but the series)."""
        return {
            "horizon": self.horizon,
            "blocks": self.blocks,
            "submitted": self.submitted,
            "committed": self.committed,
            "blocks_per_sec": self.blocks_per_sec,
            "latency_mean": self.latency_mean,
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "latency_max": self.latency_max,
            "peak_backlog": self.peak_backlog,
            "final_backlog": self.final_backlog,
        }

    def record_series(
        self, cap: int = RECORD_SERIES_POINTS
    ) -> Tuple[Tuple[float, int], ...]:
        """The backlog series capped at ``cap`` points for persistence.

        Strided downsampling that always keeps the last point and the
        crest (the highest retained backlog sample); ``peak_backlog``
        and ``final_backlog`` remain exact as scalars regardless.
        """
        if cap < 2:
            raise ValueError("cap must be at least 2")
        points = self.backlog_series
        if len(points) <= cap:
            return tuple(points)
        stride = -(-len(points) // cap)  # ceil division
        kept = list(points[::stride])
        if kept[-1] != points[-1]:
            kept.append(points[-1])
        crest = max(points, key=lambda point: point[1])
        if crest not in kept:
            bisect.insort(kept, crest)
        return tuple(kept)


def report_from_accumulator(
    accumulator: ThroughputAccumulator,
    blocks: int,
    horizon: float,
) -> ThroughputReport:
    """Project a run's :class:`~repro.sim.streaming.ThroughputAccumulator`
    into its :class:`ThroughputReport`.

    Args:
        accumulator: what the workload and the commit log streamed into.
        blocks: finalized blocks on the longest honest chain.
        horizon: the virtual-time span to normalise rates over.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    sketch = accumulator.latency
    return ThroughputReport(
        horizon=horizon,
        blocks=blocks,
        submitted=accumulator.submitted,
        committed=accumulator.committed,
        blocks_per_sec=blocks / horizon,
        latency_mean=sketch.mean,
        latency_p50=sketch.percentile(50) if sketch.count else 0.0,
        latency_p99=sketch.percentile(99) if sketch.count else 0.0,
        latency_max=sketch.max,
        peak_backlog=accumulator.series.peak,
        final_backlog=accumulator.backlog,
        backlog_series=accumulator.series.points(),
    )


def fit_exponent(sizes: List[int], values: List[float]) -> float:
    """Estimate b in value ≈ a * size^b by least squares on log-log points.

    Used by the complexity benchmarks to confirm, e.g., that pRFT's
    per-round message count grows as n^2-per-broadcaster × n phases
    (i.e. overall O(n^2) messages per phase, O(n^3) signature payload).
    """
    import math

    if len(sizes) != len(values) or len(sizes) < 2:
        raise ValueError("need at least two (size, value) points")
    logs = [(math.log(size), math.log(value)) for size, value in zip(sizes, values) if value > 0]
    if len(logs) < 2:
        raise ValueError("need at least two positive values")
    mean_x = sum(x for x, _ in logs) / len(logs)
    mean_y = sum(y for _, y in logs) / len(logs)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in logs)
    denominator = sum((x - mean_x) ** 2 for x, _ in logs)
    if denominator == 0:
        raise ValueError("all sizes identical")
    return numerator / denominator
