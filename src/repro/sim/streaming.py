"""O(1)-memory streaming estimators: the one throughput pipeline.

Every run that reports throughput observes its submissions and first
commits as they happen, so a ≥10⁶-transaction soak holds the same
bounded state a ten-transaction smoke does — never the full
per-transaction latency list or an unbounded backlog series:

* :class:`P2Quantile` — the classic P² (piecewise-parabolic) single
  quantile estimator of Jain & Chlamtac (CACM '85): five markers,
  O(1) memory, one pass.
* :class:`LatencySketch` — exact count/mean/min/max plus p50/p99.
  Small samples (up to ``exact_limit``) are kept exactly, so short
  runs report exact percentiles; past the limit the sample spills into
  seeded P² estimators.
* :class:`BacklogSeries` — the backlog-over-time curve at a bounded
  resolution (windowed downsampling; ``peak`` stays exact because it
  is tracked as a scalar, never recovered from the series).
* :class:`ThroughputAccumulator` — the observer the deployment wires
  between the workload and the commit log: it keeps only the in-flight
  set plus the sketches above.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "P2Quantile",
    "LatencySketch",
    "BacklogSeries",
    "ThroughputAccumulator",
    "percentile_of_sorted",
]


def percentile_of_sorted(ordered: Sequence[float], q: float) -> float:
    """q-th percentile (0..100) of an already-sorted sequence by linear
    interpolation — the one such formula in the tree."""
    if not ordered:
        raise ValueError("percentile of no values")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class P2Quantile:
    """P² streaming estimator for a single quantile ``q`` in (0, 1).

    Maintains five markers (min, q/2, q, (1+q)/2, max) whose heights
    are nudged toward their ideal positions with a piecewise-parabolic
    update on every observation.  Exact until five observations have
    arrived.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_rates", "_initial")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = q
        self._initial: List[float] = []
        self._heights: List[float] = []
        self._positions: List[int] = []
        self._desired: List[float] = []
        self._rates = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    @property
    def initialized(self) -> bool:
        return bool(self._heights)

    def _start(self, first_five_sorted: Sequence[float]) -> None:
        self._heights = list(first_five_sorted)
        self._positions = [1, 2, 3, 4, 5]
        self._desired = [1.0, 1.0 + 2.0 * self.q, 1.0 + 4.0 * self.q,
                         3.0 + 2.0 * self.q, 5.0]

    def seed(self, ordered: Sequence[float]) -> None:
        """Initialise the markers from an exact sorted sample (≥ 5
        values), placing each marker at its ideal rank.  Used when a
        sketch graduates from its exact-buffer phase."""
        count = len(ordered)
        if count < 5:
            raise ValueError("need at least five values to seed")
        if self.initialized or self._initial:
            raise ValueError("estimator already has observations")
        heights = [percentile_of_sorted(ordered, rate * 100.0) for rate in self._rates]
        self._heights = heights
        self._positions = [
            min(count, max(index + 1, round(1 + rate * (count - 1))))
            for index, rate in enumerate(self._rates)
        ]
        # Positions must stay strictly increasing for the parabolic
        # update to be well defined.
        for index in range(1, 5):
            if self._positions[index] <= self._positions[index - 1]:
                self._positions[index] = self._positions[index - 1] + 1
        self._desired = [1.0 + rate * (count - 1) for rate in self._rates]

    def add(self, value: float) -> None:
        if not self.initialized:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._start(sorted(self._initial))
                self._initial = []
            return
        heights, positions = self._heights, self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1
        for index in range(5):
            self._desired[index] += self._rates[index]
        for index in range(1, 4):
            drift = self._desired[index] - positions[index]
            above = positions[index + 1] - positions[index]
            below = positions[index - 1] - positions[index]
            if (drift >= 1.0 and above > 1) or (drift <= -1.0 and below < -1):
                step = 1 if drift >= 0.0 else -1
                candidate = self._parabolic(index, step)
                if not heights[index - 1] < candidate < heights[index + 1]:
                    candidate = self._linear(index, step)
                heights[index] = candidate
                positions[index] += step

    def _parabolic(self, index: int, step: int) -> float:
        heights, positions = self._heights, self._positions
        numerator_left = positions[index] - positions[index - 1] + step
        numerator_right = positions[index + 1] - positions[index] - step
        slope_right = (heights[index + 1] - heights[index]) / (
            positions[index + 1] - positions[index]
        )
        slope_left = (heights[index] - heights[index - 1]) / (
            positions[index] - positions[index - 1]
        )
        return heights[index] + (step / (positions[index + 1] - positions[index - 1])) * (
            numerator_left * slope_right + numerator_right * slope_left
        )

    def _linear(self, index: int, step: int) -> float:
        heights, positions = self._heights, self._positions
        return heights[index] + step * (heights[index + step] - heights[index]) / (
            positions[index + step] - positions[index]
        )

    def value(self) -> float:
        """The current quantile estimate (exact below five samples)."""
        if not self.initialized:
            if not self._initial:
                raise ValueError("quantile of no values")
            return percentile_of_sorted(sorted(self._initial), self.q * 100.0)
        return self._heights[2]


class LatencySketch:
    """Streaming latency distribution: exact count/mean/min/max, plus
    p50/p99 — exact up to ``exact_limit`` samples, P² estimates beyond.

    The exact phase keeps a sorted buffer and answers percentiles by
    :func:`percentile_of_sorted`, so every run that commits fewer than
    ``exact_limit`` transactions reports exact numbers whatever order
    its commits arrived in.  On the ``exact_limit``-th sample the buffer
    seeds one P² estimator per tracked quantile and is released: from
    then on memory stays constant no matter how long the run is.
    """

    DEFAULT_EXACT_LIMIT = 1024

    __slots__ = ("exact_limit", "_exact", "_estimators", "_count", "_total",
                 "_min", "_max")

    def __init__(self, exact_limit: int = DEFAULT_EXACT_LIMIT,
                 quantiles: Sequence[float] = (0.50, 0.99)) -> None:
        if exact_limit < 5:
            raise ValueError("exact_limit must be at least 5")
        self.exact_limit = exact_limit
        self._exact: Optional[List[float]] = []
        self._estimators: Dict[float, P2Quantile] = {q: P2Quantile(q) for q in quantiles}
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def add(self, value: float) -> None:
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._exact is not None:
            insort(self._exact, value)
            if len(self._exact) >= self.exact_limit:
                for estimator in self._estimators.values():
                    estimator.seed(self._exact)
                self._exact = None
            return
        for estimator in self._estimators.values():
            estimator.add(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    @property
    def exact(self) -> bool:
        """True while percentiles are still computed from every sample."""
        return self._exact is not None

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100).  In the sketch phase only
        the quantiles configured at construction are available."""
        if self._count == 0:
            return 0.0
        if self._exact is not None:
            return percentile_of_sorted(self._exact, q)
        estimator = self._estimators.get(q / 100.0)
        if estimator is None:
            raise ValueError(f"quantile {q} not tracked past the exact phase")
        # Clamp: P² heights can wander slightly outside the observed
        # range on adversarial orderings; the true quantile cannot.
        return min(self._max, max(self._min, estimator.value()))


class BacklogSeries:
    """The submitted-but-uncommitted curve at a bounded resolution.

    Points are ``(time, backlog-after-the-instant)`` with same-time
    updates merged.  When ``resolution`` is set and the series exceeds
    twice that many points it is downsampled: time is split into
    ``resolution`` equal windows and the last point of each window kept
    (plus the highest-valued retained point, so the plotted curve keeps
    its visible crest).

    ``peak`` is taken over *instant-final* values — each instant's
    value is sealed into a scalar when time advances past it, and the
    still-open last point counts as it stands — so it is unaffected by
    downsampling and by whether a same-instant commit or submission is
    observed first (a closed-loop client tops up its window *in
    reaction to* a commit: the transient in between is not backlog).
    """

    __slots__ = ("resolution", "_points", "_sealed_peak", "final", "truncated")

    def __init__(self, resolution: Optional[int] = None) -> None:
        if resolution is not None and resolution < 2:
            raise ValueError("resolution must be at least 2")
        self.resolution = resolution
        self._points: List[Tuple[float, int]] = []
        self._sealed_peak = 0
        self.final = 0
        self.truncated = False

    @property
    def peak(self) -> int:
        return max(self._sealed_peak, self.final)

    def append(self, when: float, backlog: int) -> None:
        points = self._points
        if points and points[-1][0] == when:
            points[-1] = (when, backlog)
        else:
            if self.final > self._sealed_peak:
                self._sealed_peak = self.final
            points.append((when, backlog))
        self.final = backlog
        if self.resolution is not None and len(points) > 2 * self.resolution:
            self._downsample()

    def _downsample(self) -> None:
        points = self._points
        assert self.resolution is not None
        span = points[-1][0] - points[0][0]
        if span <= 0:
            del points[1:-1]
            self.truncated = True
            return
        width = span / self.resolution
        start = points[0][0]
        kept: List[Tuple[float, int]] = [points[0]]
        crest = max(points, key=lambda point: point[1])
        window = 0
        for point in points[1:]:
            slot = min(self.resolution - 1, int((point[0] - start) / width))
            if kept[-1] is not points[0] and slot == window:
                kept[-1] = point
            else:
                kept.append(point)
                window = slot
        if crest not in kept:
            insort(kept, crest)
        self._points = kept
        self.truncated = True

    def points(self) -> Tuple[Tuple[float, int], ...]:
        return tuple(self._points)

    def __len__(self) -> int:
        return len(self._points)


class ThroughputAccumulator:
    """Streaming submission/commit observer behind every throughput report.

    Wired between the workload (every :meth:`note_submit`) and the
    commit log (every first-commit notification) before the workload
    installs, so install-time submissions count.  Memory is O(current
    backlog) for the in-flight map plus O(1) for the sketches — never
    O(total transactions).  Re-notification of an already-consumed or
    unknown transaction is ignored, which makes the accumulator safe
    against the commit log re-announcing a transaction after its own
    retention window evicted the first-commit record.
    """

    def __init__(self, resolution: Optional[int] = 512,
                 exact_limit: int = LatencySketch.DEFAULT_EXACT_LIMIT) -> None:
        self._pending: Dict[str, float] = {}
        self.latency = LatencySketch(exact_limit=exact_limit)
        self.series = BacklogSeries(resolution=resolution)
        self.submitted = 0
        self.committed = 0

    def note_submit(self, tx_id: str, now: float) -> None:
        if tx_id in self._pending:
            return
        self._pending[tx_id] = now
        self.submitted += 1
        self.series.append(now, self.backlog)

    def note_commit(self, tx_id: str, now: float) -> None:
        submitted_at = self._pending.pop(tx_id, None)
        if submitted_at is None:
            return
        self.committed += 1
        self.latency.add(now - submitted_at)
        self.series.append(now, self.backlog)

    @property
    def backlog(self) -> int:
        return len(self._pending)
