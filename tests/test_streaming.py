"""Tests for the O(1)-memory streaming metrics path (repro.sim.streaming).

Covers the P² quantile estimator against exact percentiles on
adversarial input orderings, the LatencySketch's exact-phase
byte-compatibility with the historical sorted-list path, the bounded
BacklogSeries (exact peak/final under downsampling), the
ThroughputAccumulator (tie-order independence, the resolution cap), the
RunRecord series cap, and a differential gate over a tier-1 catalog
run: the reported numbers match an exact recomputation from the run's
own submission/commit history.
"""

import bisect
import random

import pytest

from repro.experiments import get_scenario
from repro.sim.metrics import ThroughputReport, report_from_accumulator
from repro.sim.streaming import (
    BacklogSeries,
    LatencySketch,
    P2Quantile,
    ThroughputAccumulator,
    percentile_of_sorted,
)
from tests.conftest import replay_throughput


def rank_of(ordered, value):
    """The percentile rank a value lands at in an exact sorted sample."""
    return bisect.bisect_left(ordered, value) / len(ordered) * 100.0


def adversarial_samples():
    """Input orderings chosen to stress P²'s marker dynamics: already
    sorted (markers chase a moving maximum), reverse sorted (every
    observation lands in the first cell), bimodal (a wide empty gap the
    parabolic interpolation could wander into), constant (zero-width
    distribution)."""
    rng = random.Random(0)
    uniform = [rng.uniform(0.0, 100.0) for _ in range(20_000)]
    bimodal = [
        rng.gauss(10.0, 1.0) if rng.random() < 0.4 else rng.gauss(100.0, 5.0)
        for _ in range(20_000)
    ]
    return {
        "sorted": sorted(uniform),
        "reversed": sorted(uniform, reverse=True),
        "bimodal": bimodal,
        "constant": [7.0] * 20_000,
    }


class TestP2Quantile:
    def test_rejects_degenerate_quantiles(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                P2Quantile(q)

    def test_exact_below_five_samples(self):
        estimator = P2Quantile(0.5)
        values = [9.0, 1.0, 5.0]
        for value in values:
            estimator.add(value)
        assert estimator.value() == percentile_of_sorted(sorted(values), 50.0)
        assert not estimator.initialized

    def test_no_values_raises(self):
        with pytest.raises(ValueError):
            P2Quantile(0.5).value()

    def test_seed_requires_five_and_fresh_state(self):
        estimator = P2Quantile(0.5)
        with pytest.raises(ValueError):
            estimator.seed([1.0, 2.0, 3.0, 4.0])
        estimator.seed([1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(ValueError):
            estimator.seed([1.0, 2.0, 3.0, 4.0, 5.0])

    @pytest.mark.parametrize("name", ["sorted", "reversed", "bimodal", "constant"])
    @pytest.mark.parametrize("q", [50.0, 99.0])
    def test_accuracy_on_adversarial_orderings(self, name, q):
        """The estimate must land within ±2.5 percentile ranks of the
        target in the *exact* distribution (measured drift on these
        streams is under 0.7 ranks; the band leaves headroom without
        ever letting p50 pass for p99)."""
        values = adversarial_samples()[name]
        sketch = LatencySketch(exact_limit=64)
        for value in values:
            sketch.add(value)
        assert not sketch.exact
        estimate = sketch.percentile(q)
        ordered = sorted(values)
        if name == "constant":
            assert estimate == 7.0
            return
        assert abs(rank_of(ordered, estimate) - q) <= 2.5


class TestLatencySketch:
    def test_exact_phase_matches_sorted_list_path(self):
        rng = random.Random(1)
        values = [rng.uniform(0.0, 50.0) for _ in range(200)]
        sketch = LatencySketch()  # default limit 1024 > 200
        for value in values:
            sketch.add(value)
        ordered = sorted(values)
        assert sketch.exact
        for q in (50.0, 99.0, 12.5):  # any quantile while exact
            assert sketch.percentile(q) == percentile_of_sorted(ordered, q)

    def test_scalar_moments_stay_exact_past_the_limit(self):
        rng = random.Random(2)
        values = [rng.uniform(0.0, 9.0) for _ in range(5_000)]
        sketch = LatencySketch(exact_limit=32)
        for value in values:
            sketch.add(value)
        assert sketch.count == len(values)
        assert sketch.mean == pytest.approx(sum(values) / len(values))
        assert sketch.min == min(values)
        assert sketch.max == max(values)

    def test_untracked_quantile_refused_past_exact_phase(self):
        sketch = LatencySketch(exact_limit=5)
        for value in range(10):
            sketch.add(float(value))
        with pytest.raises(ValueError):
            sketch.percentile(12.5)

    def test_estimates_clamped_to_observed_range(self):
        sketch = LatencySketch(exact_limit=5)
        for value in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]:
            sketch.add(value)
        for q in (50.0, 99.0):
            assert 1.0 <= sketch.percentile(q) <= 9.0

    def test_empty_sketch_reports_zeroes(self):
        sketch = LatencySketch()
        assert sketch.count == 0
        assert sketch.mean == 0.0
        assert sketch.min == 0.0
        assert sketch.max == 0.0
        assert sketch.percentile(50.0) == 0.0


class TestBacklogSeries:
    def test_same_time_updates_merge(self):
        series = BacklogSeries()
        series.append(1.0, 1)
        series.append(1.0, 2)
        series.append(2.0, 1)
        assert series.points() == ((1.0, 2), (2.0, 1))

    def test_peak_counts_instant_final_values_only(self):
        # 2 → (commit) 1 → (submit) 2 at one instant, in either order:
        # the transient 3 of submit-then-commit is not a backlog of 3.
        for transient in (1, 3):
            series = BacklogSeries()
            series.append(0.0, 2)
            series.append(5.0, transient)
            series.append(5.0, 2)
            assert series.peak == 2
            assert series.points() == ((0.0, 2), (5.0, 2))
        series.append(6.0, 4)  # the still-open last point counts
        assert series.peak == 4

    def test_peak_and_final_survive_downsampling(self):
        series = BacklogSeries(resolution=8)
        rng = random.Random(3)
        backlog, peak = 0, 0
        for step in range(2_000):
            backlog = max(0, backlog + rng.choice([-1, 1, 1]))
            peak = max(peak, backlog)
            series.append(float(step), backlog)
        assert series.peak == peak
        assert series.final == backlog
        assert series.truncated
        assert len(series) <= 2 * 8 + 1
        # The crest is still visible in the retained curve.
        assert max(value for _, value in series.points()) == peak

    def test_unbounded_series_keeps_every_point(self):
        series = BacklogSeries()
        for step in range(1_000):
            series.append(float(step), step % 7)
        assert len(series) == 1_000
        assert not series.truncated

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            BacklogSeries(resolution=1)


class TestThroughputAccumulator:
    def _schedule(self):
        rng = random.Random(4)
        submissions = [(f"tx{i}", float(i)) for i in range(300)]
        commit_times = {
            # Whole-number latencies, so commits tie with later submissions.
            f"tx{i}": float(i) + rng.randint(1, 3)
            for i in range(300)
            if i % 5  # every fifth submission never commits
        }
        return submissions, commit_times

    def test_matches_exact_recomputation_of_the_schedule(self):
        submissions, commit_times = self._schedule()
        accumulator = replay_throughput(submissions, commit_times)
        latencies = sorted(
            commit_times[tx] - when for tx, when in submissions if tx in commit_times
        )
        assert accumulator.submitted == len(submissions)
        assert accumulator.committed == len(latencies)
        assert accumulator.latency.mean == pytest.approx(sum(latencies) / len(latencies))
        assert accumulator.latency.percentile(99) == percentile_of_sorted(latencies, 99.0)
        # Backlog after each instant, recomputed from the schedule alone.
        instants = sorted({when for _, when in submissions} | set(commit_times.values()))
        backlog = [
            sum(when <= now for _, when in submissions)
            - sum(when <= now for when in commit_times.values())
            for now in instants
        ]
        assert accumulator.series.points() == tuple(zip(instants, backlog))
        assert accumulator.series.peak == max(backlog)
        assert accumulator.backlog == backlog[-1]

    def test_same_instant_observation_order_does_not_matter(self):
        submissions, commit_times = self._schedule()
        commits_first = replay_throughput(submissions, commit_times)
        submits_first = replay_throughput(submissions, commit_times, submit_first=True)
        assert commits_first.series.peak == submits_first.series.peak
        assert commits_first.series.final == submits_first.series.final
        assert commits_first.series.points() == submits_first.series.points()

    def test_duplicate_and_unknown_notifications_ignored(self):
        accumulator = ThroughputAccumulator()
        accumulator.note_submit("a", 0.0)
        accumulator.note_submit("a", 1.0)
        assert accumulator.submitted == 1
        accumulator.note_commit("ghost", 2.0)
        assert accumulator.committed == 0
        accumulator.note_commit("a", 2.0)
        accumulator.note_commit("a", 3.0)
        assert accumulator.committed == 1
        assert accumulator.backlog == 0


class TestReportCaps:
    def _report(self, points):
        return ThroughputReport(
            horizon=1.0, blocks=1, submitted=1, committed=1, blocks_per_sec=1.0,
            latency_mean=0.0, latency_p50=0.0, latency_p99=0.0, latency_max=0.0,
            peak_backlog=max((value for _, value in points), default=0),
            final_backlog=points[-1][1] if points else 0,
            backlog_series=tuple(points),
        )

    def test_accumulator_resolution_caps_series(self):
        submissions = [(f"tx{i}", float(i)) for i in range(4_000)]
        commits = {tx: when + 1.0 for tx, when in submissions}
        capped, unbounded = (
            report_from_accumulator(
                replay_throughput(submissions, commits, resolution=resolution),
                blocks=5, horizon=4_100.0,
            )
            for resolution in (16, None)
        )
        assert len(capped.backlog_series) <= 2 * 16 + 1
        assert len(unbounded.backlog_series) > len(capped.backlog_series)
        # Scalars are unaffected by the series cap.
        assert capped.peak_backlog == unbounded.peak_backlog
        assert capped.final_backlog == unbounded.final_backlog
        assert capped.latency_p99 == unbounded.latency_p99

    def test_record_series_small_series_verbatim(self):
        points = [(float(i), i % 3) for i in range(10)]
        assert self._report(points).record_series() == tuple(points)

    def test_record_series_caps_and_keeps_crest_and_last(self):
        points = [(float(i), 0) for i in range(1_000)]
        points[337] = (337.0, 42)  # the crest, off the stride grid
        report = self._report(points)
        kept = report.record_series(cap=16)
        assert len(kept) <= 16 + 2
        assert kept[-1] == points[-1]
        assert (337.0, 42) in kept
        assert list(kept) == sorted(kept)

    def test_record_series_cap_validation(self):
        with pytest.raises(ValueError):
            self._report([(0.0, 1)]).record_series(cap=1)


class TestDifferentialAgainstExact:
    """A tier-1 catalog run's reported percentiles must match an exact
    recomputation from the run's own submission/commit history."""

    def _exact_latencies(self, result):
        commit_times = dict(result.ctx.commit_log.commit_times())
        submitted = dict(result.ctx.workload.submissions())
        return sorted(
            commit_times[tx] - submitted[tx]
            for tx in commit_times
            if tx in submitted
        )

    def test_catalog_run_percentiles_match_exact(self):
        result = get_scenario("poisson-honest").run(seed=0)
        report = result.throughput
        ordered = self._exact_latencies(result)
        assert ordered, "the scenario must commit transactions"
        # Committed count sits below the default exact_limit, so the
        # sketch is still in its exact phase: not within-1% — equal.
        assert report.latency_p50 == percentile_of_sorted(ordered, 50.0)
        assert report.latency_p99 == percentile_of_sorted(ordered, 99.0)
        assert report.latency_p50 <= 1.01 * percentile_of_sorted(ordered, 50.0)
        assert report.latency_p99 <= 1.01 * percentile_of_sorted(ordered, 99.0)

    @pytest.mark.parametrize("name", ["poisson-honest", "closed-loop-prft"])
    def test_catalog_run_counts_and_backlog_match_exact(self, name):
        """Counts, peak and final against a commits-first edge walk over
        the run's own history — install-time submissions included."""
        result = get_scenario(name).run(seed=0)
        report = result.throughput
        submissions = result.ctx.workload.submissions()
        commit_times = result.ctx.commit_log.commit_times()
        edges = [(when, 1, 1) for _, when in submissions]
        edges += [(commit_times[tx], 0, -1) for tx, _ in submissions if tx in commit_times]
        backlog, walk = 0, {}
        for when, _, delta in sorted(edges):
            backlog += delta
            walk[when] = backlog
        assert report.submitted == len(submissions)
        assert report.committed == len(self._exact_latencies(result))
        assert report.peak_backlog == max(walk.values())
        assert report.final_backlog == backlog
        assert report.backlog_series == tuple(walk.items())

    def test_forced_sketch_phase_stays_close_to_exact(self):
        """Replay the same run's history through an accumulator with a
        tiny exact_limit so the sketch phase engages; estimates must
        stay within a few percentile ranks of exact even on this short
        stream."""
        result = get_scenario("poisson-honest").run(seed=0)
        forced = replay_throughput(
            result.ctx.workload.submissions(),
            result.ctx.commit_log.commit_times(),
            exact_limit=8,
        ).latency
        assert not forced.exact
        ordered = self._exact_latencies(result)
        for q in (50.0, 99.0):
            assert abs(rank_of(ordered, forced.percentile(q)) - q) <= 7.5
