"""Cartesian parameter sweeps, and the one executor every driver shares.

:func:`expand_grid` turns (base scenario, axis grid, seeds) into an
ordered list of independent :class:`SweepJob`\\ s.  :func:`run_job` is
the one (scenario, seed) → :class:`RunRecord` worker and
:func:`run_jobs` the one ordered map over it — serial, or on a
``multiprocessing.Pool`` of worker *processes* (runs are CPU-bound pure
Python, so threads would serialise on the GIL).  Sweeps, fuzz campaigns
and the best-response search all execute through the pair, so a
determinism or persistence rule has one place to live.

Determinism contract: a job is a pure function of (scenario, seed) —
each worker builds a fresh engine, network and key registry, and all
randomness flows from the job's seed.  ``Pool.map`` returns results in
submission order, so the record list, and therefore the aggregated
JSON, is byte-identical whatever the worker count or chunking is; only
``wall_time`` (excluded from canonical output) differs.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.registry import Scenario
from repro.experiments.results import RunRecord, aggregate

Grid = Mapping[str, Sequence[Any]]
SeedSpec = Union[int, Sequence[int]]


@dataclass(frozen=True)
class SweepJob:
    """One independent unit of work: a scenario variant and a seed.

    ``source`` tags the record in the opt-in warehouse mirror (a sweep
    cell defaults to ``sweep:<scenario>``); ``near_miss`` attaches the
    :mod:`repro.search.score` projection the campaign drivers rank by.
    """

    index: int
    scenario: Scenario
    seed: int
    params: Tuple[Tuple[str, Any], ...] = ()
    source: Optional[str] = None
    near_miss: bool = False


def resolve_seeds(seeds: SeedSpec) -> List[int]:
    """``10`` means seeds 0..9; a sequence is taken verbatim."""
    if isinstance(seeds, int):
        if seeds < 1:
            raise ValueError("need at least one seed")
        return list(range(seeds))
    resolved = list(seeds)
    if not resolved:
        raise ValueError("need at least one seed")
    return resolved


def expand_grid(
    scenario: Scenario,
    grid: Optional[Grid] = None,
    seeds: SeedSpec = 1,
) -> List[SweepJob]:
    """Expand axes × seeds into ordered, independent jobs.

    Axis order follows the grid mapping's insertion order; the product
    iterates the last axis fastest, then seeds fastest of all, so job
    order — and hence result order — is deterministic.
    """
    grid = dict(grid or {})
    for axis, values in grid.items():
        if not list(values):
            raise ValueError(f"grid axis {axis!r} has no values")
    seed_list = resolve_seeds(seeds)
    axes = list(grid)
    jobs: List[SweepJob] = []
    for combo in itertools.product(*(grid[axis] for axis in axes)):
        point = dict(zip(axes, combo))
        variant = scenario.with_params(**point) if point else scenario
        for seed in seed_list:
            jobs.append(
                SweepJob(
                    index=len(jobs),
                    scenario=variant,
                    seed=seed,
                    params=tuple(sorted(point.items())),
                )
            )
    return jobs


def run_job(job: SweepJob) -> RunRecord:
    """Execute one job and flatten it to a record (worker entry point)."""
    from repro.experiments.warehouse import (
        maybe_persist_records,
        suppressed_run_autopersist,
    )

    start = time.perf_counter()
    with suppressed_run_autopersist():
        result = job.scenario.run(seed=job.seed)
    elapsed = time.perf_counter() - start
    record = RunRecord.from_result(
        job.scenario,
        seed=job.seed,
        result=result,
        params=dict(job.params),
        wall_time=elapsed,
    )
    if job.near_miss:
        # Runs that pressed the failure boundary without crossing it
        # (burns, exposure events, timeout storms, deep reorgs) rank
        # future guided campaigns toward their neighbourhood.
        from repro.search.score import with_near_miss

        record = with_near_miss(record, result)
    # Opt-in warehouse mirror (REPRO_WAREHOUSE): persisting from the
    # worker keeps long sweeps and campaigns resumable and triagable —
    # records land as they finish, not only if the whole batch survives
    # to its final write.
    maybe_persist_records([record], source=job.source or f"sweep:{job.scenario.name}")
    return record


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork inherits sys.path (and thus src-layout imports) for free;
    # fall back to the platform default where fork is unavailable.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def run_jobs(
    jobs: Sequence[SweepJob],
    workers: int = 1,
    chunk: Optional[int] = None,
    on_chunk: Optional[Callable[[int, List[RunRecord]], None]] = None,
) -> List[RunRecord]:
    """The one ordered map: every job through :func:`run_job`, records
    in job order.

    ``workers=1`` runs serially in-process (no pool, easiest to debug);
    ``workers>1`` fans out over that many worker processes.  The jobs
    run ``chunk`` at a time (all at once by default) and after each
    chunk ``on_chunk(jobs done so far, the chunk's records)`` is called
    in the parent — where a checkpointed campaign lands its records and
    cursor together.
    """
    if workers < 1:
        raise ValueError("jobs must be at least 1")
    step = max(1, chunk or len(jobs))
    pooled = workers > 1 and len(jobs) > 1
    records: List[RunRecord] = []
    with (
        _pool_context().Pool(processes=min(workers, len(jobs))) if pooled else nullcontext()
    ) as pool:
        for start in range(0, len(jobs), step):
            batch = jobs[start : start + step]
            if pool is None:
                done = [run_job(job) for job in batch]
            else:
                done = pool.map(run_job, batch, 1)
            records.extend(done)
            if on_chunk is not None:
                on_chunk(start + len(batch), done)
    return records


@dataclass
class SweepResult:
    """All records of one sweep plus enough metadata to replay it."""

    scenario: str
    grid: Dict[str, List[Any]]
    seeds: List[int]
    jobs: int
    records: List[RunRecord]
    wall_time: float

    def aggregates(self) -> List[Dict[str, Any]]:
        return aggregate(self.records)

    def canonical_records(self) -> List[Dict[str, Any]]:
        return [record.canonical() for record in self.records]

    def meta(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "grid": self.grid,
            "seeds": self.seeds,
        }


def run_sweep(
    scenario: Scenario,
    grid: Optional[Grid] = None,
    seeds: SeedSpec = 1,
    jobs: int = 1,
) -> SweepResult:
    """Run the full grid × seeds sweep and collect ordered records.

    ``jobs=1`` runs serially in-process; ``jobs>1`` fans out over that
    many worker processes (see :func:`run_jobs`).  Either way the
    returned records are in job order and canonically identical.
    """
    job_list = expand_grid(scenario, grid=grid, seeds=seeds)
    started = time.perf_counter()
    records = run_jobs(job_list, workers=jobs)
    elapsed = time.perf_counter() - started
    return SweepResult(
        scenario=scenario.name,
        grid={axis: list(values) for axis, values in dict(grid or {}).items()},
        seeds=resolve_seeds(seeds),
        jobs=jobs,
        records=records,
        wall_time=elapsed,
    )
