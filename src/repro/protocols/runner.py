"""Build a simulated deployment and run it to completion.

The runner executes a :class:`~repro.protocols.spec.RunSpec` — the
composable, typed description of one deployment (protocol triple plus
network / crypto / fault / workload specs).  :class:`Deployment`
assembles engine + network + PKI + collateral + client workload from
the spec, starts every replica, drives the event loop and returns a
:class:`RunResult` with everything the analysis layer needs (honest
chains, trace, metrics, collateral, throughput, realised states)::

    result = run(RunSpec(factory=prft_factory, players=..., config=...))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set

from repro.agents.player import Player, Role
from repro.crypto.registry import KeyRegistry
from repro.gametheory.states import SystemState, classify_state
from repro.ledger.chain import Chain
from repro.ledger.collateral import CollateralRegistry
from repro.net.faults import LinkPipeline
from repro.net.network import TRAFFIC_KINDS, Network
from repro.protocols.base import BaseReplica, ProtocolConfig, ProtocolContext
from repro.protocols.spec import (
    CryptoSpec,
    FaultSpec,
    NetworkSpec,
    ProductionSpec,
    ReplicaFactory,
    RetentionSpec,
    RunSpec,
    WorkloadSpec,
)
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import (
    CommitLog,
    MetricsCollector,
    ThroughputReport,
    report_from_accumulator,
)
from repro.sim.streaming import ThroughputAccumulator
from repro.sim.timers import TimerService
from repro.sim.trace import TraceRecorder
from repro.workloads import Workload, make_transactions

__all__ = [
    "ReplicaFactory",
    "RunSpec",
    "NetworkSpec",
    "CryptoSpec",
    "FaultSpec",
    "WorkloadSpec",
    "ProductionSpec",
    "RetentionSpec",
    "Deployment",
    "RunResult",
    "build_context",
    "make_transactions",
    "run",
]


def build_context(
    config: ProtocolConfig,
    player_ids: Iterable[int],
    network: NetworkSpec = NetworkSpec(),
    crypto: CryptoSpec = CryptoSpec(),
    production: ProductionSpec = ProductionSpec(),
    retention: RetentionSpec = RetentionSpec(),
    seed: str = "default",
) -> ProtocolContext:
    """Assemble engine, network, PKI and collateral for a deployment.

    The arguments are a :class:`RunSpec`'s own sub-specs.  ``network``
    builds the link-layer pipeline (delay → partition → drop →
    duplication → reorder-jitter); each stochastic step is seeded from
    ``seed``, so faults replay identically for the same (scenario,
    seed) pair.  ``retention`` sizes the trace recorder's per-kind ring
    buffers and the commit log's dedup window; the all-defaults spec
    keeps both unbounded.  Unless ``retention.trace_traffic`` is set,
    the trace never gets :data:`TRAFFIC_KINDS`; the metrics count them.
    """
    engine = SimulationEngine()
    pipeline = LinkPipeline(
        delay_model=network.delay_model,
        partitions=network.partitions,
        loss_rate=network.loss_rate,
        duplicate_rate=network.duplicate_rate,
        reorder_jitter=network.reorder_jitter,
        seed=seed,
    )
    registry = KeyRegistry.trusted_setup(
        player_ids,
        seed=seed,
        backend=crypto.backend,
        verify_cache_size=crypto.cache_size,
    )
    collateral = CollateralRegistry(deposit=config.deposit)
    collateral.enroll_all(player_ids)
    return ProtocolContext(
        engine=engine,
        network=Network(
            engine,
            pipeline=pipeline,
            metrics=MetricsCollector(),
            trace=TraceRecorder(
                window=retention.trace_window,
                unrecorded=() if retention.trace_traffic else TRAFFIC_KINDS,
            ),
        ),
        timers=TimerService(engine),
        registry=registry,
        collateral=collateral,
        commit_log=CommitLog(window=retention.commit_window),
        aggregate_certs=crypto.aggregate_certs,
        production=production,
        retention=retention,
    )


@dataclass
class RunResult:
    """Everything observable about one finished run.

    The replicas, trace, metrics, registry, collateral, commit log and
    workload record stay readable for as long as the result is held.
    The event-loop wiring does not: :meth:`Deployment.execute` has
    released it, so nothing here refers back into a cycle and dropping
    the result frees the whole deployment by reference counting.
    """

    config: ProtocolConfig
    players: List[Player]
    replicas: Dict[int, BaseReplica]
    ctx: ProtocolContext
    submitted_tx_ids: List[str]
    # Attached post-hoc by Scenario.run when check_invariants is set
    # (an OracleReport; typed Any to keep the checks layer above us).
    oracle: Optional[Any] = None
    # Populated by the Deployment for continuous-workload runs (a
    # configured duration or any non-static workload); None for legacy
    # fixed-slot runs, whose records stay byte-identical.
    throughput: Optional[ThroughputReport] = None

    # ------------------------------------------------------------------
    # Views by role
    # ------------------------------------------------------------------
    def ids_with_role(self, role: Role) -> List[int]:
        return sorted(p.player_id for p in self.players if p.role is role)

    @property
    def honest_ids(self) -> List[int]:
        return self.ids_with_role(Role.HONEST)

    @property
    def rational_ids(self) -> List[int]:
        return self.ids_with_role(Role.RATIONAL)

    @property
    def byzantine_ids(self) -> List[int]:
        return self.ids_with_role(Role.BYZANTINE)

    def honest_chains(self) -> Dict[int, Chain]:
        return {pid: self.replicas[pid].chain for pid in self.honest_ids}

    # ------------------------------------------------------------------
    # Outcome classification (utilities: repro.gametheory.empirical)
    # ------------------------------------------------------------------
    def system_state(self, censored_tx_ids: Optional[Iterable[str]] = None) -> SystemState:
        """The run's terminal σ (Table 2), as RobustnessReport.state."""
        return classify_state(self.honest_chains(), censored_tx_ids=censored_tx_ids)

    def final_block_count(self) -> int:
        """Final blocks on the longest honest chain."""
        chains = self.honest_chains()
        if not chains:
            return 0
        return max(len(chain.final_blocks()) for chain in chains.values())

    def penalised_players(self) -> Set[int]:
        return self.ctx.collateral.burned_players()

    @property
    def trace(self):
        return self.ctx.trace

    @property
    def metrics(self):
        return self.ctx.network.metrics

    @property
    def history_truncated(self) -> bool:
        """True when retention evicted history a full-run audit needs:
        trimmed submission records, an evicted commit-log prefix, or
        final-block bodies stripped from some replica's ledger.  Oracle
        checkers that replay the full history refuse (skip) on such
        runs rather than pass vacuously."""
        workload = getattr(self.ctx, "workload", None)
        if workload is not None and getattr(workload, "submissions_truncated", False):
            return True
        if self.ctx.commit_log.truncated:
            return True
        return any(
            replica.chain.bodies_pruned for replica in self.replicas.values()
        )


class Deployment:
    """One assembled deployment: context, replicas, faults, workload.

    Construction performs every side-effect-free assembly step in the
    exact order the legacy runner used (context → replicas → crash
    schedule → workload install), so a default static-batch spec
    schedules the identical event sequence; :meth:`execute` starts the
    replicas, drives the engine and builds the :class:`RunResult`.
    """

    def __init__(self, spec: RunSpec) -> None:
        self.spec = spec
        config = spec.config
        self.ctx = build_context(
            config,
            spec.player_ids,
            network=spec.network,
            crypto=spec.crypto,
            production=spec.production,
            retention=spec.retention,
            seed=spec.seed,
        )
        # Client-visible commits are what honest replicas finalise; a
        # deviator's lone fork block never counts.
        self.ctx.commit_log.restrict_to(
            p.player_id for p in spec.players if p.role is Role.HONEST
        )
        self.replicas: Dict[int, BaseReplica] = {}
        for player in spec.players:
            self.replicas[player.player_id] = spec.factory(player, config, self.ctx)

        if spec.faults.active:
            # Crash faults break exactly-once delivery just like link
            # loss does; protocols gate retransmission on this flag.
            self.ctx.network.mark_unreliable()
            spec.faults.crash_schedule.install(self.ctx.engine, self.replicas)

        self.workload: Workload = spec.workload.build(
            config, seed=spec.seed, production=spec.production
        )
        self.ctx.workload = self.workload
        # Every run that gets a throughput report owns the one streaming
        # accumulator.  It is wired before the workload installs, so
        # install-time submissions (a static batch, a closed loop's
        # first window) are observed like any later one.
        self.accumulator: Optional[ThroughputAccumulator] = None
        if config.duration is not None or spec.workload.continuous:
            self.accumulator = ThroughputAccumulator(
                resolution=spec.retention.backlog_resolution
            )
            self.workload.attach_accumulator(self.accumulator)
            self.ctx.commit_log.subscribe(self.accumulator.note_commit)
        self.workload.install(self.ctx, self.replicas)
        if spec.retention.submission_window is not None:
            self.workload.bound_submissions(spec.retention.submission_window)
        self._executed = False

    def execute(self) -> RunResult:
        """Start every replica, run the event loop, collect the result.

        Once the result and its throughput report are built, the wiring
        only the event loop needed is released: the engine's queued
        events, the armed timers, the network's inboxes, the commit
        log's listeners and the workload's engine and replica handles.
        Those references close the cycles through the replicas, so
        without the release a dropped result waits for a full
        collection; with it, reference counting frees the deployment.
        """
        if self._executed:
            raise RuntimeError("a Deployment can only be executed once")
        self._executed = True
        for replica in self.replicas.values():
            replica.start()
        ctx = self.ctx
        ctx.engine.run(until=self.spec.max_time, max_events=self.spec.max_events)
        result = RunResult(
            config=self.spec.config,
            players=list(self.spec.players),
            replicas=self.replicas,
            ctx=ctx,
            submitted_tx_ids=self.workload.submitted_ids(),
        )
        if self.accumulator is not None:
            result.throughput = self._throughput_report(result)
        ctx.engine.release()
        ctx.timers.release()
        ctx.network.release()
        ctx.commit_log.release()
        self.workload.release()
        return result

    def _throughput_report(self, result: RunResult) -> ThroughputReport:
        # Rates normalise over the configured duration, clipped to the
        # time the run last did anything (a quiesced run ends earlier;
        # engine.now is useless here — run() advances it to max_time).
        duration = self.spec.config.duration
        quiesced = self.ctx.engine.last_event_time
        horizon = quiesced if duration is None else min(duration, quiesced)
        return report_from_accumulator(
            self.accumulator,
            blocks=result.final_block_count(),
            horizon=max(horizon, 1e-9),
        )


def run(spec: RunSpec) -> RunResult:
    """Execute one :class:`RunSpec` end to end."""
    return Deployment(spec).execute()
