"""Composable, typed run specifications.

A deployment is parameterised across the crypto, link-fault, crash and
oracle subsystems; this module groups those parameters into small
frozen spec dataclasses, one per subsystem, that compose into one :class:`RunSpec` — the single value a
:class:`~repro.protocols.runner.Deployment` executes::

    spec = RunSpec(
        factory=prft_factory,
        players=tuple(honest_roster(8)),
        config=ProtocolConfig.for_prft(n=8, duration=200.0),
        network=NetworkSpec(loss_rate=0.05),
        workload=WorkloadSpec(kind="poisson", rate=2.0),
        seed="demo/0",
    )
    result = run(spec)

Every spec is a plain frozen dataclass with defaults equal to the
paper's baseline, so ``RunSpec(factory, players, config)`` is the
reliable-link, static-batch run the golden records pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _dc_replace
from typing import Callable, Optional, Sequence, Tuple

from repro.agents.player import Player
from repro.crypto.backends import DEFAULT_BACKEND
from repro.crypto.registry import DEFAULT_VERIFY_CACHE_SIZE
from repro.ledger.transaction import Transaction
from repro.net.delays import DelayModel
from repro.net.partition import PartitionSchedule
from repro.protocols.base import (
    BaseReplica,
    ProtocolConfig,
    ProtocolContext,
    check_declared_types,
)
from repro.protocols.lifecycle import CrashSchedule
from repro.workloads import (
    WORKLOAD_KINDS,
    Burst,
    ClosedLoop,
    PoissonOpenLoop,
    StaticBatch,
    Workload,
    make_transactions,
)

ReplicaFactory = Callable[[Player, ProtocolConfig, ProtocolContext], BaseReplica]


@dataclass(frozen=True)
class NetworkSpec:
    """The transport: synchrony model, partitions and link faults.

    Defaults are the paper's baseline — reliable exactly-once channels
    under a fixed unit delay (``delay_model=None`` means
    ``FixedDelay(1.0)``).  The fault knobs are the seeded steps of the
    link-layer pipeline, range-checked here so a bad spec fails before
    anything is assembled.
    """

    delay_model: Optional[DelayModel] = None
    partitions: Optional[PartitionSchedule] = None
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_jitter: float = 0.0

    def __post_init__(self) -> None:
        check_declared_types(self, "NetworkSpec")
        if not 0 <= self.loss_rate < 1:
            raise ValueError("loss_rate must lie in [0, 1)")
        if not 0 <= self.duplicate_rate <= 1:
            raise ValueError("duplicate_rate must lie in [0, 1]")
        if self.reorder_jitter < 0:
            raise ValueError("reorder_jitter must be non-negative")


@dataclass(frozen=True)
class CryptoSpec:
    """Signature backend and the deployment's verification cache.

    ``aggregate_certs`` switches every quorum-carrying wire format to
    the :class:`~repro.crypto.aggregate.AggregateQC` representation —
    one tag plus a signer bitmap instead of the full statement set.  A
    pure representation change: commit logs, oracle verdicts and burn
    sets are identical with the axis on or off (the differential
    conformance suite enforces this); only wire bytes and verification
    cost drop, which is what unlocks committees of n = 64–256.
    """

    backend: str = DEFAULT_BACKEND
    cache_size: int = DEFAULT_VERIFY_CACHE_SIZE
    aggregate_certs: bool = False

    def __post_init__(self) -> None:
        check_declared_types(self, "CryptoSpec")
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")


@dataclass(frozen=True)
class FaultSpec:
    """Process faults: the crash/recovery schedule."""

    crash_schedule: Optional[CrashSchedule] = None

    @property
    def active(self) -> bool:
        return self.crash_schedule is not None and bool(self.crash_schedule.windows)


@dataclass(frozen=True)
class ProductionSpec:
    """How leaders turn the mempool into blocks.

    Defaults reproduce the legacy pipeline exactly: one slot in flight
    at a time, ``config.block_size`` transactions per block, one engine
    event per client arrival.

    - ``pipeline_depth`` — how many consecutive slots a leader may hold
      open at once, chained-HotStuff style: slot ``r + 1`` opens as soon
      as slot ``r``'s proposal is quorum-acknowledged, up to ``depth``
      slots ahead of the commit frontier.  Depth 1 is strictly
      sequential (today's behaviour).
    - ``max_block_txs`` — cap on mempool transactions drained into one
      block; ``None`` defers to ``config.block_size`` (the legacy cap).
    - ``coalesce_window`` — open-loop client arrivals landing within
      this window are submitted as one batched engine event, so event
      count scales with batches rather than transactions.  ``0.0``
      keeps one event per arrival.
    """

    pipeline_depth: int = 1
    max_block_txs: Optional[int] = None
    coalesce_window: float = 0.0

    def __post_init__(self) -> None:
        check_declared_types(self, "ProductionSpec")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be at least 1")
        if self.max_block_txs is not None and self.max_block_txs < 1:
            raise ValueError("max_block_txs must be at least 1 when set")
        if self.coalesce_window < 0:
            raise ValueError("coalesce_window must be non-negative")

    @property
    def active(self) -> bool:
        """True when any knob departs from the legacy defaults."""
        return self != ProductionSpec()

    def block_tx_limit(self, config: ProtocolConfig) -> int:
        """The effective per-block transaction cap for ``config``."""
        return self.max_block_txs if self.max_block_txs is not None else config.block_size


@dataclass(frozen=True)
class WorkloadSpec:
    """The client arrival process, declaratively.

    ``kind`` selects the workload class; the remaining fields apply to
    one kind each and are ignored by the others:

    - ``static`` — the legacy pre-loaded batch: ``transactions``
      verbatim if given, else ``count`` generated ones, else the
      historical default of ``2 · block_size · max_rounds``.
    - ``poisson`` — open-loop arrivals at ``rate`` tx per time unit.
    - ``closed`` — a closed loop holding ``outstanding`` tx in flight.
    - ``burst`` — batches at fixed times from ``bursts`` (entries at
      or beyond the configured duration are dropped at build time;
      arrivals stop at the duration like every continuous workload).

    Continuous kinds (everything but ``static``) require the protocol
    config to set ``duration``; :meth:`build` seeds stochastic arrival
    processes from the run seed.
    """

    kind: str = "static"
    transactions: Optional[Tuple[Transaction, ...]] = None
    count: Optional[int] = None
    rate: float = 25.0
    outstanding: int = 4
    bursts: Tuple[Tuple[float, int], ...] = ()

    def __post_init__(self) -> None:
        check_declared_types(self, "WorkloadSpec")
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; choose from {WORKLOAD_KINDS}"
            )
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.outstanding < 1:
            raise ValueError("outstanding must be at least 1")
        if self.count is not None and self.count < 0:
            raise ValueError("count must be non-negative")
        if self.kind != "static" and (self.transactions is not None or self.count is not None):
            raise ValueError("transactions/count only apply to the static workload")
        if self.kind == "burst" and not self.bursts:
            raise ValueError("burst workloads need a non-empty bursts schedule")
        if self.transactions is not None:
            object.__setattr__(self, "transactions", tuple(self.transactions))
        if self.bursts:
            object.__setattr__(
                self, "bursts", tuple((float(t), int(c)) for t, c in self.bursts)
            )
            if any(t < 0 or c < 1 for t, c in self.bursts):
                raise ValueError("burst entries must be (time >= 0, count >= 1)")

    @property
    def continuous(self) -> bool:
        return self.kind != "static"

    def build(
        self,
        config: ProtocolConfig,
        seed: str = "default",
        production: ProductionSpec = ProductionSpec(),
    ) -> Workload:
        """Materialise the workload for one run.

        ``production`` threads the client-side coalescing window into
        open-loop arrival processes; the default (a zero window) keeps
        the legacy one-event-per-arrival schedule.
        """
        if self.kind == "static":
            if self.transactions is not None:
                batch: Sequence[Transaction] = self.transactions
            elif self.count is not None:
                batch = make_transactions(self.count)
            else:
                batch = make_transactions(2 * config.block_size * config.max_rounds)
            return StaticBatch(batch)
        if config.duration is None:
            raise ValueError(
                f"the {self.kind!r} workload is continuous and needs config.duration"
            )
        if self.kind == "poisson":
            return PoissonOpenLoop(
                self.rate,
                duration=config.duration,
                seed=seed,
                coalesce_window=production.coalesce_window,
            )
        if self.kind == "closed":
            return ClosedLoop(self.outstanding, duration=config.duration)
        return Burst(self.bursts, duration=config.duration)


@dataclass(frozen=True)
class RetentionSpec:
    """Bounded-memory retention for soak-length runs.

    Defaults (every window ``None``) are the unbounded legacy
    behaviour: golden records stay byte-identical.  Each window bounds
    one O(events) structure so a ≥10⁶-transaction run holds constant
    state; the lifetime counters underneath them stay exact.

    - ``trace_window`` — per-kind ring-buffer capacity on the
      :class:`~repro.sim.trace.TraceRecorder`.  Oracle checks that
      declare the truncated kinds refuse to certify instead of
      silently passing.
    - ``commit_window`` — newest first-commit records kept by the
      :class:`~repro.sim.metrics.CommitLog` for dedup after listeners
      fire, and the bound on each mempool's inclusion history (a
      duplicate is ignored while its original is pending or among the
      newest ``commit_window`` inclusions).  Must comfortably exceed
      the finalisation spread between the fastest and slowest honest
      replica.
    - ``submission_window`` — newest ``(tx_id, time)`` pairs the
      workload keeps; older submissions are handed to the streaming
      throughput accumulator and forgotten.
    - ``ledger_window`` — final blocks whose transaction bodies each
      chain retains; deeper final blocks keep header + digest only
      (chain length, digests and parent links are unaffected).
    - ``backlog_resolution`` — the resolution the run's throughput
      accumulator keeps its backlog series at (windowed downsampling as
      the run goes; peak and final stay exact).
    """

    trace_window: Optional[int] = None
    commit_window: Optional[int] = None
    submission_window: Optional[int] = None
    ledger_window: Optional[int] = None
    backlog_resolution: Optional[int] = None

    def __post_init__(self) -> None:
        check_declared_types(self, "RetentionSpec")
        for name in ("trace_window", "commit_window", "submission_window",
                     "ledger_window"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive when set")
        if self.backlog_resolution is not None and self.backlog_resolution < 2:
            raise ValueError("backlog_resolution must be at least 2 when set")


# The ``replace`` idiom on every sub-spec: frozen dataclasses already
# support ``dataclasses.replace``, but exposing it as a method keeps
# call sites short and re-runs ``__post_init__`` validation.
for _spec_cls in (NetworkSpec, CryptoSpec, FaultSpec, WorkloadSpec, ProductionSpec,
                  RetentionSpec):
    _spec_cls.replace = _dc_replace  # type: ignore[attr-defined]
del _spec_cls


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified deployment, ready to ``run``.

    The three required fields are the protocol triple (factory, roster,
    config); each optional subsystem spec defaults to the paper's
    baseline, so the minimal ``RunSpec(factory, players, config)``
    reproduces the golden-record runs byte for byte.
    """

    factory: ReplicaFactory
    players: Tuple[Player, ...]
    config: ProtocolConfig
    network: NetworkSpec = field(default_factory=NetworkSpec)
    crypto: CryptoSpec = field(default_factory=CryptoSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    production: ProductionSpec = field(default_factory=ProductionSpec)
    retention: RetentionSpec = field(default_factory=RetentionSpec)
    seed: str = "default"
    max_time: float = 10_000.0
    max_events: int = 2_000_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "players", tuple(self.players))
        ids = sorted(p.player_id for p in self.players)
        if ids != list(range(self.config.n)):
            raise ValueError("players must have ids 0..n-1 matching config.n")
        if self.workload.continuous and self.config.duration is None:
            raise ValueError(
                f"the {self.workload.kind!r} workload is continuous: "
                f"set config.duration to bound the run"
            )
        if self.max_time <= 0:
            raise ValueError("max_time must be positive")
        if self.max_events < 1:
            raise ValueError("max_events must be at least 1")

    @property
    def player_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(p.player_id for p in self.players))

    def derive(self, **overrides: object) -> "RunSpec":
        """A copy of this spec with ``overrides`` applied.

        Top-level field names (``seed=...``, ``config=...``) replace the
        field outright.  Sub-spec fields also accept a plain dict, which
        is folded into the *existing* sub-spec via its ``replace`` — so
        flipping one knob never hand-reconstructs a spec tree::

            spec.derive(seed="sweep/3",
                        network={"loss_rate": 0.05},
                        production={"pipeline_depth": 4})

        Validation re-runs on every derived spec.
        """
        sub_specs = ("network", "crypto", "faults", "workload", "production",
                     "retention")
        changes = {}
        for name, value in overrides.items():
            if name in sub_specs and isinstance(value, dict):
                changes[name] = _dc_replace(getattr(self, name), **value)
            else:
                changes[name] = value
        return _dc_replace(self, **changes)
