"""Declarative scenarios and the decorator-based scenario catalog.

A :class:`Scenario` is a frozen, fully-declarative description of one
deployment: protocol, roster, attack, synchrony model, partitions and
protocol parameters.  Because every field is a plain value (no lambdas,
no live objects), scenarios pickle cleanly across process boundaries —
the property the parallel sweep engine in
:mod:`repro.experiments.sweep` relies on — and any field can serve as a
sweep axis via :meth:`Scenario.with_params`.

The catalog is populated with :func:`register_scenario`::

    @register_scenario
    def honest() -> Scenario:
        \"\"\"All players honest; the sigma_0 baseline.\"\"\"
        return Scenario(name="honest", n=9, rounds=3)

and queried with :func:`get_scenario` / :func:`scenario_catalog`.
``repro run NAME [flags]`` runs an entry with any of its axes
overridden; several entries (partition schedules, GST sweeps, mixed-θ
collusions, cross-protocol grids) exist to be swept.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.agents.collusion import Collusion, assign_strategies
from repro.checks import run_oracle
from repro.agents.player import (
    Player,
    byzantine_player,
    honest_player,
    rational_player,
)
from repro.agents.strategies import HonestStrategy
from repro.core.replica import prft_factory
from repro.crypto.backends import DEFAULT_BACKEND, backend_names, get_backend
from repro.crypto.registry import DEFAULT_VERIFY_CACHE_SIZE
from repro.gametheory.payoff import PlayerType
from repro.net.delays import (
    AsynchronousDelay,
    DelayModel,
    FixedDelay,
    PartialSynchronyDelay,
    RegionalDelay,
    SynchronousDelay,
)
from repro.net.partition import Partition, PartitionSchedule
from repro.protocols.base import ProtocolConfig, check_declared_types
from repro.protocols.lifecycle import CrashSchedule
from repro.protocols.hotstuff import hotstuff_factory
from repro.protocols.pbft import pbft_factory
from repro.protocols.polygraph import polygraph_factory
from repro.protocols.runner import (
    CryptoSpec,
    FaultSpec,
    NetworkSpec,
    ProductionSpec,
    ReplicaFactory,
    RetentionSpec,
    RunResult,
    RunSpec,
    WorkloadSpec,
    run,
)
from repro.protocols.trap import trap_factory
from repro.workloads import WORKLOAD_KINDS

PROTOCOL_FACTORIES: Dict[str, ReplicaFactory] = {
    "prft": prft_factory,
    "pbft": pbft_factory,
    "hotstuff": hotstuff_factory,
    "polygraph": polygraph_factory,
    "trap": trap_factory,
}

ATTACKS = ("fork", "liveness", "censorship")

DELAY_MODELS = ("fixed", "synchronous", "asynchronous", "partial", "regional")

#: workload kind → (the WorkloadSpec field it reads, the Scenario field
#: that feeds it).  Only the selected kind's axis is folded: a burst
#: entry re-pointed at poisson keeps its now-ignored schedule without
#: tripping burst rules.
WORKLOAD_AXIS = {
    "static": ("count", "tx_count"),
    "poisson": ("rate", "arrival_rate"),
    "closed": ("outstanding", "outstanding"),
    "burst": ("bursts", "burst_schedule"),
}


@dataclass(frozen=True)
class Scenario:
    """One declaratively-specified consensus deployment.

    Roster: ``rational``/``byzantine`` counts place deviators at the
    lowest free ids (matching the CLI's convention); ``rational_ids``/
    ``byzantine_ids`` pin explicit placements instead (setting a count
    *and* its id list is refused, not silently resolved).  ``theta``
    sets every rational player's type; ``thetas`` overrides per player
    (one entry per rational id, in ascending id order).

    Attack: ``attack`` is one of :data:`ATTACKS` or None.  The maximal
    collusion K ∪ T executes it (censorship needs ``censored_tx_ids``).

    Synchrony: ``delay`` picks the model — ``fixed``/``synchronous``
    are bounded by ``delta``; ``asynchronous`` is heavy-tailed;
    ``partial`` is asynchronous before ``gst`` and Δ-bounded after;
    ``regional`` groups replicas round-robin into ``regions`` regions
    with a seeded per-region-pair base-latency matrix (intra-region =
    ``delta``, inter-region up to ``region_spread`` × ``delta``) plus
    per-message jitter of up to ``region_jitter`` relative — the
    geo-distributed shape the deployed-BFT evaluations use.  Setting
    ``regions`` implies ``delay="regional"`` on the CLI; here the two
    must agree.  Stochastic models draw from the per-run seed, so one
    scenario and one seed always replay the identical execution.

    Partitions: ``partition_windows`` lists ``(start, end)`` windows
    during which ``partition_groups`` cannot exchange messages.  Empty
    ``partition_groups`` defaults to the collusion's victim split
    (group A vs group B), the construction the paper's fork arguments
    use.

    Faults: ``loss_rate`` drops each delivery independently,
    ``duplicate_rate`` delivers an extra copy, ``reorder_jitter`` adds
    uniform per-delivery jitter (which reorders traffic relative to
    send order); all three are steps of the network's link-layer
    pipeline, seeded per (scenario, seed).  ``crash_spec`` lists
    ``(replica, crash_time[, recover_time])`` outage windows — a
    2-tuple is a permanent crash.  With every fault knob at its
    default, channels are the paper's reliable exactly-once baseline
    and runs are byte-identical to the pre-fault-pipeline simulator.

    Crypto: ``crypto_backend`` selects the signature backend —
    ``hmac-sha256`` (default, unforgeable) or ``fast-sim`` (CRC tags
    for game-theory sweeps that never exercise unforgeability; refused
    by fork/accountability scenarios).  ``crypto_cache_size`` > 0 turns
    on the verification fast path — verified objects are stamped and
    certificate verdicts memoized (bounded by this size); 0 restores
    the re-verify-everything reference path.
    ``aggregate_certs`` switches quorum justifications to aggregate
    certificates (one digest + signer bitmap + aggregate tag instead of
    n signed statements on the wire) — a pure representation change:
    commit logs, oracle verdicts and burn sets are identical with the
    axis on or off, only message sizes shrink.  All three are sweep
    axes like any other field.

    Committee size: ``n`` must lie in [1, 256] — the big-committee
    ceiling the aggregate-certificate benchmarks exercise; larger
    rosters have no tested configuration.

    Workload: ``workload`` selects the client arrival process —
    ``static`` (the legacy pre-loaded batch, default), ``poisson``
    (open-loop at ``arrival_rate`` tx per time unit), ``closed`` (a
    closed loop holding ``outstanding`` tx in flight) or ``burst``
    (batches from ``burst_schedule``, ``(time, count)`` entries).
    Continuous workloads (everything but ``static``) require
    ``duration``: replicas then ignore ``rounds`` and keep opening
    mempool-fed slots until that much virtual time elapses, or until a
    finite arrival process is exhausted and the backlog drains
    (quiesce).  Such runs attach a
    :class:`~repro.sim.metrics.ThroughputReport` (blocks/sec, commit
    latency distribution, backlog over time) to ``result.throughput``,
    flattened into sweep records.  All workload axes sweep like any
    other field; arrival processes draw from the per-run seed, so one
    (scenario, seed) pair always replays identically.

    Block production: ``pipeline_depth`` lets leaders open up to that
    many slots speculatively ahead of the commit frontier (1, the
    default, is the legacy strictly-sequential loop and replays
    byte-identically); ``max_block_txs`` raises the per-block
    transaction cap above ``block_size`` for batched drains of a deep
    mempool; ``coalesce_window`` batches open-loop client arrivals that
    fall within the window into one submission event.  The three
    compile into the run's frozen
    :class:`~repro.protocols.spec.ProductionSpec` and sweep like any
    other field.

    Retention: the five ``*_window`` / ``backlog_resolution`` axes
    compile into the run's frozen
    :class:`~repro.protocols.spec.RetentionSpec` and bound the
    simulator's O(history) structures for soak runs — ``trace_window``
    keeps the last N trace events per kind, ``commit_window`` bounds
    the commit log's dedup maps and each mempool's inclusion history,
    ``submission_window`` bounds the workload's retained submission
    records, ``ledger_window`` strips transaction bodies from final
    blocks deeper than N below the head (refused with
    ``censored_tx_ids``, whose audit reads them), and ``backlog_resolution``
    downsamples the throughput report's backlog series.  All default to
    None (unbounded), which replays byte-identically to the
    pre-retention simulator; lifetime counters stay exact either way,
    and oracle checkers that need the evicted history refuse (skip)
    rather than pass vacuously.  ``trace_traffic`` (default False)
    stores the network's ``send`` / ``deliver`` / ``drop`` events in the
    trace; without it they are not recorded, reading them by kind
    raises, and the metrics alone count sends, drops and duplicates.
    No CLI flag or fuzz draw sets it: it is for the readers of
    per-message traffic.

    Oracle: ``check_invariants`` runs the trace oracle
    (:mod:`repro.checks`) post-hoc over every execution of this
    scenario — ``Scenario.run`` attaches the report to the result, and
    sweep workers flatten the verdicts into their ``RunRecord`` rows.
    It is a sweep axis like any other field.  ``allow_unsound_crypto``
    lifts the fork/forgeable-backend refusal; it exists so the fuzzer
    (and tests) can deliberately build runs that *violate* the
    accountability invariant — never set it in real experiments.
    """

    name: str
    description: str = ""
    protocol: str = "prft"
    n: int = 9
    rounds: int = 3
    rational: int = 0
    byzantine: int = 0
    rational_ids: Tuple[int, ...] = ()
    byzantine_ids: Tuple[int, ...] = ()
    theta: int = int(PlayerType.FORK_SEEKING)
    thetas: Tuple[int, ...] = ()
    attack: Optional[str] = None
    censored_tx_ids: Tuple[str, ...] = ()
    delay: str = "fixed"
    delta: float = 1.0
    gst: float = 0.0
    regions: Optional[int] = None
    region_spread: float = 4.0
    region_jitter: float = 0.25
    timeout: float = 15.0
    quorum: Optional[int] = None
    t0: Optional[int] = None
    tolerance: str = "prft"
    block_size: int = 4
    deposit: float = 10.0
    alpha: float = 1.0
    partition_windows: Tuple[Tuple[float, float], ...] = ()
    partition_groups: Tuple[Tuple[int, ...], ...] = ()
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_jitter: float = 0.0
    crash_spec: Tuple[Tuple[Any, ...], ...] = ()
    tx_count: Optional[int] = None
    workload: str = "static"
    arrival_rate: float = 25.0
    outstanding: int = 4
    burst_schedule: Tuple[Tuple[float, int], ...] = ()
    duration: Optional[float] = None
    max_time: float = 2_000.0
    max_events: int = 2_000_000
    crypto_backend: str = DEFAULT_BACKEND
    crypto_cache_size: int = DEFAULT_VERIFY_CACHE_SIZE
    aggregate_certs: bool = False
    pipeline_depth: int = 1
    max_block_txs: Optional[int] = None
    coalesce_window: float = 0.0
    trace_window: Optional[int] = None
    commit_window: Optional[int] = None
    submission_window: Optional[int] = None
    ledger_window: Optional[int] = None
    backlog_resolution: Optional[int] = None
    #: Store the network's send/deliver/drop events in the trace
    #: (RetentionSpec.trace_traffic); off, they are not recorded and
    #: only the metrics count them.
    trace_traffic: bool = False
    check_invariants: bool = False
    allow_unsound_crypto: bool = False
    #: Searched-deviation axis: a StrategyGene in its as_field()
    #: encoding (sorted (knob, value) pairs).  None — the default, so
    #: every historical serialisation is unchanged — means no gene;
    #: otherwise the first `coalition` rational players run the
    #: compiled strategy (applied after `attack`, overriding it for
    #: the coalition members).
    gene: Optional[Tuple[Tuple[str, Any], ...]] = None

    #: committee-size ceiling: the largest n any benchmark exercises.
    MAX_N = 256

    def __post_init__(self) -> None:
        check_declared_types(self, f"scenario {self.name!r}")
        if not 1 <= self.n <= self.MAX_N:
            raise ValueError(
                f"n must lie in [1, {self.MAX_N}]; got {self.n} "
                f"(the big-committee benchmarks stop at n={self.MAX_N})"
            )
        if self.protocol not in PROTOCOL_FACTORIES:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; choose from {sorted(PROTOCOL_FACTORIES)}"
            )
        if self.attack is not None and self.attack not in ATTACKS:
            raise ValueError(f"unknown attack {self.attack!r}; choose from {ATTACKS}")
        if self.crypto_backend not in backend_names():
            raise ValueError(
                f"unknown crypto backend {self.crypto_backend!r}; "
                f"choose from {backend_names()}"
            )
        if self.gene is not None:
            object.__setattr__(
                self, "gene",
                tuple(
                    (str(key), tuple(value) if isinstance(value, (list, tuple)) else value)
                    for key, value in self.gene
                ),
            )
            # Compile-check the knobs now so a bad gene fails at
            # construction time with the space's own message.
            from repro.search.space import StrategyGene

            if StrategyGene.from_field(self.gene).forks and (
                not get_backend(self.crypto_backend).unforgeable
                and not self.allow_unsound_crypto
            ):
                raise ValueError(
                    f"scenario {self.name!r} carries a forking gene (equivocate > 0), "
                    f"which exercises accountability and needs an unforgeable backend; "
                    f"{self.crypto_backend!r} is forgeable"
                )
        if (
            self.attack == "fork"
            and not get_backend(self.crypto_backend).unforgeable
            and not self.allow_unsound_crypto
        ):
            raise ValueError(
                f"scenario {self.name!r} exercises accountability (fork attacks are "
                f"deterred by Proofs-of-Fraud), which needs an unforgeable backend; "
                f"{self.crypto_backend!r} is forgeable and only valid for scenarios "
                f"that never rely on signature unforgeability"
            )
        if self.delay not in DELAY_MODELS:
            raise ValueError(f"unknown delay model {self.delay!r}; choose from {DELAY_MODELS}")
        if self.delay == "regional":
            if self.regions is None:
                raise ValueError("the regional delay model needs regions set")
            if not 1 <= self.regions <= self.n:
                raise ValueError("regions must lie in [1, n]")
            if self.region_spread < 1:
                raise ValueError("region_spread must be >= 1")
            if self.region_jitter < 0:
                raise ValueError("region_jitter must be non-negative")
        elif self.regions is not None:
            raise ValueError("regions only applies to the regional delay model")
        if self.tolerance not in ("prft", "bft"):
            raise ValueError("tolerance must be 'prft' or 'bft'")
        if self.attack == "censorship" and not self.censored_tx_ids:
            raise ValueError("censorship scenarios need censored_tx_ids")
        if self.censored_tx_ids and self.ledger_window is not None:
            raise ValueError(
                "censored_tx_ids cannot be audited under ledger_window: the "
                "check reads final block bodies, which ledger_window prunes"
            )
        for count, pinned in (("rational", "rational_ids"), ("byzantine", "byzantine_ids")):
            if getattr(self, count) and getattr(self, pinned):
                raise ValueError(
                    f"{count}={getattr(self, count)} cannot apply: scenario "
                    f"{self.name!r} pins {pinned}={getattr(self, pinned)}"
                )
        # Normalise nested sequences (sweep grids hand us lists) to
        # tuples so the scenario stays hashable/picklable.
        for axis in ("partition_windows", "partition_groups", "crash_spec"):
            object.__setattr__(self, axis, tuple(tuple(entry) for entry in getattr(self, axis)))
        for axis, ids in (
            ("rational_ids", self.rational_ids),
            ("byzantine_ids", self.byzantine_ids),
            ("partition_groups", sum(self.partition_groups, ())),
        ):
            if not all(type(i) is int and 0 <= i < self.n for i in ids):
                raise ValueError(f"{axis} must name ints in [0, n={self.n}); got {ids!r}")
            if len(set(ids)) != len(ids):
                raise ValueError(f"{axis} names a player twice: {ids!r}")
        rationals = self.resolved_rational_ids()
        byzantines = self.resolved_byzantine_ids()
        if set(rationals) & set(byzantines):
            raise ValueError("a player cannot be both rational and byzantine")
        deviators = set(rationals) | set(byzantines)
        if len(deviators) >= self.n and self.n > 0:
            raise ValueError("rational + byzantine must be fewer than n")
        if self.thetas and len(self.thetas) != len(rationals):
            raise ValueError("thetas must have one entry per rational player")
        if self.workload not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload {self.workload!r}; choose from {WORKLOAD_KINDS}"
            )
        if self.workload != "static" and self.duration is None:
            raise ValueError(
                f"the {self.workload!r} workload is continuous: set duration"
            )
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration must be positive when set")
        if self.duration is not None and self.duration > self.max_time:
            # A duration past the engine bound would silently truncate
            # the run while rates/expectations assume the full window.
            raise ValueError("duration must not exceed max_time")
        if self.workload == "burst" and not self.burst_schedule:
            raise ValueError("burst workloads need a non-empty burst_schedule")
        if self.tx_count is not None and self.workload != "static":
            raise ValueError("tx_count only applies to the static workload")
        if self.burst_schedule:
            # Counts keep their type: WorkloadSpec refuses a non-int
            # count below rather than have it rounded here.
            object.__setattr__(
                self, "burst_schedule",
                tuple((float(t), c) for t, c in self.burst_schedule),
            )
        # An axis is range-checked by the object that owns it and nowhere
        # else: assembling the whole run once — config, delay model,
        # roster (player types), partitions, crash schedule, sub-specs —
        # surfaces a bad timeout / theta / window / loss rate here, at
        # construction time, with the owner's own message.  A continuous
        # workload also compiles a throwaway instance for the
        # duration-relative rules its constructor owns ("some burst must
        # fall before the duration").
        spec = self.build_run_spec(0)
        if spec.workload.continuous:
            spec.workload.build(spec.config)
        if spec.faults.crash_schedule is not None:
            for replica in spec.faults.crash_schedule.replicas():
                if not 0 <= replica < self.n:
                    raise ValueError(f"crash_spec names replica {replica} outside [0, n)")

    # ------------------------------------------------------------------
    # Roster resolution
    # ------------------------------------------------------------------
    def resolved_rational_ids(self) -> Tuple[int, ...]:
        if self.rational_ids:
            return tuple(sorted(self.rational_ids))
        return tuple(range(self.rational))

    def resolved_byzantine_ids(self) -> Tuple[int, ...]:
        if self.byzantine_ids:
            return tuple(sorted(self.byzantine_ids))
        taken = set(self.resolved_rational_ids())
        ids: List[int] = []
        candidate = 0
        while len(ids) < self.byzantine and candidate < self.n:
            if candidate not in taken:
                ids.append(candidate)
            candidate += 1
        return tuple(ids)

    def build_players(self) -> List[Player]:
        """Materialise the roster and wire up the attack strategies."""
        rationals = self.resolved_rational_ids()
        byzantines = set(self.resolved_byzantine_ids())
        theta_of: Dict[int, PlayerType] = {}
        for index, pid in enumerate(rationals):
            raw = self.thetas[index] if self.thetas else self.theta
            theta_of[pid] = PlayerType(raw)
        players: List[Player] = []
        for i in range(self.n):
            if i in theta_of:
                players.append(rational_player(i, theta_of[i]))
            elif i in byzantines:
                players.append(byzantine_player(i, HonestStrategy()))
            else:
                players.append(honest_player(i))
        if self.attack is not None:
            assign_strategies(
                players,
                self.build_collusion(players),
                self.attack,
                censored_tx_ids=list(self.censored_tx_ids) or None,
            )
        if self.gene is not None:
            from repro.search.space import StrategyGene

            compiled = StrategyGene.from_field(self.gene).compile(self.n, rationals)
            for pid, strategy in compiled.items():
                players[pid].strategy = strategy
        return players

    def build_collusion(self, players: Sequence[Player]) -> Collusion:
        return Collusion.of(players)

    # ------------------------------------------------------------------
    # Deployment pieces
    # ------------------------------------------------------------------
    def build_config(self) -> ProtocolConfig:
        common = dict(
            max_rounds=self.rounds,
            duration=self.duration,
            timeout=self.timeout,
            quorum=self.quorum,
            block_size=self.block_size,
            deposit=self.deposit,
            alpha=self.alpha,
        )
        if self.t0 is not None:
            return ProtocolConfig(n=self.n, t0=self.t0, **common)
        if self.tolerance == "bft" or self.protocol != "prft":
            return ProtocolConfig.for_bft(n=self.n, **common)
        return ProtocolConfig.for_prft(n=self.n, **common)

    def build_delay(self, seed: int = 0) -> DelayModel:
        if self.delay == "fixed":
            return FixedDelay(self.delta)
        if self.delay == "synchronous":
            return SynchronousDelay(delta=self.delta, seed=seed)
        if self.delay == "asynchronous":
            return AsynchronousDelay(base_delay=self.delta, seed=seed)
        if self.delay == "regional":
            assert self.regions is not None  # enforced in __post_init__
            return RegionalDelay(
                assignment=[i % self.regions for i in range(self.n)],
                delta=self.delta,
                spread=self.region_spread,
                jitter=self.region_jitter,
                seed=seed,
            )
        return PartialSynchronyDelay(gst=self.gst, delta=self.delta, seed=seed)

    def build_partitions(self, players: Sequence[Player]) -> Optional[PartitionSchedule]:
        if not self.partition_windows:
            return None
        if self.partition_groups:
            groups = [set(group) for group in self.partition_groups]
        else:
            collusion = self.build_collusion(players)
            groups = [collusion.split_a, collusion.split_b]
        schedule = PartitionSchedule()
        for start, end in self.partition_windows:
            schedule.add(Partition.of(*groups), start, end)
        return schedule

    def build_crash_schedule(self) -> Optional[CrashSchedule]:
        if not self.crash_spec:
            return None
        return CrashSchedule.from_spec(self.crash_spec)

    def _axis_specs(self) -> Dict[str, Any]:
        """The one fold of the flat axis fields into the frozen
        sub-specs that own them, keyed by :class:`RunSpec` field.
        Everything here is seed-independent; :meth:`build_run_spec`
        adds the seeded delay model, the partitions and the roster."""
        workload_field, axis = WORKLOAD_AXIS[self.workload]
        return dict(
            network=NetworkSpec(
                loss_rate=self.loss_rate,
                duplicate_rate=self.duplicate_rate,
                reorder_jitter=self.reorder_jitter,
            ),
            crypto=CryptoSpec(
                backend=self.crypto_backend,
                cache_size=self.crypto_cache_size,
                aggregate_certs=self.aggregate_certs,
            ),
            workload=WorkloadSpec(
                kind=self.workload, **{workload_field: getattr(self, axis)}
            ),
            production=ProductionSpec(
                pipeline_depth=self.pipeline_depth,
                max_block_txs=self.max_block_txs,
                coalesce_window=self.coalesce_window,
            ),
            retention=RetentionSpec(
                trace_window=self.trace_window,
                commit_window=self.commit_window,
                submission_window=self.submission_window,
                ledger_window=self.ledger_window,
                backlog_resolution=self.backlog_resolution,
                trace_traffic=self.trace_traffic,
            ),
        )

    def build_run_spec(self, seed: int = 0) -> RunSpec:
        """The whole :class:`RunSpec` this scenario executes for ``seed``."""
        players = self.build_players()
        specs = self._axis_specs()
        specs["network"] = specs["network"].replace(
            delay_model=self.build_delay(seed=seed),
            partitions=self.build_partitions(players),
        )
        return RunSpec(
            factory=PROTOCOL_FACTORIES[self.protocol],
            players=tuple(players),
            config=self.build_config(),
            faults=FaultSpec(crash_schedule=self.build_crash_schedule()),
            seed=f"{self.name}/{seed}",
            max_time=self.effective_max_time(),
            max_events=self.max_events,
            **specs,
        )

    def effective_max_time(self) -> float:
        # Continuous runs stop opening slots at `duration`; the bound
        # only needs to cover the in-flight slot (plus retransmission
        # timeouts), not the configured max_time — without the cap, a
        # straggler replica that entered one extra slot would tick its
        # view-change timer all the way to max_time.
        if self.duration is not None:
            return min(self.max_time, self.duration + 8 * self.timeout)
        # Partial synchrony needs headroom past GST for quorums to form.
        if self.delay == "partial":
            return self.max_time + self.gst * 5
        return self.max_time

    # ------------------------------------------------------------------
    # Execution and sweeping
    # ------------------------------------------------------------------
    def run(self, seed: int = 0) -> RunResult:
        """Run this scenario once, deterministically for the seed.

        With ``check_invariants`` set, the trace oracle runs post-hoc
        over the finished execution and its report is attached as
        ``result.oracle`` (violations are *reported*, never raised —
        the fuzzer and CI decide what a violation means).
        """
        result = run(self.build_run_spec(seed))
        if self.check_invariants:
            result.oracle = run_oracle(result, scenario=self, seed=seed)
        # Opt-in warehouse mirror (REPRO_WAREHOUSE): flatten and store
        # the finished run.  Lazy import — the hook is a no-op for the
        # overwhelmingly common un-opted-in case, and sweep/fuzz
        # workers suppress it because they persist the full
        # params-carrying record themselves.
        from repro.experiments.warehouse import maybe_persist_result

        maybe_persist_result(self, seed, result)
        return result

    def with_params(self, **overrides: Any) -> "Scenario":
        """A copy with the named fields replaced (sweep-axis hook)."""
        unknown = set(overrides).difference(self.__dataclass_fields__)
        if unknown:
            raise KeyError(
                f"unknown scenario field(s) {sorted(unknown)}; "
                f"valid axes: {sorted(self.__dataclass_fields__)}"
            )
        coerced = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in overrides.items()
        }
        return dataclasses.replace(self, **coerced)

    # ------------------------------------------------------------------
    # JSON projection (fuzzer repro artifacts, catalog-entry exchange)
    # ------------------------------------------------------------------
    def to_dict(self, include_defaults: bool = False) -> Dict[str, Any]:
        """A plain-JSON projection; non-default fields only by default,
        so emitted entries read like the catalog's own definitions."""
        data: Dict[str, Any] = {}
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if not include_defaults and spec.name != "name" and value == spec.default:
                continue
            data[spec.name] = _jsonable(value)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output (lists are
        coerced back to the tuples the frozen dataclass carries)."""
        valid = {spec.name for spec in dataclasses.fields(cls)}
        unknown = set(data) - valid
        if unknown:
            raise KeyError(
                f"unknown scenario field(s) {sorted(unknown)}; valid: {sorted(valid)}"
            )
        return cls(**{key: _tupleize(value) for key, value in data.items()})


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


def _tupleize(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_tupleize(item) for item in value)
    return value


# ----------------------------------------------------------------------
# The catalog
# ----------------------------------------------------------------------
_CATALOG: Dict[str, Scenario] = {}

ScenarioFactory = Callable[[], Scenario]


def register(scenario: Scenario) -> Scenario:
    """Register a ready-made scenario under its own name."""
    if scenario.name in _CATALOG:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _CATALOG[scenario.name] = scenario
    return scenario


def register_scenario(factory: ScenarioFactory) -> ScenarioFactory:
    """Decorator: call ``factory`` once and register its scenario.

    The factory's docstring becomes the description when the scenario
    does not set one itself.
    """
    scenario = factory()
    if not scenario.description and factory.__doc__:
        scenario = dataclasses.replace(
            scenario, description=" ".join(factory.__doc__.split())
        )
    register(scenario)
    return factory


def scenario_catalog() -> Dict[str, Scenario]:
    """Name → scenario for every registered scenario (insertion order)."""
    return dict(_CATALOG)


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return _CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(_CATALOG)) or "<none>"
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None


# ----------------------------------------------------------------------
# Built-in scenarios: the honest baseline and the three attacks...
# ----------------------------------------------------------------------
@register_scenario
def honest() -> Scenario:
    """All players honest under synchrony: the sigma_0 baseline."""
    return Scenario(name="honest", n=9, rounds=3)


@register_scenario
def fork() -> Scenario:
    """K ∪ T equivocates (pi_ds) to split the honest players (Thm 3)."""
    return Scenario(
        name="fork", n=9, rounds=4, rational=2, byzantine=1,
        theta=int(PlayerType.FORK_SEEKING), attack="fork",
    )


@register_scenario
def liveness() -> Scenario:
    """theta=3 collusion abstains (pi_abs) to stall progress (Thm 1)."""
    return Scenario(
        name="liveness", n=9, rounds=3, rational=3, byzantine=1,
        theta=int(PlayerType.LIVENESS_ATTACKING), attack="liveness",
        timeout=10.0, max_time=300.0,
    )


@register_scenario
def censorship() -> Scenario:
    """theta=2 collusion suppresses tx-0 while leading (pi_pc, Thm 2)."""
    return Scenario(
        name="censorship", n=9, rounds=6, rational=3, byzantine=1,
        theta=int(PlayerType.CENSORSHIP_SEEKING), attack="censorship",
        censored_tx_ids=("tx-0",),
    )


# ----------------------------------------------------------------------
# ...and their variations: pinned rosters, partitions, synchrony models.
# ----------------------------------------------------------------------
@register_scenario
def mixed_collusion() -> Scenario:
    """Collusion of mixed types theta=1,2,3 forking together; security
    is judged against the worst member (Section 4.1.1)."""
    return Scenario(
        name="mixed-collusion", n=9, rounds=4, rational=3, byzantine=1,
        thetas=(
            int(PlayerType.FORK_SEEKING),
            int(PlayerType.CENSORSHIP_SEEKING),
            int(PlayerType.LIVENESS_ATTACKING),
        ),
        attack="fork",
    )


@register_scenario
def partition_fork() -> Scenario:
    """Fork attack while the adversary partitions the honest victims
    into two halves for 40 time units (Claim 1 / Thm 3 construction)."""
    return Scenario(
        name="partition-fork", n=9, rounds=1, byzantine_ids=(0, 1, 2),
        attack="fork", t0=2, timeout=50.0,
        partition_windows=((0.0, 40.0),), max_time=45.0,
    )


@register_scenario
def claim1_abstention() -> Scenario:
    """Claim 1, upper violation: with tau above n - t0, t0 abstaining
    byzantine players deny liveness."""
    return Scenario(
        name="claim1-abstention", n=9, rounds=2, byzantine_ids=(7, 8),
        attack="liveness", t0=2, timeout=10.0, max_time=200.0,
    )


@register_scenario
def lone_abstainer() -> Scenario:
    """A single rational theta=1 player running pi_abs (Lemma 4's
    deviation sweep)."""
    return Scenario(
        name="lone-abstainer", n=9, rounds=3, rational_ids=(5,),
        theta=int(PlayerType.FORK_SEEKING), attack="liveness", max_time=500.0,
    )


@register_scenario
def lone_equivocator() -> Scenario:
    """A single rational theta=1 player running pi_ds; pRFT captures
    and burns it (Lemma 4)."""
    return Scenario(
        name="lone-equivocator", n=9, rounds=3, rational_ids=(5,),
        theta=int(PlayerType.FORK_SEEKING), attack="fork", max_time=500.0,
    )


@register_scenario
def thm5_collusion() -> Scenario:
    """Theorem 5's full fork collusion at the paper's bounds
    (n=13, k=4, t=2 <= t0)."""
    return Scenario(
        name="thm5-collusion", n=13, rounds=4,
        rational_ids=(0, 1, 2, 3), byzantine_ids=(4, 5),
        attack="fork", max_time=800.0,
    )


@register_scenario
def gst_sweep() -> Scenario:
    """Honest execution under partial synchrony; sweep gst to chart
    liveness recovery after the network stabilises."""
    return Scenario(
        name="gst-sweep", n=5, rounds=2, delay="partial", gst=30.0,
        timeout=15.0, max_time=1_000.0,
    )


@register_scenario
def async_honest() -> Scenario:
    """Honest players under heavy-tailed asynchronous delays."""
    return Scenario(
        name="async-honest", n=5, rounds=2, delay="asynchronous",
        timeout=30.0, max_time=3_000.0,
    )


@register_scenario
def protocol_matrix() -> Scenario:
    """Honest baseline meant for cross-protocol grids, e.g.
    --grid protocol=prft,pbft,hotstuff,polygraph,trap n=4,8,16."""
    return Scenario(name="protocol-matrix", n=5, rounds=2, tolerance="bft")


@register_scenario
def regional_honest() -> Scenario:
    """Honest committee spread over three regions with a seeded
    inter-region latency matrix (the geo-distributed deployment shape);
    the timeout clears the worst regional round trip."""
    return Scenario(
        name="regional-honest", n=9, rounds=3, delay="regional",
        regions=3, region_spread=4.0, region_jitter=0.25,
        timeout=30.0, max_time=600.0,
    )


# ----------------------------------------------------------------------
# Adversarial-network scenarios: the link-layer fault pipeline and the
# crash/recovery lifecycle (Polygraph's faulty-link evaluation, the BAR
# model's crash class).  All of them are meant to be swept, e.g.
# --grid loss_rate=0,0.05,0.1,0.2 seeds=20.
# ----------------------------------------------------------------------
@register_scenario
def lossy_honest() -> Scenario:
    """All players honest over a lossy link (10% drops): agreement and
    liveness must survive via the timeout retransmission paths."""
    return Scenario(
        name="lossy-honest", n=9, rounds=3, loss_rate=0.1,
        timeout=10.0, max_time=600.0,
    )


@register_scenario
def lossy_prft_fork() -> Scenario:
    """The fork collusion attacking over a lossy link: accountability
    must still capture the double-signers even when some of the
    conflicting signatures are dropped in flight."""
    return Scenario(
        name="lossy-prft-fork", n=9, rounds=4, rational=2, byzantine=1,
        theta=int(PlayerType.FORK_SEEKING), attack="fork",
        loss_rate=0.05, timeout=10.0, max_time=800.0,
    )


@register_scenario
def crash_leader() -> Scenario:
    """The round-1 leader crashes before its turn: the survivors must
    view-change past the silent round and commit; the leader recovers
    later, replays its persisted prefix and catches back up."""
    return Scenario(
        name="crash-leader", n=9, rounds=3, crash_spec=((1, 0.5, 60.0),),
        timeout=10.0, max_time=400.0,
    )


@register_scenario
def churn_liveness() -> Scenario:
    """Rolling crash/recovery churn (one replica down at a time): the
    committee keeps committing, and recovered replicas replay their
    persisted prefix and catch back up to the head."""
    return Scenario(
        name="churn-liveness", n=9, rounds=4,
        crash_spec=((3, 2.0, 16.0), (4, 18.0, 60.0)),
        timeout=12.0, max_time=600.0,
    )


@register_scenario
def duplicate_storm() -> Scenario:
    """Every other message duplicated and jittered out of order:
    handlers must be idempotent and order-insensitive."""
    return Scenario(
        name="duplicate-storm", n=7, rounds=3,
        duplicate_rate=0.5, reorder_jitter=0.5,
        timeout=15.0, max_time=400.0,
    )


# ----------------------------------------------------------------------
# Continuous-workload scenarios: client traffic as an arrival process
# and a duration-driven multi-slot ledger (the pBFT/HotStuff evaluation
# framing — blocks/sec and commit latency under sustained load).  All
# of them attach a ThroughputReport and are meant to be swept, e.g.
# --grid arrival_rate=0.25,0.5,1,2 seeds=10.
# ----------------------------------------------------------------------
@register_scenario
def poisson_honest() -> Scenario:
    """Open-loop Poisson client traffic on an honest committee: the
    blocks/sec, commit-latency and mempool-backlog baseline."""
    return Scenario(
        name="poisson-honest", n=7, workload="poisson", arrival_rate=0.8,
        duration=120.0, timeout=10.0, max_time=400.0,
    )


@register_scenario
def closed_loop_prft() -> Scenario:
    """A closed-loop client holding eight transactions in flight:
    service-rate-limited throughput (backlog can never exceed the
    window), measuring how fast pRFT turns the window over."""
    return Scenario(
        name="closed-loop-prft", n=7, workload="closed", outstanding=8,
        duration=100.0, timeout=10.0, max_time=400.0,
    )


@register_scenario
def burst_under_loss() -> Scenario:
    """Two client bursts over a 10%-loss link: the backlog must drain
    through the retransmission paths, then the run quiesces."""
    return Scenario(
        name="burst-under-loss", n=7, workload="burst",
        burst_schedule=((5.0, 12), (40.0, 12)), loss_rate=0.1,
        duration=90.0, timeout=10.0, max_time=400.0,
    )


@register_scenario
def poisson_crash_churn() -> Scenario:
    """Poisson traffic while a replica crashes and recovers mid-run:
    the committee keeps absorbing arrivals, and the recovered replica
    catches back up without stalling throughput."""
    return Scenario(
        name="poisson-crash-churn", n=9, workload="poisson",
        arrival_rate=0.6, crash_spec=((3, 10.0, 40.0),),
        duration=120.0, timeout=10.0, max_time=400.0,
    )
