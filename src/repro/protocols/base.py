"""Protocol-agnostic replica skeleton.

Every protocol (pRFT, pBFT, HotStuff, Polygraph, TRAP) subclasses
:class:`BaseReplica`, which wires a :class:`~repro.agents.player.Player`
to the simulation context, funnels *all* outgoing traffic through the
player's strategy — the single choke point where abstention,
equivocation and censorship can occur — and owns the slot lifecycle the
paper evaluates all five protocols on: round-robin leaders, one timer
per slot, a window of speculatively open slots, and the sequence that
lands a decided block on the chain.
"""

from __future__ import annotations

import functools
import math
import typing
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Container, Dict, Iterable, List, Optional
from typing import Set, Tuple, Type, Union

from repro.agents.player import Player
from repro.agents.strategies import MessageFactory
from repro.core.messages import Justification, SignedStatement, WireMessage, verify_statement
from repro.core.pof import FraudDetector, FraudProof
from repro.crypto.keys import KeyPair
from repro.crypto.registry import KeyRegistry
from repro.ledger.block import Block
from repro.ledger.chain import Chain
from repro.ledger.collateral import CollateralRegistry
from repro.ledger.mempool import Mempool
from repro.ledger.transaction import Transaction
from repro.ledger.validation import ADVERSARIAL_MARKER_PREFIX
from repro.net.envelope import Envelope
from repro.net.network import Network
from repro.protocols.lifecycle import ReplicaStatus
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import CommitLog
from repro.sim.timers import TimerService


def check_declared_types(instance: Any, owner: str) -> None:
    """Refuse any field whose value is not its declared scalar type.

    The one type validator of every typed spec (``Scenario``, the
    ``RunSpec`` sub-specs, :class:`ProtocolConfig`): a field declared
    ``int``, ``float``, ``str``, ``bool`` or ``Optional`` of one admits
    exactly that.  An int is fine where a float is declared; a bool is
    an int only where ``bool`` is declared.  Tuple- and object-valued
    fields are left to their owners.
    """
    for name, (accepted, declared) in _scalar_fields(type(instance)).items():
        value = getattr(instance, name)
        if not isinstance(value, accepted) or (
            isinstance(value, bool) and bool not in accepted
        ):
            raise ValueError(
                f"{owner}: {name} must be {declared}, "
                f"got {type(value).__name__} {value!r}"
            )


@functools.lru_cache(maxsize=None)
def _scalar_fields(cls: type) -> Dict[str, Tuple[Tuple[type, ...], str]]:
    """Field → (classes admitted, how to name them) for ``cls``'s scalar fields."""
    checked = {}
    for name, hint in typing.get_type_hints(cls).items():
        members = typing.get_args(hint) if typing.get_origin(hint) is Union else (hint,)
        scalars = [member for member in members if member is not type(None)]
        if len(scalars) == 1 and scalars[0] in (int, float, str, bool):
            accepted = members + ((int,) if scalars[0] is float else ())
            declared = scalars[0].__name__ + (" or None" if len(members) > 1 else "")
            checked[name] = (accepted, declared)
    return checked


@dataclass(frozen=True)
class ProtocolConfig:
    """Deployment-wide protocol parameters.

    Attributes:
        n: number of players.
        t0: the protocol's byzantine-tolerance parameter (pRFT's
            analysis uses t0 = ⌈n/4⌉ − 1; Claim 1 experiments vary it).
        quorum: agreement threshold τ; defaults to n − t0, the value
            pRFT uses.  Claim 1's experiments sweep τ outside the
            admissible window [⌊(n+t0)/2⌋+1, n−t0].
        timeout: the local waiting time Δ before view change.
        max_rounds: rounds after which replicas stop initiating work
            (legacy fixed-slot mode; ignored while ``duration`` is set).
        duration: when set, switches the deployment to the continuous
            multi-slot mode: replicas keep opening slots fed by their
            mempools until this much virtual time has elapsed — or, for
            a finite workload, until the arrival process is exhausted
            and the backlog drains (quiesce).  ``None`` (the default)
            keeps the legacy stop-after-``max_rounds`` semantics.
        block_size: max transactions per proposed block.
        deposit: the collateral L per player.
        alpha: the payoff scale α of Table 2.
        discount: the δ of Equation 1.
        view_change_evidence: whether ViewChange messages carry the
            sender's held statements (pBFT-style certificates).  On by
            default; the ``ablation`` claim row switches it off to show
            that stalled fork attempts then escape attribution.
    """

    n: int
    t0: int
    quorum: Optional[int] = None
    timeout: float = 30.0
    max_rounds: int = 3
    duration: Optional[float] = None
    block_size: int = 4
    deposit: float = 10.0
    alpha: float = 1.0
    discount: float = 0.9
    view_change_evidence: bool = True

    def __post_init__(self) -> None:
        check_declared_types(self, "ProtocolConfig")
        if self.n < 1:
            raise ValueError("need at least one player")
        if not 0 <= self.t0 < self.n:
            raise ValueError("t0 must lie in [0, n)")
        if self.quorum is not None and not 1 <= self.quorum <= self.n:
            raise ValueError("quorum must lie in [1, n]")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration must be positive when set")
        if self.deposit < 0:
            raise ValueError("deposit must be non-negative")

    @property
    def quorum_size(self) -> int:
        """τ: defaults to n − t0 (the paper's threshold)."""
        return self.quorum if self.quorum is not None else self.n - self.t0

    @property
    def admissible_quorum_window(self) -> range:
        """Claim 1's necessary window [⌊(n+t0)/2⌋ + 1, n − t0]."""
        low = math.floor((self.n + self.t0) / 2) + 1
        high = self.n - self.t0
        return range(low, high + 1)

    @classmethod
    def for_prft(cls, n: int, **overrides: Any) -> "ProtocolConfig":
        """pRFT's setting: t0 = ⌈n/4⌉ − 1 (threat model M, Section 6)."""
        t0 = max(0, math.ceil(n / 4) - 1)
        return cls(n=n, t0=t0, **overrides)

    @classmethod
    def for_bft(cls, n: int, **overrides: Any) -> "ProtocolConfig":
        """Classic partially-synchronous BFT: t0 = ⌈n/3⌉ − 1."""
        t0 = max(0, math.ceil(n / 3) - 1)
        return cls(n=n, t0=t0, **overrides)


@dataclass
class ProtocolContext:
    """Everything a replica shares with the rest of the deployment.

    ``commit_log`` collects first-finalisation times (restricted to the
    honest roster by the deployment) for throughput metrics and
    closed-loop clients; ``workload`` is the installed client arrival
    process, consulted by the continuous round loop's quiesce rule
    (``None`` outside a :class:`~repro.protocols.runner.Deployment`,
    e.g. in unit tests that assemble contexts by hand).
    """

    engine: SimulationEngine
    network: Network
    timers: TimerService
    registry: KeyRegistry
    collateral: CollateralRegistry
    # Block-production axis (ProductionSpec): slot pipelining depth,
    # per-block transaction cap and client-side coalescing.
    production: Any
    # Bounded-memory axis (RetentionSpec): trace/commit/ledger windows
    # for soak-length runs; every window ``None`` keeps every structure
    # unbounded.
    retention: Any
    # The quorum-certs fold (checks.invariants.QuorumAudit): see _tally.
    audit: Any
    commit_log: CommitLog = field(default_factory=CommitLog)
    workload: Optional[Any] = None
    # Wire-format axis: quorum justifications travel as AggregateQC
    # bitmaps instead of full statement sets (CryptoSpec.aggregate_certs).
    aggregate_certs: bool = False

    @property
    def trace(self):
        return self.network.trace

    @property
    def now(self) -> float:
        return self.engine.now


@dataclass
class SlotState:
    """What the slot lifecycle itself tracks for one round.

    Every protocol counts quorums in the one ``tally`` and records what
    it signed itself in ``signed``; what else a protocol tracks extends
    this class and is named in :attr:`BaseReplica.ROUND_STATE`.
    """

    number: int
    blocks: Dict[str, Block] = field(default_factory=dict)
    timeouts: int = 0
    #: set by :meth:`BaseReplica._commit_decided`; pRFT, whose decided
    #: block is first tentative, tracks ``tentative_digest`` instead.
    decided_digest: Optional[str] = None
    finalized: bool = False
    advanced: bool = False
    #: phase -> digest -> signer -> the statement received from that
    #: signer, or None where a phase only needs to know *who* signed
    #: (nothing later quotes the statements, so they are not retained).
    tally: Dict[str, Dict[str, Dict[int, Optional[SignedStatement]]]] = field(
        default_factory=dict
    )
    #: phase -> the digests this replica signed in that phase.
    signed: Dict[str, set[str]] = field(default_factory=dict)


class BaseReplica(ABC):
    """One player's protocol state machine.

    The base class provides signing, verification, strategy-mediated
    broadcast, chain/mempool state, trace helpers and the whole slot
    lifecycle (open → timer → advance, the speculative slot window,
    crash recovery, the chain-landing tail).  A protocol supplies its
    round-state dataclass (:attr:`ROUND_STATE`) and its own pieces:
    :meth:`_propose` (what a leader sends when a slot opens),
    :meth:`handle_payload` (message type → handler), :meth:`_on_timeout`
    (its reaction to a slot's timer), :meth:`_retransmit_round` and
    :meth:`_offer_catch_up` (what it resends on a faulty link, to
    everyone and to one laggard), and optionally
    :meth:`_on_late_payload` (what it still does with traffic for a
    round it has left).
    """

    #: Cap on the retransmission backoff exponent: repeat timeouts on an
    #: unreliable network wait timeout · 2^min(k−1, cap) before the next
    #: resend, so duplicate storms stop amplifying but a long-crashed
    #: peer still gets periodic service.
    BACKOFF_MAX_DOUBLINGS = 5

    #: The protocol's per-round state: a :class:`SlotState` subclass.
    ROUND_STATE: ClassVar[Type[SlotState]] = SlotState

    def __init__(self, player: Player, config: ProtocolConfig, ctx: ProtocolContext) -> None:
        self.player = player
        self.config = config
        self.ctx = ctx
        self.chain = Chain()
        self.mempool = Mempool(history_limit=ctx.retention.commit_window)
        #: (requester, round) -> virtual time of the last catch-up offer,
        #: so duplicated or storm-replayed requests inside half a timeout
        #: are answered once instead of once per copy.
        self._catch_up_offers: Dict[Tuple[int, int], float] = {}
        self.keypair: KeyPair = ctx.registry.keypair_of(player.player_id)
        self.halted = False
        self.status = ReplicaStatus.UP
        # The commit frontier.  Journalled on entry (cheap, one integer)
        # so a recovering replica re-enters the round it crashed in.
        self.current_round = 0
        self._started = False
        self._init_volatile_state()
        self._reset_pipeline_state()
        ctx.network.register(player.player_id, self._on_envelope)

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    @property
    def player_id(self) -> int:
        return self.player.player_id

    @property
    def strategy(self):
        return self.player.strategy

    def leader_of_round(self, round_number: int) -> int:
        """Round-robin leader: l = r mod n (the paper's 1 + (r mod n),
        zero-indexed)."""
        return round_number % self.config.n

    def round_limit_reached(self, round_number: int) -> bool:
        """Whether this replica should stop initiating slots.

        Legacy mode (``config.duration`` unset): stop after
        ``max_rounds`` fixed slots — the paper-experiment framing.
        Continuous mode: keep opening mempool-fed slots until the
        configured duration of virtual time elapses, or — when the
        installed workload reports its arrival process exhausted and
        this replica's own backlog has drained — quiesce early.
        """
        if self.config.duration is None:
            return round_number >= self.config.max_rounds
        if self.ctx.now >= self.config.duration:
            return True
        workload = self.ctx.workload
        return (
            workload is not None
            and workload.finished(self.ctx.now)
            and len(self.mempool) == 0
        )

    def current_leader(self) -> int:
        """The current round's leader (used by censorship strategies)."""
        return self.leader_of_round(self.current_round)

    # ------------------------------------------------------------------
    # Slot lifecycle: open → timer → advance
    # ------------------------------------------------------------------
    def _init_volatile_state(self) -> None:
        """In-memory round state: lost on a crash, rebuilt on recovery."""
        self._rounds: Dict[int, SlotState] = {}
        #: round -> (sender, payload) traffic beyond the dispatch horizon.
        self._future: Dict[int, List[Tuple[int, Any]]] = {}

    def round_state(self, round_number: int) -> Any:
        """The round's state, created on first touch."""
        state = self._rounds.get(round_number)
        if state is None:
            state = self._rounds[round_number] = self.ROUND_STATE(number=round_number)
        return state

    def start(self) -> None:
        """Begin the protocol (round 0)."""
        if self._started:
            return
        self._started = True
        self._start_round(0)

    def _start_round(self, round_number: int) -> None:
        """Move the commit frontier to ``round_number``."""
        if self.halted:
            return
        if self.round_limit_reached(round_number):
            self._trace_slot("halt", round=round_number)
            self.halt()
            return
        # A slot the pipeline already opened speculatively just becomes
        # the new frontier: timer armed, proposal out, backlog drained.
        already_open = self.current_round < round_number <= self._highest_open
        self.current_round = round_number
        self._highest_open = max(self._highest_open, round_number)
        self._prune_pipeline_state()
        if not already_open:
            self._open_pipelined_round(round_number)
        elif self.round_state(round_number).finalized:
            # The slot already finalized out of order while speculative;
            # its timer is gone, so fast-forward the frontier past it.
            self._advance(round_number)
            return
        self._maybe_extend_window()

    def _open_pipelined_round(self, round_number: int) -> None:
        """Open one slot of the window: the frontier itself (from
        :meth:`_start_round`) or, at ``pipeline_depth`` > 1, a slot ahead
        of it (from :meth:`_maybe_extend_window`)."""
        self.round_state(round_number)
        self._trace_slot(
            "round_start", round=round_number, leader=self.leader_of_round(round_number)
        )
        self._arm_round_timer(round_number)
        if self.leader_of_round(round_number) == self.player_id:
            self._propose(round_number)
        for sender, payload in self._future.pop(round_number, []):
            self.handle_payload(sender, payload)

    def _arm_round_timer(self, round_number: int) -> None:
        # Re-arms after repeat timeouts back off exponentially (see
        # retry_delay); the first arm is the plain timeout.  The callback
        # is looked up on the instance when the timer fires.
        self.set_timer(
            f"round-{round_number}",
            self._round_timer_delay(round_number),
            lambda: self._on_timeout(round_number),
        )

    def _advance(self, round_number: int) -> None:
        """Leave the frontier round (decided or abandoned) for the next."""
        state = self.round_state(round_number)
        if state.advanced or self.current_round != round_number:
            return
        state.advanced = True
        self.cancel_timer(f"round-{round_number}")
        self._start_round(round_number + 1)

    def _trace_slot(self, kind: str, **detail: Any) -> None:
        """Narrate a slot-lifecycle step (``round_start``, ``timeout``,
        ``halt``, ``view_change_sent``).  Silent here: only pRFT records these events, and the
        trace is read downstream (the message-complexity checker and the
        near-miss score count ``timeout``), so the baselines' pinned
        runs depend on staying silent."""

    def _dispatch(self, sender: int, payload: Any) -> None:
        """The body of every ``handle_payload``: route the payload to its
        slot, then to the handler the protocol's ``_HANDLERS`` names for
        its type.  (Each concrete class keeps a ``handle_payload`` of its
        own because the host-time benchmark wraps that name per class.)"""
        if self._accept(sender, payload):
            handler = self._HANDLERS.get(type(payload))
            if handler is not None:
                getattr(self, handler)(sender, payload)

    def _accept(self, sender: int, payload: Any) -> bool:
        """Slot routing that opens every dispatch.

        True when the payload belongs to an open slot and should be
        dispatched now.  Traffic beyond the dispatch horizon is buffered
        until its slot opens; traffic for a round the frontier has left
        goes to :meth:`_on_late_payload`.
        """
        round_number = getattr(payload, "round_number", None)
        if round_number is None:
            return False
        if round_number > self.dispatch_horizon():
            self._future.setdefault(round_number, []).append((sender, payload))
            return False
        if round_number < self.current_round:
            self._on_late_payload(sender, payload)
            return False
        return True

    def _on_late_payload(self, sender: int, payload: Any) -> None:
        """Traffic for a past round, or any traffic after halting.

        Protocol actions for it have ceased, but accountability and the
        availability of decided blocks outlive the round (Section 5.3.1
        lets any Proof-of-Fraud burn collateral via a future
        transaction): protocols override this to keep absorbing evidence
        and to serve catch-up.  Default: drop.
        """

    # ------------------------------------------------------------------
    # Leader block assembly and the chain-landing tail
    # ------------------------------------------------------------------
    def _build_block(self, round_number: int) -> Block:
        """The block this replica proposes when it leads ``round_number``."""
        # Transactions inside acked-but-unfinalised window blocks are
        # spoken for: a speculative slot must not re-propose them.
        candidates = self.mempool.select(
            self.block_tx_limit(), censor=self._inflight_tx_ids()
        )
        return Block(
            round_number=round_number,
            proposer=self.player_id,
            parent_digest=self.expected_parent_digest(round_number),
            transactions=tuple(self.strategy.select_transactions(self, candidates)),
        )

    def _conflicting_block(self, block: Block, marker_payload: str = "") -> Block:
        """An equivocating leader's alternative to ``block``: same slot,
        same parent, the adversarial marker transaction in front."""
        marker = Transaction(
            tx_id=f"{ADVERSARIAL_MARKER_PREFIX}r{block.round_number}-p{self.player_id}",
            payload=marker_payload,
        )
        keep = max(0, self.block_tx_limit() - 1)
        return Block(
            round_number=block.round_number,
            proposer=self.player_id,
            parent_digest=block.parent_digest,
            transactions=(marker,) + block.transactions[:keep],
        )

    def _land_final(self, state: Any, block: Block, kind: str = "final") -> None:
        """Finalize ``block`` (already appended to the chain) for its round."""
        state.finalized = True
        self.chain.finalize(block.digest)
        self.mempool.mark_included(block.tx_ids)
        self.ctx.collateral.note_block_mined()
        self.note_block_finalized(block)
        self.trace(kind, round=state.number, digest=block.digest[:12])

    def _commit_decided(self, state: Any, digest: str) -> None:
        """A quorum decided ``digest`` for the round: land it and move on.

        The block must link onto the chain head.  Inside the pipeline
        window slot r+1 can gather its quorum before slot r does; such
        an out-of-order commit is parked until the predecessor lands.
        """
        block = state.blocks.get(digest)
        if block is None or state.finalized:
            return
        if block.parent_digest != self.chain.head().digest:
            if state.number > self.current_round:
                self._defer_finalize(
                    state.number, lambda: self._commit_decided(state, digest)
                )
            return
        state.decided_digest = digest
        self.chain.append_tentative(block)
        self._land_final(state, block)
        self._advance(state.number)
        self._flush_deferred_finalizes()

    # ------------------------------------------------------------------
    # Pipelined block production (ProductionSpec)
    # ------------------------------------------------------------------
    # The commit frontier stays ``current_round``; pipelining opens a
    # *window* of consecutive slots [current_round, _highest_open].  A
    # slot may open speculatively — chained-HotStuff style — as soon as
    # the previous slot's proposal is quorum-acknowledged, before it
    # finalises.  Depth 1 (the default) degenerates to the strictly
    # sequential legacy loop: the window is always one slot wide, no
    # speculative state ever exists and every code path below is a
    # no-op, which is what keeps the golden records byte-identical.

    def _reset_pipeline_state(self) -> None:
        """(Re)initialise the slot-window bookkeeping.

        Called at construction and after crash recovery: speculation is
        volatile, so a recovered replica rejoins with the window
        collapsed onto its journalled frontier.
        """
        #: highest slot opened so far (>= current_round once rounds run).
        self._highest_open: int = self.current_round
        #: round -> quorum-acknowledged block, for slots that acked but
        #: have not finalised yet; the speculative parent chain.
        self._acked_blocks: Dict[int, Any] = {}
        #: round -> finalize retries parked until the parent lands.
        self._deferred_commits: Dict[int, List[Callable[[], None]]] = {}
        self._flushing_deferred = False

    def block_tx_limit(self) -> int:
        """Per-block transaction cap: ProductionSpec override or the
        legacy ``config.block_size``."""
        return self.ctx.production.block_tx_limit(self.config)

    def dispatch_horizon(self) -> int:
        """Highest round whose traffic dispatches immediately.

        Messages beyond the horizon stay in the ``_future`` buffer;
        rounds inside the open window are live even though they are
        ahead of the commit frontier.
        """
        return max(self.current_round, self._highest_open)

    def expected_parent_digest(self, round_number: int) -> str:
        """The parent a proposal for ``round_number`` should extend.

        At the frontier that is the chain head; a speculative slot
        chains onto the previous slot's quorum-acknowledged block.
        Falls back to the chain head when no ack is recorded (e.g. a
        replica that missed the ack but received the proposal) — the
        finalize path re-checks linkage anyway.
        """
        if round_number > self.current_round:
            prior = self._acked_blocks.get(round_number - 1)
            if prior is not None:
                return prior.digest
        return self.chain.head().digest

    def _inflight_tx_ids(self) -> set:
        """Transactions inside acked-but-unfinalised window blocks.

        A leader building a speculative block must not re-select them —
        ``mark_included`` only runs at finalisation, which the window
        slots have not reached yet.
        """
        inflight: set = set()
        for number, block in self._acked_blocks.items():
            if number >= self.current_round:
                inflight.update(block.tx_ids)
        return inflight

    def _note_proposal_acked(self, round_number: int, block: Any) -> None:
        """Record that ``round_number``'s proposal is quorum-acked.

        Every protocol calls this at its ack point (vote quorum for
        pRFT, prepare quorum for pBFT/Polygraph/TRAP, the first QC for
        HotStuff); it feeds the speculative parent chain and may extend
        the open window.  At depth 1 this only records local state —
        it schedules nothing and sends nothing.
        """
        self._acked_blocks[round_number] = block
        self._maybe_extend_window()

    def _maybe_extend_window(self) -> None:
        """Open the next slot(s) while the pipeline has headroom.

        A slot opens when the window is narrower than
        ``pipeline_depth`` and the highest open slot's proposal is
        already acked.  Opening never touches ``current_round``:
        :meth:`_open_pipelined_round` arms the new slot's timer, lets
        this replica propose if it leads the slot, and drains any
        buffered traffic for it.
        """
        if self.halted or self.status is not ReplicaStatus.UP:
            return
        while (
            self._highest_open - self.current_round + 1
            < self.ctx.production.pipeline_depth
            and self._highest_open in self._acked_blocks
        ):
            nxt = self._highest_open + 1
            if self.round_limit_reached(nxt):
                return
            self._highest_open = nxt
            self._open_pipelined_round(nxt)

    def _defer_finalize(self, round_number: int, retry: Callable[[], None]) -> None:
        """Park a finalize whose parent has not landed on the chain yet.

        Out-of-order commits inside the window are expected: slot r+1
        can gather its commit quorum before slot r's does.  The retry
        runs (in round order) every time an earlier slot finalises.
        """
        self._deferred_commits.setdefault(round_number, []).append(retry)
        self.trace("finalize_deferred", round=round_number)

    def _flush_deferred_finalizes(self) -> None:
        """Re-attempt parked finalizes now that the chain head moved.

        Runs rounds in ascending order so a chain of deferred slots
        cascades in one pass; a retry that still cannot link simply
        re-parks itself.  Reentrancy-guarded — a successful retry's own
        finalize path calls back into this method.
        """
        if self._flushing_deferred:
            return
        self._flushing_deferred = True
        try:
            while self._deferred_commits:
                number = min(self._deferred_commits)
                retries = self._deferred_commits.pop(number)
                before = self.chain.head().digest
                for retry in retries:
                    retry()
                if self.chain.head().digest == before:
                    # No progress: the missing parent is still missing.
                    return
        finally:
            self._flushing_deferred = False

    def _prune_pipeline_state(self) -> None:
        """Drop window bookkeeping the frontier has moved past."""
        for number in [n for n in self._acked_blocks if n < self.current_round]:
            del self._acked_blocks[number]

    # ------------------------------------------------------------------
    # Crypto helpers
    # ------------------------------------------------------------------
    def _valid(self, statement: SignedStatement, sender: int, phase: str) -> bool:
        """Recv-boundary validation: right phase, right signer, valid sig."""
        return (
            statement.phase == phase
            and statement.signer == sender
            and verify_statement(self.ctx.registry, statement)
        )

    # ------------------------------------------------------------------
    # Retained quorum evidence: the one write path, each write audited
    # ------------------------------------------------------------------
    def _tally(
        self, state: SlotState, phase: str, digest: str, sender: int,
        statement: Optional[SignedStatement],
    ) -> Dict[int, Optional[SignedStatement]]:
        """Count ``sender`` in the round's (phase, digest) quorum, keeping
        ``statement`` (None: who signed is all it needs) for ``ctx.audit``."""
        voters = state.tally.setdefault(phase, {}).setdefault(digest, {})
        voters[sender] = statement
        if statement is not None:
            self.ctx.audit.statement(
                self.player_id, state.number, phase, digest, sender, statement
            )
        return voters

    def _keep_view_change(self, state: Any, sender: int, statement: SignedStatement) -> Dict:
        """Keep ``sender``'s vote to abandon the round; returns its votes."""
        state.view_changes[sender] = statement
        self.ctx.audit.statement(self.player_id, state.number, None, None, sender, statement)
        return state.view_changes

    def _keep_certificate(self, state: Any, slot: str, certificate: Any) -> None:
        """Keep a quorum certificate as the round state's ``slot``."""
        setattr(state, slot, certificate)
        if certificate.aggregate is not None:
            self.ctx.audit.aggregate(self.player_id, state.number, slot, certificate.aggregate)

    # ------------------------------------------------------------------
    # Strategy-mediated I/O
    # ------------------------------------------------------------------
    def participates(self, phase: str) -> bool:
        return self.strategy.participates(self, phase)

    def broadcast(
        self, message: WireMessage, alternative_factory: Optional[MessageFactory] = None
    ) -> int:
        """One logical broadcast, shaped by the player's strategy.

        The strategy decides, per recipient, whether to send the
        prescribed message, a conflicting alternative, several, or
        nothing.  Returns the number of envelopes sent.
        """
        if self.halted or self.status is not ReplicaStatus.UP:
            return 0
        if not self.participates(message.phase):
            return 0
        recipients = list(self.ctx.network.participants())
        plan = self.strategy.plan_broadcast(self, message, alternative_factory, recipients)
        return self._send_plan(plan, message)

    def _send_plan(self, plan: Dict[int, Any], message: WireMessage) -> int:
        """Hand the network ``plan`` (recipient → a payload, several, or
        None) as one fan-out.

        The prescribed ``message`` describes the traffic — its wire
        type, size and round are read off it once — and an equivocating
        alternative travels under the same description.
        """
        return self.ctx.network.broadcast(
            self.player_id, plan, message.wire_type, message.size_bytes, message.round_number
        )

    def send_direct(self, recipient: int, message: WireMessage) -> int:
        """One strategy-mediated point-to-point send.

        Catch-up retransmissions route through here.  Unlike
        :meth:`broadcast` this is allowed while *halted* — halted
        replicas may still serve decided state, since accountability
        and the availability of finalized blocks outlive the
        configured rounds — but never while crashed or recovering.
        The owning player's strategy keeps its choke point: an
        abstaining or equivocating strategy shapes (or withholds) the
        resend exactly as it would a broadcast, so deviators gain no
        implicit duty of honest catch-up service.
        """
        if self.status is not ReplicaStatus.UP:
            return 0
        if not self.participates(message.phase):
            return 0
        return self._send_plan(
            self.strategy.plan_broadcast(self, message, None, [recipient]), message
        )

    def _on_envelope(self, envelope: Envelope) -> None:
        if self.status is ReplicaStatus.CRASHED:
            # A crashed replica has no running state machine: inbound
            # traffic is lost, and the metrics account it as such.
            self.ctx.network.note_undeliverable(envelope, reason="crashed")
            return
        if self.halted:
            # Protocol actions have ceased; the metrics count the
            # delivery as dropped, but accountability never stops
            # (_on_late_payload keeps absorbing evidence).
            self.ctx.network.note_undeliverable(envelope, reason="halted")
            self._on_late_payload(envelope.sender, envelope.payload)
            return
        self.handle_payload(envelope.sender, envelope.payload)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(self, name: str, delay: float, callback: Callable[[], None]) -> None:
        self.ctx.timers.set_timer(self.player_id, name, delay, callback)

    def cancel_timer(self, name: str) -> None:
        self.ctx.timers.cancel(self.player_id, name)

    def retry_delay(self, prior_timeouts: int) -> float:
        """Exponential retransmission backoff with a cap.

        The first timeout of a round always fires after the configured
        ``timeout`` (so round pacing on a reliable network is untouched
        and golden records stay byte-identical); each further re-arm on
        an *unreliable* network doubles the wait, capped at
        ``2^BACKOFF_MAX_DOUBLINGS``.  Deterministic — no randomisation
        — so identical seeds yield identical retransmission schedules.
        """
        if prior_timeouts <= 1 or not self.ctx.network.unreliable:
            return self.config.timeout
        doublings = min(prior_timeouts - 1, self.BACKOFF_MAX_DOUBLINGS)
        return self.config.timeout * (2 ** doublings)

    def _round_timer_delay(self, round_number: int) -> float:
        """The delay for (re)arming ``round_number``'s timer, backed off
        by how many times the round has already timed out."""
        state = self._rounds.get(round_number)
        return self.retry_delay(state.timeouts if state is not None else 0)

    # ------------------------------------------------------------------
    # Trace helper
    # ------------------------------------------------------------------
    def trace(self, kind: str, **detail: Any) -> None:
        self.ctx.trace.record(self.ctx.now, kind, self.player_id, **detail)

    def _offer_catch_up_range(self, requester: int, round_number: int) -> None:
        """Serve every round from the requested one up to our head.

        Every protocol routes its catch-up requests through this range
        and answers one round in :meth:`_offer_catch_up`.  Under
        continuous load a recovered replica can lag many slots; if one
        view-change timeout only recovered one round, peers would keep
        minting new slots faster than the laggard closes the gap and it
        would never converge before cut-off — so a single request
        drains the whole decided backlog.  The current round is
        included: a halted server's last round is its current one, and
        serving an undecided round is a no-op.

        Per-(requester, round) suppression: duplicated request copies
        (link-layer duplication, retransmission storms) arriving within
        half a timeout of an already-served offer are ignored — the
        requester's own timer cadence re-requests no faster than once
        per timeout, so legitimate retries are always served.
        """
        now = self.ctx.now
        window = 0.5 * self.config.timeout
        offers = self._catch_up_offers
        if len(offers) > 8 * self.config.n:
            stale = [key for key, when in offers.items() if now - when >= window]
            for key in stale:
                del offers[key]
        for number in range(round_number, self.current_round + 1):
            key = (requester, number)
            last = offers.get(key)
            if last is not None and now - last < window:
                continue
            offers[key] = now
            self._offer_catch_up(requester, number)

    def note_block_finalized(self, block: Any) -> None:
        """Report a freshly finalized block to the shared commit log.

        Every protocol calls this from its finalize path; the log keeps
        first-observation times per transaction and digest (restricted
        to the honest roster) for throughput metrics and closed-loop
        clients.  Recording schedules no events.

        Under a retention ``ledger_window`` the replica also prunes
        transaction bodies out of final blocks deeper than the window —
        chain length, digests and parent links are untouched, so
        agreement-style analysis still works on a pruned chain.
        """
        self.ctx.commit_log.note(self.player_id, self.ctx.now, block)
        ledger_window = self.ctx.retention.ledger_window
        if ledger_window is not None:
            self.chain.prune_final_bodies(keep_last=ledger_window)
            self._prune_round_state(keep_last=ledger_window)

    def _prune_round_state(self, keep_last: int) -> None:
        """Drop per-round protocol state far behind the current round.

        Round states pin the heaviest per-round objects — the proposal
        block with its full transaction body plus every retained signed
        statement — so a soak run that never discards them grows
        O(total rounds).  Only called under a retention ``ledger_window``;
        the margin keeps every round the pipeline (or a straggler
        message inside the delay bound) can still touch.  Post-hoc
        quorum-certificate auditing only sees the surviving window on
        such runs — the same contract as the pruned ledger itself.
        """
        margin = max(keep_last, self.ctx.production.pipeline_depth + 1)
        cutoff = self.current_round - margin
        if cutoff <= 0:
            return
        for number in [r for r in self._rounds if r < cutoff]:
            del self._rounds[number]
        self._on_rounds_pruned(cutoff)

    def _on_rounds_pruned(self, cutoff: int) -> None:
        """Round state below ``cutoff`` was dropped; release whatever
        else is indexed by round."""

    def halt(self) -> None:
        """Stop all activity (end of configured rounds)."""
        self.halted = True
        self.ctx.timers.cancel_all(self.player_id)

    # ------------------------------------------------------------------
    # Crash/recovery lifecycle (see repro.protocols.lifecycle)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Take this replica down: timers die, inbound traffic drops.

        Persisted state (the finalized chain prefix, keys, collected
        fraud evidence) survives; everything else is volatile and will
        be discarded on recovery.  Crashing a halted replica is a
        no-op — it is already inert.
        """
        if self.halted or self.status is ReplicaStatus.CRASHED:
            return
        self.status = ReplicaStatus.CRASHED
        self.ctx.timers.cancel_all(self.player_id)
        self.trace("crash")

    def recover(self) -> None:
        """Bring a crashed replica back up.

        Replays the persisted chain prefix (tentative blocks were
        volatile and are rolled back to the last finalized block),
        hands the protocol its ``on_recover`` hook to rebuild volatile
        round state and re-enter the current round, then returns to UP.
        """
        if self.halted or self.status is not ReplicaStatus.CRASHED:
            return
        self.status = ReplicaStatus.RECOVERING
        dropped = self.chain.rollback_tentative()
        self.trace(
            "recover",
            replayed_blocks=len(self.chain.final_blocks()),
            rolled_back=len(dropped),
        )
        self.on_recover()
        self.status = ReplicaStatus.UP

    def on_recover(self) -> None:
        """Rebuild volatile state and re-enter the journalled round.

        Finalized round states are kept — their outcome is just a view
        of the persisted chain, and serving catch-up needs them;
        everything in-flight is discarded, so the replica rejoins with
        a clean slate and relies on peers' retransmissions — it does
        NOT re-propose, which would look like equivocation.
        """
        keep = {
            number: state for number, state in self._rounds.items() if state.finalized
        }
        self._init_volatile_state()
        self._rounds.update(keep)
        # Speculation is volatile: rejoin with the slot window collapsed
        # onto the journalled frontier and re-grow it from live traffic.
        self._reset_pipeline_state()
        if self.round_limit_reached(self.current_round):
            self.halt()
            return
        self.trace("rejoin", round=self.current_round)
        self._arm_round_timer(self.current_round)

    # ------------------------------------------------------------------
    # Abstract protocol hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _propose(self, round_number: int) -> None:
        """Broadcast this replica's proposal for a slot it leads."""

    #: Message class -> name of the method that handles it.
    _HANDLERS: ClassVar[Dict[type, str]]

    @abstractmethod
    def handle_payload(self, sender: int, payload: Any) -> None:
        """Process one delivered protocol message (:meth:`_dispatch`)."""

    @abstractmethod
    def _on_timeout(self, round_number: int) -> None:
        """React to ``round_number``'s timer firing."""

    @abstractmethod
    def _offer_catch_up(self, requester: int, round_number: int) -> None:
        """Resend this replica's record of one past round to a laggard
        (see :meth:`_offer_catch_up_range`)."""

    @abstractmethod
    def _retransmit_round(self, state: Any) -> None:
        """Re-broadcast the round's already-emitted messages (first
        timeout on a faulty link)."""

    def submit_transactions(self, transactions: Iterable[Any]) -> None:
        """Client entry point: feed transactions into this replica."""
        self.mempool.submit_all(transactions)


class AccountableMixin:
    """Proof-of-Fraud accountability for a replica (pRFT, Polygraph, TRAP).

    Every received statement and every quorum a message quotes feeds one
    :class:`~repro.core.pof.FraudDetector`; a freshly proven
    double-signer is punished once.  Detector and burn log are persisted
    across crashes — written through on receipt — because Section 5.3.1
    lets any Proof-of-Fraud burn collateral later, so evidence must
    survive an outage.  Mix in *before* the replica base class.
    """

    #: Prefix of the collateral registry's burn reason.
    BURN_REASON: ClassVar[str]
    #: Phases whose statements are scanned for double signs (None: all).
    FRAUD_PHASES: ClassVar[Optional[Container[str]]] = None

    def __init__(self, player: Player, config: ProtocolConfig, ctx: ProtocolContext) -> None:
        super().__init__(player, config, ctx)
        self.detector = FraudDetector(registry=ctx.registry)
        self.reported_guilty: Set[int] = set()

    def _absorb(self, statement: SignedStatement) -> None:
        if self.FRAUD_PHASES is not None and statement.phase not in self.FRAUD_PHASES:
            return
        proof = self.detector.absorb(statement)
        if proof is not None:
            self._punish(proof)

    def _absorb_justification(
        self, justification: Union[Justification, Iterable[SignedStatement]]
    ) -> None:
        """Absorb a quorum justification (either shape) or view-change
        evidence.  The detector verifies what it has not indexed yet —
        a forged member or bitmap frames nobody — and skips what it
        has, so re-absorbing a circulating certificate is O(1)."""
        for proof in self.detector.absorb_justification(justification, self.FRAUD_PHASES):
            self._punish(proof)

    def _absorb_late(self, payload: Any, carried: Tuple[str, ...] = ("justification",)) -> None:
        """Accountability outlives the round and the run: a late
        message's statement, and the ``carried`` bundles it has, are
        still evidence."""
        statement = getattr(payload, "statement", None)
        if isinstance(statement, SignedStatement):
            self._absorb(statement)
        for name in carried:
            bundle = getattr(payload, name, None)
            if bundle:
                self._absorb_justification(bundle)

    def _punish(self, proof: FraudProof) -> None:
        """Burn a freshly proven double-signer's collateral.

        The strategy gate models suppression: a colluder that
        constructs a proof against its own collusion keeps quiet.  Any
        honest replica burns, and burning is idempotent, so one honest
        observer suffices (Definition 6's "eventually all honest").
        """
        accused = proof.accused
        if accused in self.reported_guilty:
            return
        if not self.strategy.report_fraud(self, {accused}):
            return
        self.reported_guilty.add(accused)
        fresh = self.ctx.collateral.burn(
            accused, reason=f"{self.BURN_REASON}-round-{proof.round_number}"
        )
        self.trace(
            "burn", accused=accused, round=proof.round_number, **self._burn_detail(proof, fresh)
        )

    def _burn_detail(self, proof: FraudProof, fresh: bool) -> Dict[str, Any]:
        """What the ``burn`` trace event says beyond (accused, round)."""
        return {}

    def _on_rounds_pruned(self, cutoff: int) -> None:
        self.detector.prune_below(cutoff)
