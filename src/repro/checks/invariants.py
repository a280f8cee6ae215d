"""The invariant-checker library.

Each checker guards one trace-level property the paper proves (or
assumes) and reports :class:`Violation` objects when a finished run
breaks it.  Checkers are small, independent and protocol-agnostic:
they read honest chains, the trace, the collateral registry and the
fraud proofs honest replicas hold — the same public artifacts the
analysis layer uses — plus the quorum evidence a replica stores, judged
as it is stored (:class:`QuorumAudit`).

A checker is *unconditional* (the property must hold on every run,
whatever the adversary does — e.g. no honest player is ever burned) or
*conditional* on an expectation (`safety`/`liveness`): agreement is
only guaranteed while the deviator counts stay inside the protocol's
RFT(t, k) envelope, so the oracle skips the checker — it does not
report a violation — outside it.  :mod:`repro.checks.oracle` owns that
applicability logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.accountability import AccountabilityReport, judge_accountability
from repro.analysis.robustness import RobustnessReport, check_robustness
from repro.core.messages import SignedStatement, verify_statement
from repro.crypto.aggregate import AggregateQC
from repro.gametheory.empirical import (
    TRACE_KINDS,
    per_round_utilities,
    round_horizon,
    round_states,
)
from repro.gametheory.payoff import payoff
from repro.ledger.chain import ConfirmationStatus
from repro.protocols.runner import RunResult

#: checker name → the paper result it guards (rendered by docs/CLI).
CHECKER_PAPER_REFS: Dict[str, str] = {
    "agreement": "(t,k)-agreement, Def. 1 / Thm 5",
    "prefix-consistency": "c-strict ordering, Def. 1",
    "chain-integrity": "ledger well-formedness, Sec. 3.1",
    "validity": "(t,k)-validity / external validity, Def. 1",
    "liveness": "(t,k)-eventual liveness, Def. 1 / Thm 5",
    "no-honest-pof": "accountability soundness (honest side), Def. 6",
    "accountability": "burn exactly for provable fraud, Def. 6 / Sec. 5.3.1",
    "collateral": "deposit conservation, Sec. 5.3.1",
    "crash-recovery": "persisted-prefix monotonicity (BAR crash class)",
    "quorum-certs": "quorum-certificate well-formedness, Fig. 2b",
    "message-complexity": "O(n^2) per-round message envelope, Fig. 3",
    "utility-consistency": "Eq. 1 utility vs realised payoff, Sec. 4.1",
}


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough detail to debug the run."""

    checker: str
    message: str
    detail: Tuple[Tuple[str, Any], ...] = ()

    def detail_dict(self) -> Dict[str, Any]:
        return dict(self.detail)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if not self.detail:
            return f"[{self.checker}] {self.message}"
        extras = ", ".join(f"{key}={value}" for key, value in self.detail)
        return f"[{self.checker}] {self.message} ({extras})"


def _violation(checker: str, message: str, **detail: Any) -> Violation:
    return Violation(checker=checker, message=message, detail=tuple(sorted(detail.items())))


@dataclass
class OracleContext:
    """Everything a checker may look at for one finished run, judged
    once per pass: :attr:`robustness` (Definition 1) and
    :attr:`accountability` (Definition 6), computed on first use."""

    result: RunResult
    scenario: Optional[Any] = None
    seed: Optional[int] = None

    @property
    def censored_tx_ids(self) -> Optional[List[str]]:
        censored = list(getattr(self.scenario, "censored_tx_ids", ()) or ())
        return censored or None

    @cached_property
    def robustness(self) -> RobustnessReport:
        # A pipelined run cut off mid-window can leave one replica up to
        # pipeline_depth final blocks ahead of a laggard still flushing
        # deferred commits: the run-end slack widens to the depth.
        slack = max(1, int(getattr(self.scenario, "pipeline_depth", 1) or 1))
        return check_robustness(
            self.result, censored_tx_ids=self.censored_tx_ids, liveness_slack=slack
        )

    @cached_property
    def accountability(self) -> AccountabilityReport:
        return judge_accountability(self.result)


class InvariantChecker:
    """Base checker: a name, a condition tag and a ``check`` hook.

    ``condition`` is ``None`` for unconditional invariants, or the
    expectation (``"safety"``/``"liveness"``) that must hold for the
    checker to apply; the oracle skips inapplicable checkers rather
    than reporting vacuous violations.

    Retention awareness: a checker that replays trace events declares
    the kinds it reads in ``trace_kinds``; one that audits the full
    run history (every submission, every committed body) sets
    ``needs_full_history``.  When a retention-bounded run evicted what
    a checker declared, the oracle *refuses* — records a skip with the
    reason — instead of letting the checker pass vacuously on the
    surviving window.
    """

    name: str = "invariant"
    condition: Optional[str] = None
    #: trace-event kinds this checker replays; if retention dropped any
    #: events of these kinds, the checker cannot audit the run.
    trace_kinds: Tuple[str, ...] = ()
    #: set when the checker needs the complete submission/commit/body
    #: history, not just the retained window.
    needs_full_history: bool = False

    def check(self, ctx: OracleContext) -> List[Violation]:  # pragma: no cover - interface
        raise NotImplementedError


# ----------------------------------------------------------------------
# Safety-conditional checkers
# ----------------------------------------------------------------------
class AgreementChecker(InvariantChecker):
    """(t,k)-agreement: no two honest players confirm different blocks
    at the same height (Definition 1; guaranteed inside the RFT(t, k)
    envelope by Theorem 5)."""

    name = "agreement"
    condition = "safety"

    def check(self, ctx: OracleContext) -> List[Violation]:
        if ctx.robustness.agreement:
            return []
        return [_violation(
            self.name,
            "honest players confirmed conflicting blocks",
            fork_heights=tuple(ctx.robustness.fork_heights),
        )]


class PrefixConsistencyChecker(InvariantChecker):
    """c-strict ordering at c=0: every honest final ledger is a prefix
    of every longer one (Definition 1)."""

    name = "prefix-consistency"
    condition = "safety"

    def check(self, ctx: OracleContext) -> List[Violation]:
        if ctx.robustness.strict_ordering:
            return []
        return [_violation(self.name, "honest final ledgers are not prefixes of one another")]


class LivenessChecker(InvariantChecker):
    """(t,k)-eventual liveness plus progress: the run confirmed at
    least one block and no honest player is more than one block behind
    at cut-off (Definition 1, with the run-end slack the robustness
    checker documents).  Censorship resistance is folded in when the
    scenario names censored transactions but runs no censoring attack."""

    name = "liveness"
    condition = "liveness"

    @staticmethod
    def _progress_expected(scenario: Any) -> bool:
        """Progress (≥1 block in ``rounds`` rounds) is only promised on
        an undisturbed network: any abort path (lossy links, crashes,
        partitions, pre-GST adversarial delays, jitter that can push a
        delivery past the phase timeout) can legitimately view-change
        away every configured round — Definition 1's *eventual*
        liveness puts no deadline inside a bounded run."""
        delta = float(getattr(scenario, "delta", 0.0))
        jitter = float(getattr(scenario, "reorder_jitter", 0.0))
        timeout = float(getattr(scenario, "timeout", float("inf")))
        return (
            float(getattr(scenario, "loss_rate", 0.0)) == 0.0
            and not (getattr(scenario, "crash_spec", ()) or ())
            and not (getattr(scenario, "partition_windows", ()) or ())
            and getattr(scenario, "delay", "fixed") in ("fixed", "synchronous")
            and delta + jitter < timeout
        )

    def check(self, ctx: OracleContext) -> List[Violation]:
        verdict = ctx.robustness
        violations: List[Violation] = []
        progress_expected = self._progress_expected(ctx.scenario)
        if (
            getattr(ctx.scenario, "duration", None) is not None
            and not ctx.result.submitted_tx_ids
        ):
            # A continuous run whose arrival process produced nothing
            # (e.g. a Poisson draw whose first gap exceeds the
            # duration) quiesces at round 0 by design: zero blocks is
            # the correct outcome, not a liveness failure.
            progress_expected = False
        if not verdict.progressed and progress_expected:
            violations.append(_violation(self.name, "no block was ever finalised"))
        if not verdict.eventual_liveness:
            violations.append(_violation(
                self.name,
                "honest final heights diverge beyond the run-end slack",
                max_height=verdict.max_final_height,
                min_height=verdict.min_final_height,
            ))
        if (
            verdict.censorship_resistance is False
            and progress_expected  # confirmation is a progress property
            and not getattr(ctx.scenario, "attack", None)
        ):
            violations.append(_violation(
                self.name, "a transaction submitted to all honest players never confirmed"
            ))
        return violations


# ----------------------------------------------------------------------
# Unconditional checkers
# ----------------------------------------------------------------------
class ChainIntegrityChecker(InvariantChecker):
    """Each honest ledger is internally well-formed: blocks link by
    parent digest from genesis, and the finalised prefix is contiguous
    (no final block above a tentative one — finalisation finalises the
    whole prefix, Section 3.1)."""

    name = "chain-integrity"

    def check(self, ctx: OracleContext) -> List[Violation]:
        violations: List[Violation] = []
        for pid, chain in ctx.result.honest_chains().items():
            blocks = chain.blocks(include_genesis=True)
            for height in range(1, len(blocks)):
                if blocks[height].parent_digest != blocks[height - 1].digest:
                    violations.append(_violation(
                        self.name, "broken parent link", player=pid, height=height,
                    ))
            seen_tentative = False
            for height in range(len(blocks)):
                status = chain.status_at(height)
                if status is ConfirmationStatus.TENTATIVE:
                    seen_tentative = True
                elif seen_tentative:
                    violations.append(_violation(
                        self.name, "final block above a tentative one",
                        player=pid, height=height,
                    ))
        return violations


class ValidityChecker(InvariantChecker):
    """External validity: every transaction confirmed on an honest
    ledger was actually submitted by a client (Definition 1's validity
    clause — no fabricated content; fork markers exempt)."""

    name = "validity"
    # Compares every confirmed body against the complete submission
    # set: a trimmed submission list or pruned block bodies would make
    # the comparison vacuous (or worse, falsely violated).
    needs_full_history = True

    def check(self, ctx: OracleContext) -> List[Violation]:
        return [
            _violation(self.name, "confirmed transaction was never submitted",
                       player=pid, tx_id=tx_id)
            for pid, tx_id in ctx.robustness.unsubmitted
        ]


class NoHonestPofChecker(InvariantChecker):
    """Accountability soundness, honest side: no honest player is ever
    burned, and no verifying Proof-of-Fraud accuses one (Definition 6:
    V(π) never outputs an honest player — honest players never
    double-sign and signatures are unforgeable)."""

    name = "no-honest-pof"

    def check(self, ctx: OracleContext) -> List[Violation]:
        report = ctx.accountability
        violations: List[Violation] = []
        framed = sorted(report.burned & report.honest_ids)
        if framed:
            violations.append(_violation(
                self.name, "honest players had collateral burned", players=tuple(framed),
            ))
        # Empty under a forgeable backend: its tags prove nothing.
        framed = sorted(report.provably_guilty & report.honest_ids)
        if framed:
            violations.append(_violation(
                self.name, "a verifying Proof-of-Fraud accuses honest players",
                players=tuple(framed),
            ))
        return violations


class AccountabilityChecker(InvariantChecker):
    """Collateral is burned exactly for provable fraud (Section 5.3.1):
    every burned replica is named by a Proof-of-Fraud that verifies
    against the trusted setup and actually deviated (π_ds ground
    truth).  Burns under a forgeable backend are violations outright —
    a proof nobody-but-the-accused could have produced is the *only*
    thing that justifies a burn, and ``fast-sim`` tags prove nothing."""

    name = "accountability"

    def check(self, ctx: OracleContext) -> List[Violation]:
        burned = ctx.result.penalised_players()
        if not burned:
            return []
        registry = ctx.result.ctx.registry
        if not registry.backend.unforgeable:
            return [_violation(
                self.name,
                "collateral burned under a forgeable crypto backend: no binding proof can exist",
                backend=registry.backend.name, players=tuple(sorted(burned)),
            )]
        report = ctx.accountability
        violations: List[Violation] = []
        unproven = sorted(burned - report.provably_guilty)
        if unproven:
            violations.append(_violation(
                self.name, "burned players lack a verifying Proof-of-Fraud",
                players=tuple(unproven),
            ))
        framed = sorted(burned - report.ground_truth_deviators)
        if framed:
            violations.append(_violation(
                self.name, "burned players never actually double-signed",
                players=tuple(framed),
            ))
        return violations


class CollateralConservationChecker(InvariantChecker):
    """Deposit conservation: every player enrolled exactly once, each
    balance + penalty equals the deposit L, and the penalised set is
    exactly the burned set (the L·D term of the round utility reads
    from here, so drift corrupts every payoff downstream)."""

    name = "collateral"

    def check(self, ctx: OracleContext) -> List[Violation]:
        collateral = ctx.result.ctx.collateral
        player_ids = sorted(player.player_id for player in ctx.result.players)
        violations: List[Violation] = []
        if collateral.enrolled() != player_ids:
            violations.append(_violation(
                self.name, "enrolled set does not match the roster",
                enrolled=tuple(collateral.enrolled()),
            ))
            return violations
        burned = collateral.burned_players()
        for pid in player_ids:
            balance = collateral.balance_of(pid)
            penalty = collateral.penalty_of(pid)
            if balance + penalty != collateral.deposit:
                violations.append(_violation(
                    self.name, "balance + penalty does not equal the deposit",
                    player=pid, balance=balance, penalty=penalty,
                ))
            if (penalty > 0) != (pid in burned):
                violations.append(_violation(
                    self.name, "penalty and burn status disagree", player=pid,
                ))
        return violations


class CrashRecoveryChecker(InvariantChecker):
    """Crash/recovery monotonicity: per replica, crash and recover
    trace events alternate, the replayed persisted prefix never
    shrinks across recoveries, and the final ledger is at least as
    long as the last replayed prefix (recovery replays — it never
    invents or loses — finalised state)."""

    name = "crash-recovery"
    # Replays the full crash/recover alternation; a ring-evicted crash
    # event would make a recover look spontaneous (false violation) or
    # hide a real double-crash (false pass).
    trace_kinds = ("crash", "recover")

    def check(self, ctx: OracleContext) -> List[Violation]:
        violations: List[Violation] = []
        down: Dict[int, bool] = {}
        last_replayed: Dict[int, int] = {}
        for event in ctx.result.trace.events(self.trace_kinds):
            if event.player is None:
                continue
            pid = event.player
            if event.kind == "crash":
                if down.get(pid):
                    violations.append(_violation(
                        self.name, "replica crashed twice without recovering",
                        player=pid, time=event.time,
                    ))
                down[pid] = True
                continue
            if not down.get(pid):
                violations.append(_violation(
                    self.name, "replica recovered without a preceding crash",
                    player=pid, time=event.time,
                ))
            down[pid] = False
            replayed = int(event.detail.get("replayed_blocks", 0))
            if replayed < last_replayed.get(pid, 0):
                violations.append(_violation(
                    self.name, "persisted prefix shrank across recoveries",
                    player=pid, replayed=replayed, previous=last_replayed[pid],
                ))
            last_replayed[pid] = max(last_replayed.get(pid, 0), replayed)
        for pid, replayed in last_replayed.items():
            final_height = len(ctx.result.replicas[pid].chain.final_blocks())
            if final_height < replayed:
                violations.append(_violation(
                    self.name, "final ledger shorter than the last replayed prefix",
                    player=pid, final=final_height, replayed=replayed,
                ))
        return violations


class QuorumCertificateChecker(InvariantChecker):
    """Quorum-certificate well-formedness over every statement and
    aggregate an honest replica stored, judged as it was stored by the
    deployment's :class:`QuorumAudit`: each statement is keyed by its
    real signer, pinned to its round, phase and digest, and verifies
    (Figure 2b's binding of phase+round into every signed statement) —
    every slot's ``tally``, HotStuff's leader-collected votes included,
    and the view-changing protocols' votes to abandon a round, which
    must not mix phases; a kept :class:`AggregateQC` (``aggregate_certs``)
    must verify and pin its round."""

    name = "quorum-certs"

    def check(self, ctx: OracleContext) -> List[Violation]:
        honest = set(ctx.result.honest_ids)
        findings = sorted(ctx.result.ctx.audit.findings, key=lambda finding: finding[0])
        return [violation for holder, violation in findings if holder in honest]


class QuorumAudit:
    """The ``quorum-certs`` fold, one per deployment (``ctx.audit``):
    the replicas' write path (``BaseReplica._tally``, ``_keep_*``) hands
    it every statement and aggregate they keep, judged once as it is
    stored (re-inserts, state a crash loses and rounds retention prunes
    included).  Under a forgeable backend nothing is judged."""

    def __init__(self, registry: Any) -> None:
        self.registry = registry
        self.judged = registry.backend.unforgeable
        #: (holder, violation), in the order the evidence was stored.
        self.findings: List[Tuple[int, Violation]] = []
        #: (holder, round) -> the phase of its first view-change vote;
        #: None once a second phase was reported.
        self._view_change_phase: Dict[Tuple[int, int], Optional[str]] = {}

    def statement(
        self, holder: int, round_number: int, phase: Optional[str], digest: Optional[str],
        signer: int, statement: SignedStatement,
    ) -> None:
        """``holder`` keyed ``statement`` by ``signer`` in the round's
        (phase, digest) map; None, None: a view-change vote, round-pinned only."""
        if not self.judged:
            return
        if not (
            statement.signature.signer == signer
            and phase in (None, statement.phase)
            and digest in (None, statement.digest)
            and statement.round_number == round_number
            and verify_statement(self.registry, statement)
        ):
            self._find(
                holder, "retained quorum statement is malformed or unverifiable",
                slot=phase or "view-change", round=round_number, signer=signer,
            )
        if phase is None:
            key = (holder, round_number)
            first = self._view_change_phase.setdefault(key, statement.phase)
            if first is not None and first != statement.phase:
                self._view_change_phase[key] = None
                self._find(
                    holder, "mixed phases inside one quorum map",
                    slot="view-change", round=round_number,
                )

    def aggregate(self, holder: int, round_number: int, slot: str, aggregate: AggregateQC) -> None:
        """``holder`` kept a certificate carrying ``aggregate`` as ``slot``."""
        if self.judged and not (
            aggregate.signer_count >= 1
            and aggregate.round_number == round_number
            and self.registry.verify_aggregate(aggregate)
        ):
            self._find(
                holder, "retained aggregate certificate is malformed or unverifiable",
                slot=slot, round=round_number,
            )

    def _find(self, holder: int, message: str, **detail: Any) -> None:
        violation = _violation(QuorumCertificateChecker.name, message, holder=holder, **detail)
        self.findings.append((holder, violation))


class MessageComplexityChecker(InvariantChecker):
    """Figure 3's complexity envelope: every protocol in the catalog is
    quadratic per round, so no single round's traffic may escape a
    generous O(n²) cap — a fixed number of all-to-all exchanges, doubled
    when loss or timeouts legitimately trigger retransmission, plus the
    client submissions riding the same links.  A round outside the
    envelope signals a message storm: an amplification bug, or an
    adversary manufacturing traffic the analysis never priced in.
    Works off the per-round metrics aggregator, which is lifetime-exact
    and protocol-agnostic (view-changed and duration-driven rounds are
    all accounted under their own round number)."""

    name = "message-complexity"

    #: All-to-all exchanges allowed per round.  pRFT's
    #: propose/vote/commit/reveal/final/expose is the deepest pipeline
    #: in the catalog (6); 8 leaves slack for certificate shipping.
    _PHASES_CAP = 8

    def check(self, ctx: OracleContext) -> List[Violation]:
        result = ctx.result
        n = result.config.n
        cap = self._PHASES_CAP * n * n
        if (
            float(getattr(ctx.scenario, "loss_rate", 0.0) or 0.0) > 0.0
            or result.trace.count("timeout") > 0
        ):
            # Loss- and timeout-triggered retransmission re-counts
            # every resend; at the oracle's 0.25 loss ceiling the
            # expected inflation is ~1.33x, so 2x covers the tail.
            cap *= 2
        # Submissions are attributed to the round that carried them;
        # one roster broadcast per transaction, doubled for resends.
        cap += 2 * n * len(result.submitted_tx_ids)
        violations: List[Violation] = []
        for round_number, (count, _bytes) in sorted(result.metrics.round_totals().items()):
            if round_number < 0:
                # Traffic no round claims (pre-round handshakes) has no
                # per-round envelope; the submission term above bounds
                # the only unattributed class the simulator produces.
                continue
            if count > cap:
                violations.append(_violation(
                    self.name,
                    "a round's traffic escapes the quadratic envelope",
                    round=round_number, messages=count, cap=cap, n=n,
                ))
        return violations


class UtilityConsistencyChecker(InvariantChecker):
    """Equation 1 consistency: the utilities every RunRecord persists
    must agree with the run's ground truth.  Concretely (a) the set of
    players named by fresh ``burn`` trace events is exactly the
    collateral registry's penalised set, each charged exactly the
    deposit L, and (b) for every rational player the L·D penalty
    embedded in the per-round utility stream — the stream
    :func:`~repro.gametheory.empirical.empirical_utility` discounts
    into the record — equals that realised penalty, so the record, the
    search and the claim rows read from the same facts the simulator
    executed."""

    name = "utility-consistency"
    # Replays burn attribution and the per-round finality timeline: an
    # evicted burn or final event would silently shift Eq. 1's terms.
    trace_kinds = TRACE_KINDS

    #: The per-round stream audit costs rounds × rational players;
    #: above this many rounds (Eq. 1's horizon) only the burn/registry
    #: reconciliation (a) runs.
    _STREAM_AUDIT_MAX_ROUNDS = 256

    def check(self, ctx: OracleContext) -> List[Violation]:
        result = ctx.result
        violations: List[Violation] = []
        accused = {
            event.detail.get("accused")
            for event in result.trace.events("burn")
            if event.detail.get("fresh", True)
        }
        accused.discard(None)
        penalised = result.penalised_players()
        if accused != penalised:
            violations.append(_violation(
                self.name,
                "fresh burn events and the collateral registry name different players",
                burned_in_trace=tuple(sorted(accused)),
                penalised=tuple(sorted(penalised)),
            ))
        collateral = result.ctx.collateral
        deposit = result.config.deposit
        for pid in sorted(penalised):
            penalty = collateral.penalty_of(pid)
            if penalty != deposit:
                violations.append(_violation(
                    self.name,
                    "a burned player's penalty is not the deposit L",
                    player=pid, penalty=penalty, deposit=deposit,
                ))
        if round_horizon(result) > self._STREAM_AUDIT_MAX_ROUNDS:
            return violations
        censored = ctx.censored_tx_ids
        rational = [player for player in result.players if player.is_rational]
        if not rational:
            return violations
        # σ per round once, from the pass's one terminal judgement.
        terminal = ctx.robustness.state if censored is not None else None
        states = round_states(result, censored, terminal)
        for player in rational:
            pid = player.player_id
            stream = per_round_utilities(result, pid, player.theta, censored, terminal)
            base = sum(payoff(state, player.theta, result.config.alpha) for state in states)
            embedded = base - sum(stream)
            expected = float(deposit) if pid in accused else 0.0
            if abs(embedded - expected) > 1e-9:
                violations.append(_violation(
                    self.name,
                    "the utility stream's embedded penalty disagrees with the realised burn",
                    player=pid, embedded=embedded, expected=expected,
                ))
        return violations


def default_checkers() -> List[InvariantChecker]:
    """The full checker battery, in report order."""
    return [
        AgreementChecker(),
        PrefixConsistencyChecker(),
        ValidityChecker(),
        LivenessChecker(),
        ChainIntegrityChecker(),
        NoHonestPofChecker(),
        AccountabilityChecker(),
        CollateralConservationChecker(),
        CrashRecoveryChecker(),
        QuorumCertificateChecker(),
        MessageComplexityChecker(),
        UtilityConsistencyChecker(),
    ]
