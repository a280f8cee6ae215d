"""The trace oracle: applicability expectations + the checker runner.

The paper's guarantees are conditional: agreement and validity hold
while the deviator mix stays inside the protocol's RFT(t, k) envelope
(Theorems 4-5), liveness additionally needs a live quorum and a
network that eventually delivers.  The oracle therefore derives, from
the declarative scenario, which conditional checkers *apply* — outside
the envelope they are skipped with a recorded reason, never reported
as vacuous violations — while the unconditional checkers (no honest
player burned, burns backed by binding proofs, deposit conservation,
ledger integrity, crash-recovery monotonicity, certificate
well-formedness) run on every execution, adversarial or not.

The applicability rules are deliberately conservative: a skipped
checker costs coverage, a wrongly-applied one costs trust in every
report the oracle emits.  The fuzzer's "safe" generation profile draws
only configurations where both expectations hold, so every checker
applies to every generated run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.checks.invariants import (
    CHECKER_PAPER_REFS,
    InvariantChecker,
    OracleContext,
    Violation,
    default_checkers,
)
from repro.protocols.runner import RunResult

#: Only pRFT *prevents* forks beyond t0 total deviators: its reveal
#: phase rolls the tentative block back when more than t0 double-signers
#: surface, keeping agreement for t ≤ t0 byzantine plus k rational with
#: k + t below an honest majority (Theorem 5).  Polygraph and TRAP are
#: accountable — they identify and burn the forkers *after the fact* —
#: but a coalition beyond t0 that actually executes π_ds still splits
#: their honest players, exactly like pBFT/HotStuff; executed-run
#: safety for every non-pRFT protocol therefore needs k + t ≤ t0.
FORK_RESILIENT_PROTOCOLS = frozenset({"prft"})

#: Knob ceilings for the liveness expectation; above them the run may
#: legitimately be cut off mid-catch-up by its own time budget.
MAX_EXPECTED_LOSS_RATE = 0.25
CRASH_RECOVERY_HEADROOM = 0.5
PARTITION_HEAL_HEADROOM = 0.5


@dataclass(frozen=True)
class Expectations:
    """Which conditional guarantees the configuration promises."""

    safety: bool
    liveness: bool
    reasons: Tuple[str, ...] = ()

    def applies(self, condition: Optional[str]) -> bool:
        if condition is None:
            return True
        if condition == "safety":
            return self.safety
        if condition == "liveness":
            return self.liveness
        raise ValueError(f"unknown checker condition {condition!r}")


def _crash_windows(scenario: Any) -> List[Tuple[int, float, Optional[float]]]:
    windows = []
    for entry in getattr(scenario, "crash_spec", ()) or ():
        items = tuple(entry)
        replica, start = int(items[0]), float(items[1])
        end = float(items[2]) if len(items) > 2 and items[2] is not None else None
        windows.append((replica, start, end))
    return windows


def _max_concurrent_down(windows: Sequence[Tuple[int, float, Optional[float]]]) -> int:
    edges: List[Tuple[float, int]] = []
    for _, start, end in windows:
        edges.append((start, 1))
        if end is not None:
            edges.append((end, -1))
    down = peak = 0
    for _, delta in sorted(edges):
        down += delta
        peak = max(peak, down)
    return peak


def derive_expectations(result: RunResult, scenario: Optional[Any]) -> Expectations:
    """Map (scenario, realised roster) to the promised guarantees.

    Works from the run's realised roles (so explicit-id rosters are
    counted exactly) plus the scenario's declarative axes; with no
    scenario context only the unconditional checkers apply.
    """
    if scenario is None:
        return Expectations(safety=False, liveness=False,
                            reasons=("no scenario context: conditional checkers skipped",))
    reasons: List[str] = []
    config = result.config
    n = config.n
    byzantine = len(result.byzantine_ids)
    rational = len(result.rational_ids)
    protocol = getattr(scenario, "protocol", "prft")

    safety = True
    if not result.ctx.registry.backend.unforgeable:
        safety = False
        reasons.append("forgeable crypto backend: safety proofs do not bind")
    if config.quorum_size not in config.admissible_quorum_window:
        safety = False
        reasons.append(
            f"quorum {config.quorum_size} outside Claim 1's admissible window "
            f"[{config.admissible_quorum_window.start}, {config.admissible_quorum_window.stop - 1}]"
        )
    if byzantine > config.t0:
        safety = False
        reasons.append(f"byzantine count {byzantine} exceeds t0={config.t0}")
    if protocol in FORK_RESILIENT_PROTOCOLS:
        if rational + byzantine > (n - 1) // 2:
            safety = False
            reasons.append(
                f"coalition {rational + byzantine} breaks the honest majority of {n}"
            )
        elif rational + byzantine >= 2 * config.quorum_size - n:
            # Fork-resilience rests on quorum intersection: at the
            # admissible window's floor (Claim 1 trades safety margin
            # for liveness) a coalition that can cover the 2q - n
            # intersection finalises both sides before the rollback
            # machinery can intervene.  At the default quorum n - t0
            # this clause is implied by the honest-majority bound.
            safety = False
            reasons.append(
                f"coalition {rational + byzantine} covers the quorum intersection "
                f"of {2 * config.quorum_size - n} at quorum {config.quorum_size}"
            )
    elif rational + byzantine > config.t0:
        safety = False
        reasons.append(
            f"{protocol!r} does not roll forks back: it only tolerates "
            f"{config.t0} executed deviators, roster has {rational + byzantine}"
        )

    liveness = safety
    # The run's *actual* time budget: partial-synchrony scenarios run
    # until effective_max_time() = max_time + 5*gst, and the headroom
    # gates below must be judged against that, not the raw field.
    effective = getattr(scenario, "effective_max_time", None)
    if callable(effective):
        max_time = float(effective())
    else:
        max_time = float(getattr(scenario, "max_time", 0.0) or 0.0)
    # Continuous-workload runs stop opening slots at `duration`: a
    # disruption must clear with headroom inside *that* window for the
    # run to be expected live at cut-off, so the headroom gates below
    # are judged against the duration, not the engine bound — clamped
    # to the engine bound, which cuts the run first if it is smaller
    # (Scenario validates duration <= max_time, but the oracle also
    # serves hand-rolled scenario objects).
    duration = getattr(scenario, "duration", None)
    horizon = min(float(duration), max_time) if duration is not None else max_time
    if getattr(scenario, "attack", None) is not None:
        liveness = False
        reasons.append("an attack is configured: liveness is the attack's target")
    gene_field = getattr(scenario, "gene", None)
    if gene_field is not None:
        from repro.search.space import StrategyGene

        if StrategyGene.from_field(gene_field).active:
            liveness = False
            reasons.append(
                "a strategy gene deviates: liveness is the deviation's target"
            )
    if getattr(scenario, "delay", "fixed") == "asynchronous":
        liveness = False
        reasons.append("asynchronous delays are unbounded: no liveness deadline exists")
    # Fixed-slot runs need no GST gate: partial-synchrony scenarios
    # extend their budget to max_time + 5*gst (effective_max_time
    # above), so the run always has post-GST headroom.  Duration-driven
    # runs do NOT extend — replicas stop opening slots at `duration`
    # regardless of the engine bound — so GST must leave a stabilised
    # window inside the duration itself.
    if (
        duration is not None
        and getattr(scenario, "delay", "fixed") == "partial"
        and float(getattr(scenario, "gst", 0.0)) > horizon * PARTITION_HEAL_HEADROOM
    ):
        liveness = False
        reasons.append(
            "GST leaves no post-stabilisation headroom before the duration cut-off"
        )
    if float(getattr(scenario, "loss_rate", 0.0)) > MAX_EXPECTED_LOSS_RATE:
        liveness = False
        reasons.append(f"loss rate above {MAX_EXPECTED_LOSS_RATE}: retransmission may not converge in budget")
    if float(getattr(scenario, "timeout", 1.0)) <= float(getattr(scenario, "delta", 0.0)):
        liveness = False
        reasons.append("timeout does not clear the delay bound Δ")
    windows = _crash_windows(scenario)
    if windows:
        slack = n - config.quorum_size
        if any(end is None or end > horizon * CRASH_RECOVERY_HEADROOM for _, _, end in windows):
            liveness = False
            reasons.append("a crash window does not recover with headroom before cut-off")
        if _max_concurrent_down(windows) > slack:
            liveness = False
            reasons.append(f"concurrent crashes exceed the quorum slack of {slack}")
    partitions = getattr(scenario, "partition_windows", ()) or ()
    if any(float(end) > horizon * PARTITION_HEAL_HEADROOM for _, end in partitions):
        liveness = False
        reasons.append("a partition does not heal with headroom before cut-off")
    max_events = int(getattr(scenario, "max_events", 0) or 0)
    if max_events and result.ctx.engine.events_processed >= max_events:
        # The run was cut by its event budget, not by quiescence:
        # nothing can be concluded about what it would eventually do.
        liveness = False
        reasons.append("run cut by the event budget before quiescence")
    return Expectations(safety=safety, liveness=liveness, reasons=tuple(reasons))


@dataclass(frozen=True)
class CheckVerdict:
    """One checker's outcome on one run."""

    name: str
    status: str  # "ok" | "violated" | "skipped"
    violations: Tuple[Violation, ...] = ()
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "violated"


@dataclass(frozen=True)
class OracleReport:
    """All verdicts of one oracle pass over one run."""

    verdicts: Tuple[CheckVerdict, ...]
    expectations: Expectations

    @property
    def ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    @property
    def violated_names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.verdicts if v.status == "violated")

    @property
    def violations(self) -> Tuple[Violation, ...]:
        return tuple(
            violation for verdict in self.verdicts for violation in verdict.violations
        )

    def as_items(self) -> Tuple[Tuple[str, str], ...]:
        """(checker, status) pairs — the flat RunRecord projection."""
        return tuple((verdict.name, verdict.status) for verdict in self.verdicts)

    def verdict(self, name: str) -> CheckVerdict:
        for verdict in self.verdicts:
            if verdict.name == name:
                return verdict
        raise KeyError(f"no verdict for checker {name!r}")

    def render(self) -> str:
        """A human-readable multi-line summary (CLI output)."""
        from repro.analysis.report import render_table

        rows = []
        for verdict in self.verdicts:
            note = verdict.note
            if verdict.violations:
                note = "; ".join(v.message for v in verdict.violations)
            rows.append([
                verdict.name,
                verdict.status,
                CHECKER_PAPER_REFS.get(verdict.name, ""),
                note,
            ])
        status = "PASS" if self.ok else "VIOLATED"
        return render_table(
            ["invariant", "status", "guards", "note"],
            rows,
            title=f"trace oracle: {status}",
        )


def run_oracle(
    result: RunResult,
    scenario: Optional[Any] = None,
    seed: Optional[int] = None,
    checkers: Optional[Sequence[InvariantChecker]] = None,
) -> OracleReport:
    """Run the checker battery over one finished run: each checker reads
    it post-hoc, except that ``quorum-certs`` reports what the run's
    in-run fold (``ctx.audit``) found as the evidence was stored."""
    expectations = derive_expectations(result, scenario)
    ctx = OracleContext(result=result, scenario=scenario, seed=seed)
    verdicts: List[CheckVerdict] = []
    for checker in checkers if checkers is not None else default_checkers():
        if not expectations.applies(checker.condition):
            verdicts.append(CheckVerdict(
                name=checker.name,
                status="skipped",
                note=f"outside the {checker.condition} envelope",
            ))
            continue
        # Retention refusal: a checker whose evidence was evicted by a
        # retention window must not pass vacuously on the surviving
        # suffix — record the refusal instead.
        evicted = tuple(
            kind for kind in checker.trace_kinds if result.trace.truncated(kind)
        )
        if evicted:
            verdicts.append(CheckVerdict(
                name=checker.name,
                status="skipped",
                note=(
                    f"trace retention evicted {'/'.join(evicted)} events: "
                    "the full history cannot be audited"
                ),
            ))
            continue
        if checker.needs_full_history and result.history_truncated:
            verdicts.append(CheckVerdict(
                name=checker.name,
                status="skipped",
                note=(
                    "retention evicted submission/commit history: "
                    "a full-history audit is impossible"
                ),
            ))
            continue
        violations = tuple(checker.check(ctx))
        verdicts.append(CheckVerdict(
            name=checker.name,
            status="violated" if violations else "ok",
            violations=violations,
        ))
    return OracleReport(verdicts=tuple(verdicts), expectations=expectations)
