"""Deterministic scenario fuzzing with failure shrinking.

The catalog curates 22 hand-picked points of an axis space whose
product — protocol × committee size × rational/byzantine mix ×
strategies × loss/duplication/reorder/crash/partition/GST ×
client workload (static/poisson/closed/burst × rate × duration) — is
far too large for spot checks.  The fuzzer *generates* scenarios from a seeded
RNG, runs each under the trace oracle (:mod:`repro.checks`) and, when
a run violates an invariant, **shrinks** the configuration to a
minimal scenario that still reproduces the violation, emitted as a
ready-to-register catalog-entry JSON (`repro run <file>` replays it).

Everything is a pure function of ``(fuzz_seed, budget, profile)``:
per-trial RNGs derive from ``(fuzz_seed, index)``, so trial *i* is the
same scenario whatever the budget, worker count or platform — the same
contract the sweep engine keeps, which is also why ``jobs=N`` returns
byte-identical records to ``jobs=1``.

Two generation profiles:

- ``safe`` draws only configurations inside the oracle's safety
  envelope (rosters within each protocol's tolerance, recovering
  crashes, healing partitions, bounded loss), so any violation is a
  genuine bug.  Attack-free trials sit inside the liveness envelope
  too and get every checker; trials that draw an attack deliberately
  exercise safety *under deviation*, where liveness is the attack's
  own target and is skipped.  CI's fuzz-smoke runs this.
- ``wild`` additionally draws over-threshold coalitions, asynchronous
  delays, permanent crashes, out-of-window quorums and the forgeable
  backend; conditional checkers skip where guarantees lapse while the
  unconditional ones (no honest burn, burns need binding proofs,
  conservation, integrity) must *still* hold.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.checks.oracle import FORK_RESILIENT_PROTOCOLS
from repro.experiments.registry import PROTOCOL_FACTORIES, Scenario
from repro.experiments.results import RunRecord
from repro.experiments.sweep import SweepJob, run_jobs
from repro.protocols.base import ProtocolConfig
from repro.search.score import bucket_of, bucket_params, priority_hint
from repro.search.space import StrategyGene, draw_gene

PROFILES = ("safe", "wild")

REPRO_FORMAT = "repro-scenario/v1"

#: Generated-run budgets; small enough that a 200-trial fuzz finishes
#: in tens of seconds, large enough to exercise retransmission paths.
_MAX_TIME = 600.0
_MAX_EVENTS = 150_000


def _default_config(protocol: str, n: int) -> ProtocolConfig:
    """The config Scenario.build_config derives for a default scenario:
    roster and quorum bounds for generation come from here, so a change
    to the t0 presets or Claim 1's window propagates automatically."""
    return Scenario(name="fuzz-bounds", protocol=protocol, n=n).build_config()


@dataclass(frozen=True)
class FuzzTrial:
    """One independently-generated (scenario, seed) unit of work."""

    index: int
    scenario: Scenario
    seed: int


def generate_trial(fuzz_seed: int, index: int, profile: str = "safe") -> FuzzTrial:
    """The deterministic trial #``index`` of fuzz campaign ``fuzz_seed``.

    A per-trial ``random.Random`` seeded from ``(fuzz_seed, index)``
    draws every axis, so trials are independent of each other and of
    the budget — trial 17 is the same scenario in a 20-trial smoke and
    a 20 000-trial campaign.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown fuzz profile {profile!r}; choose from {PROFILES}")
    rng = random.Random(f"repro-fuzz/{fuzz_seed}/{index}")
    for _ in range(16):
        fields = _draw_axes(rng, profile)
        fields["name"] = f"fuzz-{fuzz_seed}-{index:04d}"
        fields["check_invariants"] = True
        fields["max_time"] = _MAX_TIME
        fields["max_events"] = _MAX_EVENTS
        try:
            scenario = Scenario(**fields)
        except ValueError:
            # A rare invalid combination (e.g. wild-profile roster
            # clash); redraw — still deterministic, the RNG advances.
            continue
        return FuzzTrial(index=index, scenario=scenario, seed=rng.randrange(1 << 16))
    raise RuntimeError(f"could not draw a valid scenario for trial {index}")


def _draw_axes(rng: random.Random, profile: str) -> Dict[str, Any]:
    wild = profile == "wild"
    protocol = rng.choice(sorted(PROTOCOL_FACTORIES))
    n = rng.randint(4, 10)
    config = _default_config(protocol, n)
    t0 = config.t0
    quorum_size = config.quorum_size
    fields: Dict[str, Any] = {
        "protocol": protocol,
        "n": n,
        "rounds": rng.randint(1, 3),
        "block_size": rng.randint(2, 4),
    }

    # Roster and attack -------------------------------------------------
    rational = byzantine = 0
    attack: Optional[str] = None
    if rng.random() < (0.6 if wild else 0.5):
        if wild and rng.random() < 0.4:
            byzantine = rng.randint(0, max(0, n // 2))
            rational = rng.randint(0, max(0, n - byzantine - 1))
        else:
            byzantine = rng.randint(0, t0)
            cap = (n - 1) // 2 if protocol in FORK_RESILIENT_PROTOCOLS else t0
            rational = rng.randint(0, max(0, cap - byzantine))
        if rational + byzantine > 0:
            attack = rng.choice(("fork", "liveness", "censorship"))
    fields["rational"] = rational
    fields["byzantine"] = byzantine
    fields["attack"] = attack
    if attack == "censorship":
        fields["censored_tx_ids"] = ("tx-0",)
    if rational and rng.random() < 0.3:
        fields["thetas"] = tuple(rng.randint(1, 3) for _ in range(rational))
    elif rational:
        fields["theta"] = rng.randint(1, 3)

    # Synchrony ---------------------------------------------------------
    delays = ["fixed", "synchronous", "partial"] + (["asynchronous"] if wild else [])
    delay = rng.choice(delays)
    timeout = round(rng.uniform(8.0, 15.0), 1)
    fields["delay"] = delay
    fields["delta"] = round(rng.uniform(0.5, min(2.0, timeout / 4)), 2)
    fields["timeout"] = timeout
    if delay == "partial":
        fields["gst"] = float(rng.choice((10, 20, 30)))

    # Link faults -------------------------------------------------------
    if rng.random() < 0.4:
        ceiling = 0.4 if wild else 0.15
        fields["loss_rate"] = round(rng.uniform(0.02, ceiling), 3)
    if rng.random() < 0.3:
        fields["duplicate_rate"] = round(rng.uniform(0.05, 0.3), 3)
    if rng.random() < 0.3:
        fields["reorder_jitter"] = round(rng.uniform(0.1, 0.5), 2)

    # Crash/recovery ----------------------------------------------------
    # The safe profile never stacks crash/partition disruption on top
    # of partial synchrony: pre-GST adversarial delays are already a
    # round-abort source, and the combination (while legal) explodes
    # retransmission traffic without adding envelope-safe coverage.
    disruption_ok = wild or delay != "partial"
    slack = n - quorum_size
    if disruption_ok and rng.random() < 0.25 and (slack >= 1 or wild):
        replica = rng.randrange(n)
        start = round(rng.uniform(1.0, 20.0), 1)
        if wild and rng.random() < 0.3:
            fields["crash_spec"] = ((replica, start),)  # permanent
        else:
            end = round(start + rng.uniform(5.0, 40.0), 1)
            fields["crash_spec"] = ((replica, start, end),)

    # Partitions --------------------------------------------------------
    if disruption_ok and rng.random() < 0.2:
        start = round(rng.uniform(0.0, 10.0), 1)
        end = round(start + rng.uniform(5.0, 30.0), 1)
        half = n // 2
        fields["partition_windows"] = ((start, end),)
        fields["partition_groups"] = (tuple(range(half)), tuple(range(half, n)))

    # Client workload ---------------------------------------------------
    # Continuous workloads replace the fixed-slot loop with a
    # duration-driven one; modest rates/durations keep a trial's event
    # count near the fixed-slot envelope.  Censorship trials keep the
    # static batch: their censored id must exist in the submitted set.
    if attack != "censorship" and rng.random() < 0.25:
        kind = rng.choice(("poisson", "closed", "burst"))
        fields["workload"] = kind
        fields["duration"] = float(rng.choice((40, 60, 90)))
        if kind == "poisson":
            fields["arrival_rate"] = round(rng.uniform(0.2, 1.2), 2)
        elif kind == "closed":
            fields["outstanding"] = rng.randint(2, 6)
        else:
            fields["burst_schedule"] = tuple(
                (round(rng.uniform(0.0, 30.0), 1), rng.randint(2, 8))
                for _ in range(rng.randint(1, 3))
            )

    # Quorum and crypto -------------------------------------------------
    if rng.random() < 0.15:
        window = config.admissible_quorum_window
        if wild and rng.random() < 0.5:
            fields["quorum"] = rng.randint(1, n)
        elif len(window) > 0:
            fields["quorum"] = rng.choice(list(window))
    if rng.random() < 0.1:
        fields["crypto_cache_size"] = 0
    if wild and attack != "fork" and rng.random() < 0.15:
        fields["crypto_backend"] = "fast-sim"
    # Drawn last so every pre-existing trial's axes replay unchanged:
    # the aggregate representation is a pure wire-format change the
    # oracle must find indistinguishable from the expanded one.
    if rng.random() < 0.25:
        fields["aggregate_certs"] = True
    # Production axes are appended after the aggregate draw — again at
    # the very end of the stream, so trials that predate them replay
    # with identical axes.  Pipelined/batched production must land the
    # same ledgers the sequential loop does, so the oracle envelope is
    # unchanged.
    if rng.random() < 0.3:
        fields["pipeline_depth"] = rng.randint(2, 4)
    if rng.random() < 0.25:
        fields["max_block_txs"] = rng.choice((8, 16, 32))
    if fields.get("workload") == "poisson" and rng.random() < 0.3:
        fields["coalesce_window"] = round(rng.uniform(0.2, 1.5), 2)
    # The strategy-gene axis rides at the very end of the stream so
    # every pre-existing trial replays with identical axes.  Only
    # rosters with rational players can host a coalition, and forking
    # genes are dropped over the forgeable backend — they would trip
    # the accountability checker by construction, exactly the
    # ``--inject-violation`` scenario, not a found bug.
    if rational and rng.random() < 0.25:
        gene = draw_gene(rng, profile, rational)
        if not (gene.forks and fields.get("crypto_backend") == "fast-sim"):
            fields["gene"] = gene.as_field()
    return fields


def injected_violation_trial(fuzz_seed: int) -> FuzzTrial:
    """A trial that *must* violate the accountability invariant.

    A fork collusion over the forgeable ``fast-sim`` backend: the
    deviators are caught and burned, but no binding Proof-of-Fraud can
    exist, so "collateral burn exactly for provable fraud" breaks by
    construction.  Used by ``repro fuzz --inject-violation`` and the
    tests to prove the oracle→shrinker pipeline end to end.
    """
    scenario = Scenario(
        name=f"fuzz-{fuzz_seed}-injected",
        n=9, rounds=3, rational=2, byzantine=1, attack="fork",
        loss_rate=0.05, timeout=10.0,
        crypto_backend="fast-sim", allow_unsound_crypto=True,
        check_invariants=True, max_time=_MAX_TIME, max_events=_MAX_EVENTS,
    )
    return FuzzTrial(index=-1, scenario=scenario, seed=0)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShrunkRepro:
    """A minimal reproducing configuration for one violation."""

    scenario: Scenario
    seed: int
    violations: Tuple[str, ...]
    shrink_runs: int
    original_name: str

    def entry(self) -> Dict[str, Any]:
        """The ready-to-register catalog-entry JSON payload."""
        return {
            "format": REPRO_FORMAT,
            "scenario": self.scenario.to_dict(),
            "seed": self.seed,
            "violations": list(self.violations),
            "shrunk_from": self.original_name,
            "shrink_runs": self.shrink_runs,
        }


@dataclass
class FuzzResult:
    """Everything one fuzz campaign produced."""

    fuzz_seed: int
    budget: int
    profile: str
    trials: List[FuzzTrial]
    records: List[RunRecord]
    shrunk: List[ShrunkRepro] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def violating(self) -> List[Tuple[FuzzTrial, RunRecord]]:
        return [
            (trial, record)
            for trial, record in zip(self.trials, self.records)
            if record.invariant_violations
        ]

    @property
    def violation_count(self) -> int:
        return len(self.violating)

    def checker_totals(self) -> Dict[str, Dict[str, int]]:
        """checker → {ok/violated/skipped: count} across all trials."""
        totals: Dict[str, Dict[str, int]] = {}
        for record in self.records:
            for checker, status in record.invariants or ():
                slot = totals.setdefault(checker, {"ok": 0, "violated": 0, "skipped": 0})
                slot[status] = slot.get(status, 0) + 1
        return totals

    def to_json(self, include_timing: bool = False) -> str:
        payload = {
            "fuzz_seed": self.fuzz_seed,
            "budget": self.budget,
            "profile": self.profile,
            "violations": self.violation_count,
            "checker_totals": self.checker_totals(),
            "records": [r.to_dict(include_timing=include_timing) for r in self.records],
            "shrunk": [repro.entry() for repro in self.shrunk],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def run_fuzz(
    budget: int,
    fuzz_seed: int = 0,
    profile: str = "safe",
    jobs: int = 1,
    inject_violation: bool = False,
    shrink_budget: int = 64,
    max_shrinks: int = 5,
    guided: bool = False,
    campaign_id: Optional[str] = None,
    db: Optional[str] = None,
    resume: bool = False,
    checkpoint_every: int = 16,
) -> FuzzResult:
    """Run a fuzz campaign: generate, order, execute, oracle-check, shrink.

    Deterministic for ``(budget, fuzz_seed, profile, inject_violation)``
    whatever ``jobs`` is; ``guided`` moves the execution order (see
    :func:`campaign_order`), never a trial's identity.  The first
    ``max_shrinks`` violating trials are shrunk (each shrink re-runs the
    scenario up to ``shrink_budget`` times).

    With a warehouse (explicit ``db`` or ``REPRO_WAREHOUSE``), the
    campaign lands its records and its trial cursor together every
    ``checkpoint_every`` trials under ``campaign_id``; ``resume=True``
    picks up an interrupted campaign from its stored cursor *and stored
    order* (so resumption is exact even if the near-miss statistics
    have since moved).  The result covers the trials executed by this
    call, in execution order.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if max_shrinks < 0 or shrink_budget < 0:
        raise ValueError("max_shrinks and shrink_budget must be non-negative")
    from repro.experiments.warehouse import Warehouse, auto_db_path

    db_path = db or auto_db_path()
    cid = campaign_id or default_campaign_id(fuzz_seed, profile, budget, guided)
    started = time.perf_counter()
    trials = [generate_trial(fuzz_seed, index, profile) for index in range(budget)]
    if inject_violation:
        trials[0] = injected_violation_trial(fuzz_seed)
    order: List[int] = []
    start_at = 0
    if resume:
        if db_path is None:
            raise ValueError("--resume needs a warehouse (--db or REPRO_WAREHOUSE)")
        with Warehouse(db_path) as store:
            checkpoint = store.load_cursor(cid)
        if checkpoint is not None:
            if (
                checkpoint.fuzz_seed != fuzz_seed
                or checkpoint.profile != profile
                or checkpoint.budget != budget
            ):
                raise ValueError(
                    f"campaign {cid!r} was checkpointed with"
                    f" seed={checkpoint.fuzz_seed} profile={checkpoint.profile!r}"
                    f" budget={checkpoint.budget}; refusing to resume with"
                    f" different parameters"
                )
            order = list(checkpoint.order)
            start_at = checkpoint.cursor
    if not order:
        order = campaign_order(trials, guided, db_path)
    ordered_trials = [trials[index] for index in order[start_at:]]

    def checkpoint_at(done: int, chunk_records: Sequence[RunRecord]) -> None:
        """Land the chunk's records *and* the cursor together, so a
        resumed campaign never re-runs trials whose results were kept
        nor skips trials whose results were lost."""
        with Warehouse(db_path) as store:
            store.ingest_records(chunk_records, source=f"campaign:{cid}")
            store.save_cursor(cid, fuzz_seed, profile, budget, start_at + done, order)

    records = run_jobs(
        [
            SweepJob(
                trial.index, trial.scenario, trial.seed,
                params=bucket_params(trial.scenario),
                source="fuzz", near_miss=True,
            )
            for trial in ordered_trials
        ],
        workers=jobs,
        chunk=max(1, checkpoint_every) if db_path else None,
        on_chunk=checkpoint_at if db_path else None,
    )
    result = FuzzResult(
        fuzz_seed=fuzz_seed, budget=budget, profile=profile,
        trials=ordered_trials, records=records,
    )
    for trial, record in result.violating[:max_shrinks]:
        result.shrunk.append(shrink(
            trial.scenario, trial.seed,
            target=record.invariant_violations, budget=shrink_budget,
        ))
    result.wall_time = time.perf_counter() - started
    return result


# ----------------------------------------------------------------------
# Campaign identity and guided ordering
# ----------------------------------------------------------------------
def default_campaign_id(fuzz_seed: int, profile: str, budget: int, guided: bool) -> str:
    tag = "guided" if guided else "linear"
    return f"fuzz-{fuzz_seed}-{profile}-{budget}-{tag}"


def campaign_order(
    trials: Sequence[FuzzTrial], guided: bool, db_path: Optional[str] = None
) -> List[int]:
    """The execution order of a campaign's trial indices.

    Unguided campaigns run in index order.  Guided campaigns rank each
    trial by the warehouse's mean near-miss score for its
    (protocol, attack-bucket) — history of runs that pressed the
    failure boundary pulls their neighbourhood forward — falling back
    to the static :func:`repro.search.score.priority_hint` for buckets
    with no history.  Ties (and the no-warehouse case) break by index,
    so the order is deterministic for a given database state.  Trial
    *identity* never changes: ``(fuzz_seed, index)`` still names the
    same scenario, only the execution order moves.
    """
    if not guided:
        return list(range(len(trials)))
    buckets: Dict[Tuple[str, str], Tuple[float, int]] = {}
    if db_path:
        from repro.experiments.warehouse import Warehouse

        with Warehouse(db_path) as store:
            buckets = store.near_miss_buckets()

    def priority(trial: FuzzTrial) -> float:
        key = bucket_of(trial.scenario)
        if key in buckets:
            return buckets[key][0]
        return priority_hint(trial.scenario)

    return sorted(
        range(len(trials)), key=lambda i: (-priority(trials[i]), i)
    )


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def violated_checkers(scenario: Scenario, seed: int) -> Tuple[str, ...]:
    """Run once and return the sorted violated checker names."""
    checked = scenario if scenario.check_invariants else scenario.with_params(check_invariants=True)
    result = checked.run(seed=seed)
    return tuple(sorted(result.oracle.violated_names))


_DEFAULTS = {spec.name: spec.default for spec in fields(Scenario)}

#: The reset-to-default shrink moves, in the order they are tried.  A
#: group resets together — a continuous workload without its duration
#: (or a burst kind without its schedule) would not validate — and is
#: offered when its first field is off its default.  ``gene`` holds its
#: place in the order but shrinks knob by knob instead.
_RESET_GROUPS: Tuple[Tuple[str, ...], ...] = (
    ("loss_rate",),
    ("duplicate_rate",),
    ("reorder_jitter",),
    ("crash_spec",),
    ("partition_windows", "partition_groups"),
    ("gene",),
    ("delay", "gst"),
    ("quorum",),
    ("crypto_cache_size",),
    ("aggregate_certs",),
    ("pipeline_depth",),
    ("max_block_txs",),
    ("coalesce_window",),
    ("thetas",),
    ("tx_count",),
    ("workload", "duration", "burst_schedule", "arrival_rate", "outstanding"),
)


def _shrink_candidates(scenario: Scenario) -> List[Dict[str, Any]]:
    """Ordered simplification moves: axes to defaults first (cheapest
    to reason about in a repro), then structural size reductions."""
    moves: List[Dict[str, Any]] = []
    for group in _RESET_GROUPS:
        if getattr(scenario, group[0]) == _DEFAULTS[group[0]]:
            continue
        if group == ("gene",):
            gene = StrategyGene.from_field(scenario.gene)
            moves.extend(
                {"gene": shrunk.as_field() if shrunk.active else None}
                for shrunk in gene.shrink_moves()
            )
        else:
            moves.append({name: _DEFAULTS[name] for name in group})
    if scenario.duration is not None and scenario.duration > 20.0:
        moves.append({"duration": round(scenario.duration / 2, 1)})
    if scenario.rounds > 1:
        moves.append({"rounds": max(1, scenario.rounds // 2)})
        moves.append({"rounds": scenario.rounds - 1})
    if scenario.n > 4:
        moves.append({"n": scenario.n - 1})
    if scenario.byzantine > 0 and scenario.rational + scenario.byzantine > 1:
        moves.append({"byzantine": scenario.byzantine - 1})
    if scenario.rational > 0 and scenario.rational + scenario.byzantine > 1:
        moves.append({"rational": scenario.rational - 1})
    if not scenario.attack:
        if scenario.rational:
            moves.append({"rational": 0, "thetas": ()})
        if scenario.byzantine:
            moves.append({"byzantine": 0})
    if scenario.max_time > 200.0:
        moves.append({"max_time": max(200.0, scenario.max_time / 2)})
    return moves


def shrink(
    scenario: Scenario,
    seed: int,
    target: Sequence[str],
    budget: int = 64,
) -> ShrunkRepro:
    """Greedy deterministic shrinking toward a minimal reproduction.

    A candidate simplification is accepted when the re-run still
    violates at least one checker from ``target`` (the expectation
    envelope can change as axes drop — e.g. removing loss makes the
    liveness checker applicable — so exact-set matching would refuse
    perfectly good shrinks).  The scenario's *name* is part of the run
    seed and is therefore never shrunk.
    """
    target_set = set(target)
    if not target_set:
        raise ValueError("cannot shrink a non-violating scenario")
    current = scenario if scenario.check_invariants else scenario.with_params(check_invariants=True)
    current_violations = tuple(sorted(target_set))
    runs = 0
    changed = True
    while changed and runs < budget:
        changed = False
        for move in _shrink_candidates(current):
            if runs >= budget:
                break
            try:
                candidate = current.with_params(**move)
            except (KeyError, ValueError):
                continue
            try:
                violations = violated_checkers(candidate, seed)
            except ValueError:
                continue
            runs += 1
            if target_set & set(violations):
                current = candidate
                current_violations = violations
                changed = True
                break
    return ShrunkRepro(
        scenario=current,
        seed=seed,
        violations=current_violations,
        shrink_runs=runs,
        original_name=scenario.name,
    )


# ----------------------------------------------------------------------
# Repro-file i/o (the artifact `repro run <file>` replays)
# ----------------------------------------------------------------------
def write_repro(path: str, repro: ShrunkRepro) -> None:
    with open(path, "w") as handle:
        json.dump(repro.entry(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_scenario_file(path: str) -> Tuple[Scenario, Optional[int], Tuple[str, ...]]:
    """Load a scenario JSON: either a bare ``Scenario.to_dict`` payload
    or a fuzzer repro entry (``{"scenario": ..., "seed": ...}``).

    Returns (scenario, embedded seed or None, recorded violations).
    A repro entry that records violations comes back with
    ``check_invariants`` forced on, so one ``repro run file.json``
    replays the violation verdict with no extra flags.
    """
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if "scenario" in payload:
        scenario = Scenario.from_dict(payload["scenario"])
        seed = payload.get("seed")
        violations = tuple(payload.get("violations", ()))
        if violations and not scenario.check_invariants:
            scenario = scenario.with_params(check_invariants=True)
        return scenario, (int(seed) if seed is not None else None), violations
    return Scenario.from_dict(payload), None, ()
