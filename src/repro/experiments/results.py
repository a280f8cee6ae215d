"""Flat run records, serialisation and aggregation for sweeps.

A :class:`RunRecord` is the flat, JSON-friendly projection of one
finished :class:`~repro.protocols.runner.RunResult`: terminal system
state, Definition-1 verdicts, realised utilities, traffic totals and
wall-clock time.  Records are what cross process boundaries (the
parallel sweep workers return them, never live ``RunResult`` objects,
which hold unpicklable engine state) and what lands on disk.

Everything in a record except ``wall_time`` is a pure function of
(scenario, seed), so :meth:`RunRecord.canonical` — the record minus
timing — is byte-for-byte reproducible across runs, worker counts and
machines.  Serialisers exclude timing by default for exactly that
reason; pass ``include_timing=True`` to keep it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.robustness import check_robustness
from repro.protocols.runner import RunResult
from repro.sim.streaming import percentile_of_sorted

ParamItems = Tuple[Tuple[str, Any], ...]


@dataclass(frozen=True)
class RunRecord:
    """One row of a sweep: everything observable about one run."""

    scenario: str
    protocol: str
    params: ParamItems
    seed: int
    state: str
    robust: bool
    agreement: bool
    strict_ordering: bool
    validity: bool
    eventual_liveness: bool
    censorship_resistance: Optional[bool]
    progressed: bool
    final_blocks: int
    penalised: Tuple[int, ...]
    utilities: Tuple[Tuple[int, float], ...]
    total_messages: int
    total_bytes: int
    events: int
    wall_time: float = 0.0
    # Trace-oracle projection: (checker, status) pairs and the violated
    # checker names, populated only when the scenario set
    # check_invariants.  None (vs empty tuple) distinguishes "oracle
    # never ran" from "ran and found nothing"; serialisers omit the
    # fields entirely when the oracle never ran, so pre-oracle records
    # (and the golden byte-identity gates) are unchanged.
    invariants: Optional[Tuple[Tuple[str, str], ...]] = None
    invariant_violations: Tuple[str, ...] = ()
    # Per-checker skip reasons ((checker, reason) pairs) for checkers
    # that did not evaluate — retention eviction, applicability
    # envelope — so campaign triage can distinguish "passed" from "not
    # evaluated".  Empty when nothing was skipped; serialisers omit
    # the field entirely then, keeping historical bytes.
    invariant_notes: Tuple[Tuple[str, str], ...] = ()
    # Throughput projection: the flat scalars of the run's
    # ThroughputReport, populated only for continuous-workload runs.
    # None (vs empty) distinguishes "no report" from "report of zeros";
    # serialisers omit the field entirely when no report exists, so
    # legacy fixed-slot records (and the golden byte-identity gates)
    # are unchanged.
    throughput: Optional[Tuple[Tuple[str, float], ...]] = None
    # Near-miss projection (repro.search.score): bounded pressure
    # signals plus the combined scalar under the key "score".  Only
    # campaign paths attach it (via score.with_near_miss); None keeps
    # every historical serialisation — including the 13 golden
    # records — byte-identical.
    near_miss: Optional[Tuple[Tuple[str, float], ...]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        scenario: "Any",
        seed: int,
        result: RunResult,
        params: Optional[Mapping[str, Any]] = None,
        wall_time: float = 0.0,
    ) -> "RunRecord":
        """Flatten a finished run (see :class:`Scenario` for inputs)."""
        censored = list(scenario.censored_tx_ids) or None
        verdict = check_robustness(result, censored_tx_ids=censored)
        invariants: Optional[Tuple[Tuple[str, str], ...]] = None
        invariant_violations: Tuple[str, ...] = ()
        invariant_notes: Tuple[Tuple[str, str], ...] = ()
        if getattr(scenario, "check_invariants", False):
            report = result.oracle
            if report is None:
                from repro.checks import run_oracle

                report = run_oracle(result, scenario=scenario, seed=seed)
            # Stored sorted by checker name so records round-trip
            # exactly through the sort_keys=True JSON writer.
            invariants = tuple(sorted(report.as_items()))
            invariant_violations = tuple(sorted(report.violated_names))
            invariant_notes = tuple(sorted(
                (verdict.name, verdict.note)
                for verdict in report.verdicts
                if verdict.status == "skipped" and verdict.note
            ))
        throughput: Optional[Tuple[Tuple[str, float], ...]] = None
        if result.throughput is not None:
            entries: Dict[str, Any] = dict(result.throughput.summary())
            # The backlog series rides along capped (strided, crest and
            # last point kept) so record size is independent of run
            # duration; peak/final stay exact in the scalars above.
            series = result.throughput.record_series()
            if series:
                entries["backlog_series"] = series
            throughput = tuple(sorted(entries.items()))
        utilities = tuple(
            (player.player_id,
             result.realised_utility(player.player_id, player.theta, censored_tx_ids=censored))
            for player in result.players
            if player.is_rational
        )
        return cls(
            scenario=scenario.name,
            protocol=scenario.protocol,
            params=tuple(sorted((params or {}).items())),
            seed=seed,
            state=result.system_state(censored_tx_ids=censored).name,
            robust=verdict.robust,
            agreement=verdict.agreement,
            strict_ordering=verdict.strict_ordering,
            validity=verdict.validity,
            eventual_liveness=verdict.eventual_liveness,
            censorship_resistance=verdict.censorship_resistance,
            progressed=verdict.progressed,
            final_blocks=result.final_block_count(),
            penalised=tuple(sorted(result.penalised_players())),
            utilities=utilities,
            total_messages=result.metrics.total_messages,
            total_bytes=result.metrics.total_bytes,
            events=result.ctx.engine.events_processed,
            wall_time=wall_time,
            invariants=invariants,
            invariant_violations=invariant_violations,
            invariant_notes=invariant_notes,
            throughput=throughput,
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def to_dict(self, include_timing: bool = False) -> Dict[str, Any]:
        data = asdict(self)
        data["params"] = self.param_dict()
        data["penalised"] = list(self.penalised)
        data["utilities"] = {str(pid): value for pid, value in self.utilities}
        if self.invariants is None:
            # The oracle never ran: omit the fields so pre-oracle
            # output (and the golden byte-identity gates) is unchanged.
            del data["invariants"]
            del data["invariant_violations"]
            del data["invariant_notes"]
        else:
            data["invariants"] = dict(self.invariants)
            data["invariant_violations"] = list(self.invariant_violations)
            if self.invariant_notes:
                data["invariant_notes"] = dict(self.invariant_notes)
            else:
                # Nothing skipped: omit, so records from before the
                # skip-reason fix keep their exact bytes.
                del data["invariant_notes"]
        if self.throughput is None:
            # Legacy fixed-slot run: no report, and no key, so golden
            # byte-identity is preserved.
            del data["throughput"]
        else:
            data["throughput"] = dict(self.throughput)
        if self.near_miss is None:
            # Not a campaign run: no key, so golden byte-identity is
            # preserved.
            del data["near_miss"]
        else:
            data["near_miss"] = dict(self.near_miss)
        if not include_timing:
            del data["wall_time"]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        known = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in known}
        kwargs["params"] = tuple(sorted(dict(data.get("params", {})).items()))
        kwargs["penalised"] = tuple(data.get("penalised", ()))
        kwargs["utilities"] = tuple(
            sorted((int(pid), value) for pid, value in dict(data.get("utilities", {})).items())
        )
        if "invariants" in data and data["invariants"] is not None:
            kwargs["invariants"] = tuple(sorted(dict(data["invariants"]).items()))
        else:
            kwargs["invariants"] = None
        kwargs["invariant_violations"] = tuple(data.get("invariant_violations", ()))
        kwargs["invariant_notes"] = tuple(
            sorted(dict(data.get("invariant_notes", {}) or {}).items())
        )
        if "throughput" in data and data["throughput"] is not None:
            entries = []
            for name, value in dict(data["throughput"]).items():
                if isinstance(value, (list, tuple)):
                    # The capped backlog series: JSON hands lists back,
                    # the record carries tuples.
                    value = tuple(tuple(point) for point in value)
                entries.append((name, value))
            kwargs["throughput"] = tuple(sorted(entries))
        else:
            kwargs["throughput"] = None
        if "near_miss" in data and data["near_miss"] is not None:
            kwargs["near_miss"] = tuple(sorted(dict(data["near_miss"]).items()))
        else:
            kwargs["near_miss"] = None
        kwargs.setdefault("wall_time", 0.0)
        return cls(**kwargs)

    def canonical(self) -> Dict[str, Any]:
        """The deterministic projection: everything but wall time."""
        return self.to_dict(include_timing=False)


# ----------------------------------------------------------------------
# JSON / CSV serialisation
# ----------------------------------------------------------------------
def records_to_json(
    records: Sequence[RunRecord],
    meta: Optional[Mapping[str, Any]] = None,
    include_timing: bool = False,
) -> str:
    """Serialise records (plus sweep metadata) deterministically.

    With ``include_timing=False`` (the default) the output depends only
    on (scenario, grid, seeds): identical for serial and parallel runs.
    """
    payload: Dict[str, Any] = dict(meta or {})
    payload["records"] = [record.to_dict(include_timing=include_timing) for record in records]
    payload["aggregates"] = aggregate(records)
    return json.dumps(payload, indent=2, sort_keys=True)


def write_json(
    path: str,
    records: Sequence[RunRecord],
    meta: Optional[Mapping[str, Any]] = None,
    include_timing: bool = False,
) -> None:
    with open(path, "w") as handle:
        handle.write(records_to_json(records, meta=meta, include_timing=include_timing))
        handle.write("\n")


def read_json(path: str) -> List[RunRecord]:
    """Load records back from :func:`write_json` output."""
    with open(path) as handle:
        payload = json.load(handle)
    return [RunRecord.from_dict(entry) for entry in payload["records"]]


_CSV_FIELDS = (
    "scenario", "protocol", "seed", "state", "robust", "agreement",
    "strict_ordering", "validity", "eventual_liveness",
    "censorship_resistance", "progressed", "final_blocks", "penalised",
    "total_messages", "total_bytes", "events",
)


def write_csv(path: str, records: Sequence[RunRecord], include_timing: bool = False) -> None:
    """Write records as a flat CSV, one ``param:<axis>`` column per axis.

    Oracle columns (per-checker statuses and the violated names) appear
    only when the oracle ran for some record, so oracle-free sweeps
    keep their historical column set byte for byte.

    ``censorship_resistance`` is tri-state: ``True``/``False`` verdicts
    write as such, and not-applicable (``None``) writes as an *empty
    cell* — never the string ``"None"``, which would be indistinguishable
    from a scenario value.

    The CSV is an export for spreadsheets, never read back: it drops
    per-player utilities and the backlog series, so the JSON the same
    sweep writes is the form the warehouse ingests.
    """
    axes = sorted({key for record in records for key, _ in record.params})
    with_oracle = any(record.invariants is not None for record in records)
    with_throughput = any(record.throughput is not None for record in records)
    with_near_miss = any(record.near_miss is not None for record in records)
    headers = list(_CSV_FIELDS) + [f"param:{axis}" for axis in axes]
    if with_oracle:
        headers += ["invariants", "invariant_violations"]
    if with_throughput:
        headers.append("throughput")
    if with_near_miss:
        # Same omitted-when-absent contract as the oracle/throughput
        # columns: score-free sweeps keep their historical bytes.
        headers.append("near_miss")
    if include_timing:
        headers.append("wall_time")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for record in records:
            params = record.param_dict()
            row: List[Any] = [getattr(record, name) for name in _CSV_FIELDS]
            row[_CSV_FIELDS.index("penalised")] = " ".join(map(str, record.penalised))
            if record.censorship_resistance is None:
                row[_CSV_FIELDS.index("censorship_resistance")] = ""
            row.extend(params.get(axis, "") for axis in axes)
            if with_oracle:
                row.append(
                    ";".join(f"{name}={status}" for name, status in record.invariants or ())
                )
                row.append(" ".join(record.invariant_violations))
            if with_throughput:
                # Scalars only: the (already capped) backlog series is a
                # JSON affordance; the flat CSV column stays scalar.
                row.append(
                    ";".join(
                        f"{name}={value}"
                        for name, value in record.throughput or ()
                        if name != "backlog_series"
                    )
                )
            if with_near_miss:
                row.append(
                    ";".join(
                        f"{name}={value}"
                        for name, value in record.near_miss or ()
                    )
                )
            if include_timing:
                row.append(record.wall_time)
            writer.writerow(row)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation."""
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    return percentile_of_sorted(sorted(values), q)


def group_by_params(records: Iterable[RunRecord]) -> Dict[ParamItems, List[RunRecord]]:
    """Records grouped by grid point, in first-seen order."""
    groups: Dict[ParamItems, List[RunRecord]] = {}
    for record in records:
        groups.setdefault(record.params, []).append(record)
    return groups

def aggregate(records: Sequence[RunRecord]) -> List[Dict[str, Any]]:
    """Per-grid-point summaries over seeds (timing-free, deterministic).

    Each entry reports the run count, the fraction of robust runs, the
    distribution of terminal states, and means of the scalar metrics.
    """
    summaries: List[Dict[str, Any]] = []
    for params, group in group_by_params(records).items():
        states: Dict[str, int] = {}
        for record in group:
            states[record.state] = states.get(record.state, 0) + 1
        all_utilities = [value for record in group for _, value in record.utilities]
        summary = {
            "params": dict(params),
            "runs": len(group),
            "robust_fraction": mean([1.0 if r.robust else 0.0 for r in group]),
            "states": dict(sorted(states.items())),
            "mean_final_blocks": mean([float(r.final_blocks) for r in group]),
            "mean_messages": mean([float(r.total_messages) for r in group]),
            "mean_bytes": mean([float(r.total_bytes) for r in group]),
            "mean_rational_utility": mean(all_utilities) if all_utilities else None,
        }
        if any(record.invariants is not None for record in group):
            # Only present when the oracle ran somewhere in the group,
            # so oracle-free sweeps keep their historical output bytes.
            summary["invariant_violation_runs"] = sum(
                1 for record in group if record.invariant_violations
            )
        reports = [dict(r.throughput) for r in group if r.throughput is not None]
        if reports:
            # Continuous-workload groups: the headline rates, averaged
            # over seeds (absent from legacy groups, same reasoning).
            # Per-scalar presence checks: a group may mix records from
            # different schema vintages (from_dict of files written
            # before a scalar existed), and one old record must not
            # KeyError the whole summary.
            rates = [t["blocks_per_sec"] for t in reports if "blocks_per_sec" in t]
            if rates:
                summary["mean_blocks_per_sec"] = mean(rates)
            p99s = [t["latency_p99"] for t in reports if "latency_p99" in t]
            if p99s:
                summary["mean_latency_p99"] = mean(p99s)
            backlogs = [t["peak_backlog"] for t in reports if "peak_backlog" in t]
            if backlogs:
                summary["max_peak_backlog"] = max(backlogs)
        scores = [
            dict(record.near_miss)["score"]
            for record in group
            if record.near_miss is not None and "score" in dict(record.near_miss)
        ]
        if scores:
            # Near-miss keys appear only for scored groups (search and
            # fuzz campaigns); classic sweeps keep their output bytes.
            summary["mean_near_miss"] = mean(scores)
            summary["max_near_miss"] = max(scores)
        summaries.append(summary)
    return summaries
