"""SQLite results warehouse: every run record, queryable.

Sweeps and fuzz campaigns write :class:`RunRecord` JSON dumps (the CSV
a sweep can also write is an export only: a lossy copy of the same
records, never read back).  At fleet scale a pile of dumps is not
queryable, so this module layers schema → loader → query API over one
SQLite file:

- **Schema** — ``runs`` holds one row per canonical
  :class:`RunRecord` (verdict booleans and throughput scalars are
  real columns; the exact canonical JSON rides along so nothing is
  lossy), with ``run_params`` / ``run_violations`` side tables for
  per-axis and per-checker queries, and ``campaign_cursors`` holds
  the position of each resumable fuzz/search campaign.
- **Loader** — :meth:`Warehouse.ingest_file` reads a sweep/fuzz JSON
  (any payload with a ``records`` list).  Every row is keyed by a
  content fingerprint and inserted with ``INSERT OR IGNORE``, so
  re-ingesting a file changes no rows.
- **Query API** — typed results for the questions triage asks:
  per-axis aggregates over runs, violation triage for fuzz campaigns,
  and the near-miss buckets that order a guided campaign.

Measured numbers are not stored here: one that is a pure function of
(code, seed) is a ``CLAIMS`` row or a tier-1 pin, and host time is
measured by ``perf/``.  A database written before that split keeps its
measurement tables; nothing reads them.

Opt-in auto-persist: when the ``REPRO_WAREHOUSE`` environment variable
names a database path, ``Scenario.run`` and the sweep/fuzz workers
mirror their records into it via the ``maybe_persist_*`` helpers here
(failures warn, never break a run).
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.results import RunRecord

SCHEMA_VERSION = 1

DEFAULT_DB = "warehouse.sqlite"

ENV_VAR = "REPRO_WAREHOUSE"
"""Set to a database path to mirror runs as they happen."""

_RUNS_TABLE = """
CREATE TABLE IF NOT EXISTS {name} (
    id                     INTEGER PRIMARY KEY,
    fingerprint            TEXT NOT NULL UNIQUE,
    scenario               TEXT NOT NULL,
    protocol               TEXT NOT NULL,
    seed                   INTEGER NOT NULL,
    params_json            TEXT NOT NULL,
    state                  TEXT NOT NULL,
    robust                 INTEGER,            -- tri-state: NULL = not judged
    agreement              INTEGER NOT NULL,
    strict_ordering        INTEGER NOT NULL,
    validity               INTEGER,            -- tri-state: NULL = not judged
    eventual_liveness      INTEGER NOT NULL,
    censorship_resistance  INTEGER,            -- tri-state: NULL = N/A
    progressed             INTEGER NOT NULL,
    final_blocks           INTEGER NOT NULL,
    total_messages         INTEGER NOT NULL,
    total_bytes            INTEGER NOT NULL,
    events                 INTEGER NOT NULL,
    blocks_per_sec         REAL,
    latency_p99            REAL,
    peak_backlog           REAL,
    near_miss              REAL,               -- boundary score, NULL = unscored
    oracle_checked         INTEGER NOT NULL,
    violation_count        INTEGER NOT NULL,
    wall_time              REAL NOT NULL DEFAULT 0.0,
    record_json            TEXT NOT NULL,
    source                 TEXT,
    ingested_at            TEXT NOT NULL
);
"""

_SCHEMA = """
CREATE TABLE IF NOT EXISTS warehouse_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
""" + _RUNS_TABLE.format(name="runs") + """
CREATE INDEX IF NOT EXISTS idx_runs_scenario ON runs(scenario, protocol);
CREATE TABLE IF NOT EXISTS run_params (
    run_id     INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    axis       TEXT NOT NULL,
    value_json TEXT NOT NULL,
    PRIMARY KEY (run_id, axis)
);
CREATE INDEX IF NOT EXISTS idx_run_params_axis ON run_params(axis);
CREATE TABLE IF NOT EXISTS run_violations (
    run_id  INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    checker TEXT NOT NULL,
    status  TEXT NOT NULL DEFAULT 'violated', -- 'violated' | 'skipped'
    reason  TEXT,                             -- skip note, NULL when violated
    PRIMARY KEY (run_id, checker)
);
CREATE INDEX IF NOT EXISTS idx_run_violations ON run_violations(checker);
CREATE TABLE IF NOT EXISTS campaign_cursors (
    campaign_id TEXT PRIMARY KEY,
    fuzz_seed   INTEGER NOT NULL,
    profile     TEXT NOT NULL,
    budget      INTEGER NOT NULL,
    cursor      INTEGER NOT NULL,
    order_json  TEXT NOT NULL,
    updated_at  TEXT NOT NULL
);
"""


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _tri_state(verdict: Optional[bool]) -> Optional[int]:
    return None if verdict is None else int(verdict)


def _fingerprint(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# Typed query results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IngestReport:
    """What one :meth:`Warehouse.ingest_file` call did."""

    path: str
    added: int
    seen: int


@dataclass(frozen=True)
class AxisAggregate:
    """Per-value summary of all stored runs along one param axis."""

    axis: str
    value: Any
    runs: int
    robust_fraction: Optional[float]  # over judged runs; None if none was
    mean_final_blocks: float
    mean_messages: float
    mean_blocks_per_sec: Optional[float]
    violating_runs: int
    mean_near_miss: Optional[float] = None


@dataclass(frozen=True)
class ViolationGroup:
    """Fuzz-campaign triage: runs that violated one checker."""

    checker: str
    runs: int
    scenarios: Tuple[str, ...]
    examples: Tuple[Tuple[str, int], ...]  # (scenario, seed) sample


@dataclass(frozen=True)
class CampaignSummary:
    """Violation triage over every stored run."""

    total_runs: int
    checked_runs: int
    violating_runs: int
    by_checker: Tuple[ViolationGroup, ...] = field(default_factory=tuple)
    skipped: Tuple[Tuple[str, int], ...] = ()
    """Per-checker counts of skipped (retention/applicability) verdicts."""


@dataclass(frozen=True)
class CampaignCursor:
    """A resumable fuzz/search campaign's position in its trial order."""

    campaign_id: str
    fuzz_seed: int
    profile: str
    budget: int
    cursor: int  # trials completed (an index into ``order``)
    order: Tuple[int, ...]  # trial indices in execution order
    updated_at: str

    @property
    def finished(self) -> bool:
        return self.cursor >= len(self.order)


# ----------------------------------------------------------------------
# The warehouse
# ----------------------------------------------------------------------
class Warehouse:
    """One SQLite results store; open with a path, use as a context
    manager (or call :meth:`close`)."""

    def __init__(self, path: str = DEFAULT_DB):
        self.path = str(path)
        self._conn = sqlite3.connect(self.path, timeout=30.0)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA busy_timeout = 30000")
        # Before foreign keys are on: a rebuilt runs table must not
        # cascade its drop into the side tables.
        self._migrate()
        self._conn.execute("PRAGMA foreign_keys = ON")
        with self._conn:
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO warehouse_meta(key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )

    def _migrate(self) -> None:
        """Migrate databases from before the near-miss/skip-status
        columns or NULL-able ``robust``/``validity`` (new tables come from
        the IF NOT EXISTS statements in the schema itself)."""

        def columns(table: str) -> Dict[str, bool]:
            """Column name → declared NOT NULL."""
            return {
                row[1]: bool(row[3])
                for row in self._conn.execute(f"PRAGMA table_info({table})")
            }

        with self._conn:
            run_cols = columns("runs")
            if run_cols and "near_miss" not in run_cols:
                self._conn.execute("ALTER TABLE runs ADD COLUMN near_miss REAL")
            if run_cols.get("validity"):
                # SQLite cannot relax a column in place: rebuild once.
                names = ", ".join(run_cols)
                self._conn.execute(_RUNS_TABLE.format(name="runs_relaxed"))
                self._conn.execute(
                    f"INSERT INTO runs_relaxed ({names}) SELECT {names} FROM runs"
                )
                self._conn.execute("DROP TABLE runs")
                self._conn.execute("ALTER TABLE runs_relaxed RENAME TO runs")
            violation_cols = columns("run_violations")
            if violation_cols and "status" not in violation_cols:
                self._conn.execute(
                    "ALTER TABLE run_violations ADD COLUMN status TEXT"
                    " NOT NULL DEFAULT 'violated'"
                )
            if violation_cols and "reason" not in violation_cols:
                self._conn.execute(
                    "ALTER TABLE run_violations ADD COLUMN reason TEXT"
                )

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- ingest: run records -------------------------------------------
    def ingest_records(
        self, records: Sequence[RunRecord], source: Optional[str] = None
    ) -> int:
        """Store canonical records; returns how many rows were new."""
        added = 0
        now = _utcnow()
        with self._conn:
            for record in records:
                canonical = record.canonical()
                fingerprint = _fingerprint(canonical)
                throughput = dict(record.throughput or ())
                cursor = self._conn.execute(
                    """
                    INSERT OR IGNORE INTO runs (
                        fingerprint, scenario, protocol, seed, params_json,
                        state, robust, agreement, strict_ordering, validity,
                        eventual_liveness, censorship_resistance, progressed,
                        final_blocks, total_messages, total_bytes, events,
                        blocks_per_sec, latency_p99, peak_backlog, near_miss,
                        oracle_checked, violation_count, wall_time,
                        record_json, source, ingested_at
                    ) VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)
                    """,
                    (
                        fingerprint,
                        record.scenario,
                        record.protocol,
                        record.seed,
                        json.dumps(record.param_dict(), sort_keys=True, default=list),
                        record.state,
                        _tri_state(record.robust),
                        int(record.agreement),
                        int(record.strict_ordering),
                        _tri_state(record.validity),
                        int(record.eventual_liveness),
                        _tri_state(record.censorship_resistance),
                        int(record.progressed),
                        record.final_blocks,
                        record.total_messages,
                        record.total_bytes,
                        record.events,
                        throughput.get("blocks_per_sec"),
                        throughput.get("latency_p99"),
                        throughput.get("peak_backlog"),
                        None
                        if record.near_miss is None
                        else dict(record.near_miss).get("score"),
                        int(record.invariants is not None),
                        len(record.invariant_violations),
                        record.wall_time,
                        json.dumps(canonical, sort_keys=True),
                        source,
                        now,
                    ),
                )
                if not cursor.rowcount:
                    continue
                added += 1
                run_id = cursor.lastrowid
                for axis, value in record.params:
                    self._conn.execute(
                        "INSERT OR IGNORE INTO run_params(run_id, axis, value_json)"
                        " VALUES (?,?,?)",
                        (run_id, axis, json.dumps(value, sort_keys=True, default=list)),
                    )
                for checker in record.invariant_violations:
                    self._conn.execute(
                        "INSERT OR IGNORE INTO run_violations"
                        "(run_id, checker, status) VALUES (?,?,'violated')",
                        (run_id, checker),
                    )
                for checker, reason in record.invariant_notes:
                    self._conn.execute(
                        "INSERT OR IGNORE INTO run_violations"
                        "(run_id, checker, status, reason)"
                        " VALUES (?,?,'skipped',?)",
                        (run_id, checker, reason),
                    )
        return added

    # -- ingest: a records file --------------------------------------
    def ingest_file(self, path: str) -> IngestReport:
        """Load one sweep/fuzz JSON (any payload with a ``records``
        list).  A ``ValueError`` for any other shape does not name the
        file; the caller knows which one it passed."""
        expected = "expected a sweep/fuzz JSON with a 'records' list"
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except ValueError as error:  # not JSON at all: a CSV export, say
            raise ValueError(f"unrecognised shape ({expected}; {error})") from None
        if not (isinstance(payload, dict) and isinstance(payload.get("records"), list)):
            raise ValueError(f"unrecognised shape ({expected})")
        records = [RunRecord.from_dict(entry) for entry in payload["records"]]
        added = self.ingest_records(records, source=os.path.basename(path))
        return IngestReport(path=path, added=added, seen=len(records))

    # -- counts ---------------------------------------------------------
    def run_count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    # -- queries: runs --------------------------------------------------
    def canonical_records(
        self,
        scenario: Optional[str] = None,
        protocol: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """The exact canonical record dicts back out, insertion-ordered."""
        query = "SELECT record_json FROM runs"
        clauses, args = [], []
        if scenario is not None:
            clauses.append("scenario = ?")
            args.append(scenario)
        if protocol is not None:
            clauses.append("protocol = ?")
            args.append(protocol)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id"
        return [
            json.loads(row["record_json"])
            for row in self._conn.execute(query, args)
        ]

    def stored_records(
        self,
        scenario: Optional[str] = None,
        protocol: Optional[str] = None,
    ) -> List[RunRecord]:
        return [
            RunRecord.from_dict(entry)
            for entry in self.canonical_records(scenario=scenario, protocol=protocol)
        ]

    def axis_aggregates(self, axis: str) -> List[AxisAggregate]:
        """Per-value aggregates of every stored run along one sweep axis."""
        rows = self._conn.execute(
            """
            SELECT p.value_json AS value_json,
                   COUNT(*) AS runs,
                   AVG(r.robust) AS robust_fraction,
                   AVG(r.final_blocks) AS mean_final_blocks,
                   AVG(r.total_messages) AS mean_messages,
                   AVG(r.blocks_per_sec) AS mean_blocks_per_sec,
                   SUM(r.violation_count > 0) AS violating_runs,
                   AVG(r.near_miss) AS mean_near_miss
            FROM run_params p JOIN runs r ON r.id = p.run_id
            WHERE p.axis = ?
            GROUP BY p.value_json
            """,
            (axis,),
        ).fetchall()
        aggregates = [
            AxisAggregate(
                axis=axis,
                value=json.loads(row["value_json"]),
                runs=row["runs"],
                robust_fraction=row["robust_fraction"],
                mean_final_blocks=row["mean_final_blocks"],
                mean_messages=row["mean_messages"],
                mean_blocks_per_sec=row["mean_blocks_per_sec"],
                violating_runs=row["violating_runs"],
                mean_near_miss=row["mean_near_miss"],
            )
            for row in rows
        ]
        return sorted(aggregates, key=lambda a: str(a.value))

    def campaign_summary(self, examples: int = 5) -> CampaignSummary:
        """Violation triage over every stored run (fuzz campaigns)."""
        total, checked, violating = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(oracle_checked), 0),"
            " COALESCE(SUM(violation_count > 0), 0) FROM runs"
        ).fetchone()
        groups: List[ViolationGroup] = []
        for row in self._conn.execute(
            "SELECT checker, COUNT(*) AS runs FROM run_violations"
            " WHERE status = 'violated'"
            " GROUP BY checker ORDER BY runs DESC, checker"
        ):
            sample = self._conn.execute(
                """
                SELECT r.scenario, r.seed FROM run_violations v
                JOIN runs r ON r.id = v.run_id
                WHERE v.checker = ? AND v.status = 'violated'
                ORDER BY r.id LIMIT ?
                """,
                (row["checker"], examples),
            ).fetchall()
            scenarios = self._conn.execute(
                """
                SELECT DISTINCT r.scenario FROM run_violations v
                JOIN runs r ON r.id = v.run_id
                WHERE v.checker = ? AND v.status = 'violated'
                ORDER BY r.scenario
                """,
                (row["checker"],),
            ).fetchall()
            groups.append(
                ViolationGroup(
                    checker=row["checker"],
                    runs=row["runs"],
                    scenarios=tuple(s["scenario"] for s in scenarios),
                    examples=tuple((s["scenario"], s["seed"]) for s in sample),
                )
            )
        skipped = tuple(
            (row["checker"], row["runs"])
            for row in self._conn.execute(
                "SELECT checker, COUNT(*) AS runs FROM run_violations"
                " WHERE status = 'skipped'"
                " GROUP BY checker ORDER BY runs DESC, checker"
            )
        )
        return CampaignSummary(
            total_runs=total,
            checked_runs=checked,
            violating_runs=violating,
            by_checker=tuple(groups),
            skipped=skipped,
        )

    def near_miss_buckets(self) -> Dict[Tuple[str, str], Tuple[float, int]]:
        """Mean near-miss score and count per (protocol, bucket), keyed
        from each scored run's protocol and record params by
        :func:`repro.search.score.bucket_key` — the rule
        :func:`~repro.search.score.bucket_of` applies to a scenario, so
        guided campaign ordering can look scenarios up directly."""
        from repro.search.score import bucket_key

        sums: Dict[Tuple[str, str], List[float]] = {}
        for row in self._conn.execute(
            "SELECT protocol, params_json, near_miss FROM runs"
            " WHERE near_miss IS NOT NULL"
        ):
            key = bucket_key(row["protocol"], json.loads(row["params_json"]))
            sums.setdefault(key, []).append(row["near_miss"])
        return {
            key: (sum(values) / len(values), len(values))
            for key, values in sums.items()
        }

    # -- campaign checkpoints ------------------------------------------
    def save_cursor(
        self,
        campaign_id: str,
        fuzz_seed: int,
        profile: str,
        budget: int,
        cursor: int,
        order: Sequence[int],
    ) -> None:
        """Checkpoint a campaign's position (upsert by campaign id)."""
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO campaign_cursors"
                "(campaign_id, fuzz_seed, profile, budget, cursor,"
                " order_json, updated_at) VALUES (?,?,?,?,?,?,?)",
                (
                    campaign_id,
                    fuzz_seed,
                    profile,
                    budget,
                    cursor,
                    json.dumps(list(order)),
                    _utcnow(),
                ),
            )

    def load_cursor(self, campaign_id: str) -> Optional[CampaignCursor]:
        row = self._conn.execute(
            "SELECT * FROM campaign_cursors WHERE campaign_id = ?",
            (campaign_id,),
        ).fetchone()
        if row is None:
            return None
        return CampaignCursor(
            campaign_id=row["campaign_id"],
            fuzz_seed=row["fuzz_seed"],
            profile=row["profile"],
            budget=row["budget"],
            cursor=row["cursor"],
            order=tuple(json.loads(row["order_json"])),
            updated_at=row["updated_at"],
        )

    def clear_cursor(self, campaign_id: str) -> None:
        with self._conn:
            self._conn.execute(
                "DELETE FROM campaign_cursors WHERE campaign_id = ?",
                (campaign_id,),
            )


# ----------------------------------------------------------------------
# Opt-in auto-persist (REPRO_WAREHOUSE)
# ----------------------------------------------------------------------
_suppress_run_persist = False


@contextmanager
def suppressed_run_autopersist() -> Iterator[None]:
    """The one worker (``sweep.run_job``) builds the full
    (params-carrying) record itself; this silences the bare
    ``Scenario.run`` hook inside so one run never lands twice with
    different params metadata."""
    global _suppress_run_persist
    previous = _suppress_run_persist
    _suppress_run_persist = True
    try:
        yield
    finally:
        _suppress_run_persist = previous


def auto_db_path() -> Optional[str]:
    """The opted-in warehouse path, if the environment names one."""
    path = os.environ.get(ENV_VAR, "").strip()
    return path or None


def _persist(callback: Any) -> None:
    path = auto_db_path()
    if path is None:
        return
    try:
        with Warehouse(path) as store:
            callback(store)
    except Exception as error:  # never let persistence break a run
        warnings.warn(
            f"{ENV_VAR}={path}: auto-persist failed ({error}); run continues",
            RuntimeWarning,
            stacklevel=3,
        )


def maybe_persist_records(
    records: Sequence[RunRecord], source: Optional[str] = None
) -> None:
    """Mirror finished records into the opted-in warehouse (no-op
    without ``REPRO_WAREHOUSE``; failures warn)."""
    if not records:
        return
    _persist(lambda store: store.ingest_records(records, source=source))


def maybe_persist_result(scenario: Any, seed: int, result: Any) -> None:
    """The ``Scenario.run`` hook: flatten and mirror one run."""
    if _suppress_run_persist or auto_db_path() is None:
        return
    record = RunRecord.from_result(scenario, seed=seed, result=result)
    maybe_persist_records([record], source="scenario.run")

