"""Results warehouse: record round-trips, ingest, queries.

Byte-stable ``to_dict → from_dict → to_dict`` across every
optional-field combination, the tri-state ``censorship_resistance``
cell of the CSV export, the schema-version-tolerant ``aggregate()``,
and the SQLite warehouse — idempotent ingest of sweep JSON (a CSV
export or any other shape is refused), additive migration of an older
schema, exact canonical records back out, axis/campaign/near-miss
queries, campaign cursors, ``repro ingest`` / ``repro report
campaign`` through the CLI, and the ``REPRO_WAREHOUSE`` auto-persist.
"""

import json
import re
import sqlite3

import pytest

from repro.experiments.registry import get_scenario
from repro.experiments.results import (
    RunRecord,
    aggregate,
    write_csv,
    write_json,
)
from repro.experiments.sweep import run_job, run_sweep, expand_grid
from repro.experiments.warehouse import (
    Warehouse,
    auto_db_path,
    maybe_persist_records,
    suppressed_run_autopersist,
)


def make_record(**overrides):
    base = dict(
        scenario="synthetic",
        protocol="prft",
        params=(("n", 8),),
        seed=3,
        state="HONEST",
        robust=True,
        agreement=True,
        strict_ordering=True,
        validity=True,
        eventual_liveness=True,
        censorship_resistance=None,
        progressed=True,
        final_blocks=3,
        penalised=(1, 4),
        utilities=((1, 2.5), (2, -0.75)),
        total_messages=120,
        total_bytes=4096,
        events=500,
    )
    base.update(overrides)
    return RunRecord(**base)


ORACLE_FIELDS = dict(
    invariants=(("agreement", "ok"), ("validity", "violated")),
    invariant_violations=("validity",),
)
THROUGHPUT_SCALARS = (
    ("blocks_per_sec", 0.25),
    ("committed", 50.0),
    ("latency_p99", 4.2),
    ("peak_backlog", 8),
)
BACKLOG_SERIES = (("backlog_series", ((0.0, 0), (1.0, 3), (2.0, 1))),)


class TestRecordRoundTrip:
    """to_dict → from_dict → to_dict must be byte-stable for every
    optional-field combination (no oracle / oracle / throughput /
    backlog series / each censorship tri-state)."""

    COMBOS = {
        "plain": {},
        "oracle": ORACLE_FIELDS,
        "throughput": {"throughput": THROUGHPUT_SCALARS},
        "throughput-backlog": {
            "throughput": tuple(sorted(THROUGHPUT_SCALARS + BACKLOG_SERIES))
        },
        "oracle+throughput": {
            **ORACLE_FIELDS,
            "throughput": tuple(sorted(THROUGHPUT_SCALARS + BACKLOG_SERIES)),
        },
        "censorship-true": {"censorship_resistance": True},
        "censorship-false": {"censorship_resistance": False},
        "no-penalties": {"penalised": (), "utilities": ()},
    }

    @pytest.mark.parametrize("combo", sorted(COMBOS))
    def test_byte_stable(self, combo):
        record = make_record(**self.COMBOS[combo])
        first = json.dumps(record.to_dict(), sort_keys=True)
        rebuilt = RunRecord.from_dict(json.loads(first))
        assert rebuilt == record
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == first

    @pytest.mark.parametrize("combo", sorted(COMBOS))
    def test_byte_stable_with_timing(self, combo):
        record = make_record(wall_time=1.25, **self.COMBOS[combo])
        first = json.dumps(record.to_dict(include_timing=True), sort_keys=True)
        rebuilt = RunRecord.from_dict(json.loads(first))
        assert rebuilt == record
        assert json.dumps(rebuilt.to_dict(include_timing=True), sort_keys=True) == first

    def test_real_run_round_trips(self):
        scenario = get_scenario("honest").with_params(
            n=4, rounds=1, check_invariants=True
        )
        record = run_job(expand_grid(scenario, grid={"n": [4]}, seeds=1)[0])
        dumped = json.dumps(record.canonical(), sort_keys=True)
        rebuilt = RunRecord.from_dict(json.loads(dumped))
        assert json.dumps(rebuilt.canonical(), sort_keys=True) == dumped


class TestCsvTriState:
    def test_none_writes_empty_cell(self, tmp_path):
        path = tmp_path / "records.csv"
        write_csv(str(path), [make_record(censorship_resistance=None)])
        header, row = path.read_text().strip().splitlines()
        column = header.split(",").index("censorship_resistance")
        assert row.split(",")[column] == ""
        assert "None" not in row.split(",")[column]


class TestAggregateSchemaTolerance:
    def test_mixed_throughput_vintages_no_keyerror(self):
        # One record from before latency_p99/peak_backlog existed.
        old = make_record(seed=0, throughput=(("blocks_per_sec", 0.2),))
        new = make_record(seed=1, throughput=THROUGHPUT_SCALARS)
        summaries = aggregate([old, new])
        assert len(summaries) == 1
        summary = summaries[0]
        assert summary["mean_blocks_per_sec"] == pytest.approx(0.225)
        # Only the new record carries these scalars.
        assert summary["mean_latency_p99"] == pytest.approx(4.2)
        assert summary["max_peak_backlog"] == 8

    def test_no_scalar_overlap_at_all(self):
        record = make_record(throughput=(("committed", 10.0),))
        summary = aggregate([record])[0]
        assert "mean_blocks_per_sec" not in summary
        assert "mean_latency_p99" not in summary
        assert "max_peak_backlog" not in summary


class TestWarehouseIngest:
    def test_records_file_reingests_idempotently(self, tmp_path):
        path = tmp_path / "records.json"
        records = [make_record(seed=seed) for seed in range(3)]
        write_json(str(path), records)
        with Warehouse(str(tmp_path / "wh.sqlite")) as store:
            outcome = store.ingest_file(str(path))
            assert (outcome.seen, outcome.added) == (3, 3)
            # Re-ingesting the file changes no rows.
            assert store.ingest_file(str(path)).added == 0
            assert store.run_count() == 3

    def test_sweep_json_ingests_and_its_csv_export_is_refused(self, tmp_path):
        sweep = run_sweep(
            get_scenario("honest").with_params(rounds=1),
            grid={"n": [4, 5]},
            seeds=2,
        )
        json_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        write_json(str(json_path), sweep.records, meta=sweep.meta())
        write_csv(str(csv_path), sweep.records)
        with Warehouse(str(tmp_path / "wh.sqlite")) as store:
            outcome = store.ingest_file(str(json_path))
            assert (outcome.seen, outcome.added) == (4, 4)
            # The CSV is an export only: a lossy copy, never read back.
            with pytest.raises(ValueError, match="unrecognised shape"):
                store.ingest_file(str(csv_path))
            assert store.ingest_records(sweep.records) == 0  # idempotent
            # Exact canonical records back out, in insertion order.
            assert store.canonical_records() == [r.canonical() for r in sweep.records]
            assert store.stored_records() == [
                RunRecord.from_dict(r.canonical()) for r in sweep.records
            ]

    def test_censorship_tristate_lands_as_null(self, tmp_path):
        records = [
            make_record(seed=seed, censorship_resistance=value)
            for seed, value in enumerate((None, True, False))
        ]
        db = tmp_path / "wh.sqlite"
        with Warehouse(str(db)) as store:
            store.ingest_records(records)
        rows = sqlite3.connect(str(db)).execute(
            "SELECT seed, censorship_resistance FROM runs ORDER BY seed"
        ).fetchall()
        assert rows == [(0, None), (1, 1), (2, 0)]

    def test_unrecognised_shape_rejected(self, tmp_path):
        bad = tmp_path / "mystery.json"
        bad.write_text('{"not": "records"}')
        with Warehouse(str(tmp_path / "wh.sqlite")) as store:
            with pytest.raises(ValueError, match="unrecognised shape"):
                store.ingest_file(str(bad))

    def test_a_list_of_measurements_is_refused(self, tmp_path):
        """A list payload — the shape of an old per-commit measurement
        file — is not a records file."""
        bad = tmp_path / "measurements.json"
        bad.write_text(json.dumps([{"commit": "abc1234", "smoke": True, "knee_shift": 3.5}]))
        with Warehouse(str(tmp_path / "wh.sqlite")) as store:
            with pytest.raises(ValueError, match="unrecognised shape"):
                store.ingest_file(str(bad))
            assert store.run_count() == 0

    def test_a_database_with_undeclared_tables_opens_and_works(self, tmp_path):
        """Tables the schema does not declare (an older database's
        measurement tables, say) are left alone and never read."""
        db = tmp_path / "old.sqlite"
        with sqlite3.connect(str(db)) as conn:
            conn.execute("CREATE TABLE measurements (id INTEGER PRIMARY KEY, metric TEXT)")
            conn.execute("INSERT INTO measurements(metric) VALUES ('knee_shift')")
        with Warehouse(str(db)) as store:
            assert store.ingest_records([make_record()]) == 1
            assert store.run_count() == 1

    def test_a_database_without_the_newer_columns_is_migrated(self, tmp_path):
        """A database from before the near-miss score and skip status
        gains those columns on open, and stores both."""
        db = tmp_path / "old.sqlite"
        with sqlite3.connect(str(db)) as conn:
            conn.execute(
                "CREATE TABLE runs (id INTEGER PRIMARY KEY, fingerprint TEXT NOT NULL UNIQUE,"
                " scenario TEXT NOT NULL, protocol TEXT NOT NULL, seed INTEGER NOT NULL,"
                " params_json TEXT NOT NULL, state TEXT NOT NULL, robust INTEGER NOT NULL,"
                " agreement INTEGER NOT NULL, strict_ordering INTEGER NOT NULL,"
                " validity INTEGER NOT NULL, eventual_liveness INTEGER NOT NULL,"
                " censorship_resistance INTEGER, progressed INTEGER NOT NULL,"
                " final_blocks INTEGER NOT NULL, total_messages INTEGER NOT NULL,"
                " total_bytes INTEGER NOT NULL, events INTEGER NOT NULL,"
                " blocks_per_sec REAL, latency_p99 REAL, peak_backlog REAL,"
                " oracle_checked INTEGER NOT NULL, violation_count INTEGER NOT NULL,"
                " wall_time REAL NOT NULL DEFAULT 0.0, record_json TEXT NOT NULL,"
                " source TEXT, ingested_at TEXT NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE run_violations (run_id INTEGER NOT NULL, checker TEXT NOT NULL,"
                " PRIMARY KEY (run_id, checker))"
            )
        record = make_record(
            invariants=(("liveness", "skipped"),),
            invariant_notes=(("liveness", "outside the liveness envelope"),),
            near_miss=(("score", 0.5),),
        )
        with Warehouse(str(db)) as store:
            assert store.ingest_records([record]) == 1
            assert store.near_miss_buckets() == {("prft", "none"): (0.5, 1)}
            assert store.campaign_summary().skipped == (("liveness", 1),)
            assert store.stored_records() == [record]

    def test_not_null_verdict_columns_are_relaxed_once_keeping_every_row(self, tmp_path):
        """A database from when robust/validity were always judged is
        rebuilt on first open: its rows and side-table rows survive, and
        an unjudged record then stores NULL in both columns."""
        db = tmp_path / "old.sqlite"
        with Warehouse(str(db)) as store:
            store.ingest_records([make_record(**ORACLE_FIELDS)])
        with sqlite3.connect(str(db)) as conn:
            schema = conn.execute("SELECT sql FROM sqlite_master WHERE name = 'runs'").fetchone()[0]
            strict = re.sub(r"INTEGER,\s*-- tri-state: NULL = not judged", "INTEGER NOT NULL,", schema)
            assert strict.count("NOT NULL,") - schema.count("NOT NULL,") == 2
            columns = ", ".join(row[1] for row in conn.execute("PRAGMA table_info(runs)"))
            conn.executescript(
                re.sub(r"^CREATE TABLE (IF NOT EXISTS )?runs", "CREATE TABLE runs_strict", strict)
                + f"; INSERT INTO runs_strict ({columns}) SELECT {columns} FROM runs;"
                "DROP TABLE runs; ALTER TABLE runs_strict RENAME TO runs;"
            )
        refused = make_record(seed=4, robust=None, validity=None)
        with Warehouse(str(db)) as store:
            notnull = {row[1]: row[3] for row in store._conn.execute("PRAGMA table_info(runs)")}
            assert notnull["robust"] == notnull["validity"] == 0
            assert store.ingest_records([refused]) == 1
            assert store.stored_records() == [make_record(**ORACLE_FIELDS), refused]
            assert store.campaign_summary().violating_runs == 1
            assert store.axis_aggregates("n")[0].robust_fraction == 1.0

    def test_a_record_repeated_in_one_batch_is_one_row(self, tmp_path):
        record = make_record()
        with Warehouse(str(tmp_path / "wh.sqlite")) as store:
            assert store.ingest_records([record, record, make_record(seed=4)]) == 2
            assert store.run_count() == 2

    def test_ingest_file_stores_the_file_name_as_source(self, tmp_path):
        path = tmp_path / "campaign.json"
        write_json(str(path), [make_record()])
        with Warehouse(str(tmp_path / "wh.sqlite")) as store:
            store.ingest_file(str(path))
            sources = [row[0] for row in store._conn.execute("SELECT source FROM runs")]
        assert sources == ["campaign.json"]

    def test_canonical_records_filter_by_scenario_and_protocol(self, tmp_path):
        records = [
            make_record(scenario=scenario, protocol=protocol)
            for scenario in ("fork", "honest")
            for protocol in ("prft", "pbft")
        ]
        with Warehouse(str(tmp_path / "wh.sqlite")) as store:
            store.ingest_records(records)
            assert store.canonical_records() == [r.canonical() for r in records]
            assert store.stored_records(scenario="fork") == records[:2]
            assert store.stored_records(protocol="pbft") == [records[1], records[3]]
            assert store.stored_records(scenario="honest", protocol="prft") == [records[2]]
            assert store.stored_records(scenario="absent") == []


class TestWarehouseQueries:
    def test_axis_aggregates(self, tmp_path):
        records = [
            make_record(seed=seed, params=(("n", n),), robust=(n == 4))
            for n in (4, 8)
            for seed in (0, 1)
        ]
        with Warehouse(str(tmp_path / "wh.sqlite")) as store:
            store.ingest_records(records)
            aggregates = {a.value: a for a in store.axis_aggregates("n")}
        assert set(aggregates) == {4, 8}
        assert aggregates[4].runs == 2
        assert aggregates[4].robust_fraction == 1.0
        assert aggregates[8].robust_fraction == 0.0

    def test_campaign_triage(self, tmp_path):
        clean = make_record(seed=0, invariants=(("agreement", "ok"),))
        violating = [
            make_record(
                scenario=f"fuzz-{index}",
                seed=index,
                invariants=(("agreement", "violated"),),
                invariant_violations=("agreement",),
            )
            for index in range(3)
        ]
        unchecked = make_record(seed=9)
        with Warehouse(str(tmp_path / "wh.sqlite")) as store:
            store.ingest_records([clean, unchecked] + violating)
            summary = store.campaign_summary(examples=2)
        assert summary.total_runs == 5
        assert summary.checked_runs == 4
        assert summary.violating_runs == 3
        (group,) = summary.by_checker
        assert group.checker == "agreement"
        assert group.runs == 3
        assert group.scenarios == ("fuzz-0", "fuzz-1", "fuzz-2")
        assert len(group.examples) == 2

    def test_skipped_verdicts_are_not_violations(self, tmp_path):
        skipped = [
            make_record(
                seed=seed,
                invariants=(("agreement", "ok"), ("liveness", "skipped")),
                invariant_notes=(("liveness", "outside the liveness envelope"),),
            )
            for seed in (0, 1)
        ]
        with Warehouse(str(tmp_path / "wh.sqlite")) as store:
            store.ingest_records(skipped)
            summary = store.campaign_summary()
        assert (summary.total_runs, summary.checked_runs, summary.violating_runs) == (2, 2, 0)
        assert summary.by_checker == ()
        assert summary.skipped == (("liveness", 2),)

    def test_near_miss_buckets_key_by_protocol_attack_and_gene(self, tmp_path):
        records = [
            make_record(seed=0, params=(), near_miss=(("score", 0.2),)),
            make_record(seed=1, params=(), near_miss=(("score", 0.4),)),
            make_record(seed=2, params=(("attack", "fork"),), near_miss=(("score", 0.9),)),
            make_record(seed=3, params=(("attack", "fork"), ("gene", "g1")),
                        near_miss=(("score", 0.6),)),
            make_record(seed=4, protocol="pbft", params=(), near_miss=(("score", 0.1),)),
            make_record(seed=5, params=(("attack", "fork"),)),  # unscored: not counted
        ]
        with Warehouse(str(tmp_path / "wh.sqlite")) as store:
            store.ingest_records(records)
            buckets = store.near_miss_buckets()
        assert set(buckets) == {("prft", "none"), ("prft", "fork"), ("prft", "gene"),
                                ("pbft", "none")}
        assert buckets[("prft", "none")] == (pytest.approx(0.3), 2)
        assert buckets[("prft", "fork")] == (0.9, 1)
        assert buckets[("prft", "gene")] == (0.6, 1)
        assert buckets[("pbft", "none")] == (0.1, 1)

    def test_axis_aggregates_average_near_miss_and_throughput(self, tmp_path):
        records = [
            make_record(
                seed=seed,
                throughput=(("blocks_per_sec", 0.25 * (seed + 1)),),
                near_miss=None if seed == 2 else (("score", 0.1 * (seed + 1)),),
                invariants=(("agreement", "violated"),) if seed == 0 else None,
                invariant_violations=("agreement",) if seed == 0 else (),
            )
            for seed in range(3)
        ]
        with Warehouse(str(tmp_path / "wh.sqlite")) as store:
            store.ingest_records(records)
            (aggregate,) = store.axis_aggregates("n")
            assert store.axis_aggregates("absent") == []
        assert (aggregate.value, aggregate.runs, aggregate.violating_runs) == (8, 3, 1)
        assert aggregate.mean_blocks_per_sec == pytest.approx(0.5)
        assert aggregate.mean_near_miss == pytest.approx(0.15)  # the unscored run is left out
        assert aggregate.mean_messages == 120


class TestCampaignCursors:
    def test_cursors_survive_reopening_the_database(self, tmp_path):
        db = str(tmp_path / "wh.sqlite")
        with Warehouse(db) as store:
            store.save_cursor("c1", 7, "safe", 4, 2, [2, 0, 3, 1])
        with Warehouse(db) as store:
            cursor = store.load_cursor("c1")
        assert (cursor.campaign_id, cursor.fuzz_seed, cursor.profile, cursor.budget) == (
            "c1", 7, "safe", 4,
        )
        assert (cursor.cursor, cursor.order) == (2, (2, 0, 3, 1))
        assert not cursor.finished

    def test_campaigns_keep_separate_cursors(self, tmp_path):
        with Warehouse(str(tmp_path / "wh.sqlite")) as store:
            store.save_cursor("a", 1, "safe", 3, 1, [0, 1, 2])
            store.save_cursor("b", 2, "wide", 2, 2, [1, 0])
            store.save_cursor("a", 1, "safe", 3, 3, [0, 1, 2])  # upsert, not a second row
            assert store.load_cursor("a").finished
            assert store.load_cursor("b").finished
            store.clear_cursor("a")
            assert store.load_cursor("a") is None
            assert store.load_cursor("b").order == (1, 0)
            store.clear_cursor("never-saved")  # forgetting nothing is no error
            assert store._conn.execute("SELECT COUNT(*) FROM campaign_cursors").fetchone()[0] == 1


class TestCliIngestReport:
    def test_ingest_sweep_json_then_report_campaign(self, tmp_path, capsys):
        from repro.cli import main

        sweep_json, db = str(tmp_path / "sweep.json"), str(tmp_path / "wh.sqlite")
        assert main(["sweep", "honest", "--grid", "n=4", "--grid", "rounds=1",
                     "--seeds", "2", "--check", "--out", sweep_json]) == 0
        capsys.readouterr()
        assert main(["ingest", sweep_json, "--db", db]) == 0
        out = capsys.readouterr().out
        assert "holds 2 run record(s)" in out
        assert main(["ingest", sweep_json, "--db", db]) == 0
        out = capsys.readouterr().out
        assert re.search(r"\| 2 +\| 0 *$", out, re.MULTILINE)  # 2 records, 0 new rows
        assert "holds 2 run record(s)" in out
        assert main(["report", "campaign", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "2 run(s), 2 oracle-checked, 0 violating" in out
        assert "campaign clean" in out

    def test_ingest_takes_several_files_in_one_call(self, tmp_path, capsys):
        from repro.cli import main

        first, second = tmp_path / "first.json", tmp_path / "second.json"
        write_json(str(first), [make_record(seed=0), make_record(seed=1)])
        write_json(str(second), [make_record(seed=1), make_record(seed=2)])
        db = str(tmp_path / "wh.sqlite")
        assert main(["ingest", str(first), str(second), "--db", db]) == 0
        out = capsys.readouterr().out
        assert re.search(r"first\.json +\| 2 +\| 2 *$", out, re.MULTILINE)
        assert re.search(r"second\.json +\| 2 +\| 1 *$", out, re.MULTILINE)
        assert "holds 3 run record(s)" in out

    def test_report_campaign_names_violations_and_skips(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "wh.sqlite")
        with Warehouse(db) as store:
            store.ingest_records([
                make_record(scenario="fuzz-0", seed=0, invariants=(("agreement", "violated"),),
                            invariant_violations=("agreement",)),
                make_record(seed=1, invariants=(("liveness", "skipped"),),
                            invariant_notes=(("liveness", "outside the liveness envelope"),)),
            ])
        assert main(["report", "campaign", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "2 run(s), 2 oracle-checked, 1 violating" in out
        assert re.search(r"agreement +\| 1 +\| fuzz-0 +\| fuzz-0@0", out)
        assert "campaign clean" not in out
        assert "skipped verdicts (retention/applicability): liveness:1" in out

    def test_ingest_missing_file_dies_cleanly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="does not exist"):
            main(["ingest", str(tmp_path / "nope.json"), "--db", str(tmp_path / "w.sqlite")])

    @pytest.mark.parametrize("name, text", [
        ("sweep.csv", "scenario,seed\nhonest,0\n"),
        ("mystery.json", '{"not": "records"}'),
    ])
    def test_ingest_error_names_the_file_once(self, tmp_path, name, text):
        from repro.cli import main

        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(SystemExit) as raised:
            main(["ingest", str(path), "--db", str(tmp_path / "w.sqlite")])
        message = str(raised.value.code)
        assert message.startswith(f"ingest: {path}: unrecognised shape")
        assert message.count(str(path)) == 1

    def test_ingest_without_files_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as raised:
            main(["ingest", "--db", str(tmp_path / "w.sqlite")])
        assert raised.value.code == 2
        assert "FILE" in capsys.readouterr().err
        assert not (tmp_path / "w.sqlite").exists()


class TestAutoPersist:
    def test_disabled_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_WAREHOUSE", raising=False)
        maybe_persist_records([make_record()])  # must be a silent no-op
        assert not (tmp_path / "wh.sqlite").exists()

    def test_scenario_run_persists(self, tmp_path, monkeypatch):
        db = tmp_path / "wh.sqlite"
        monkeypatch.setenv("REPRO_WAREHOUSE", str(db))
        get_scenario("honest").with_params(n=4, rounds=1).run(seed=0)
        with Warehouse(str(db)) as store:
            assert store.run_count() == 1
            (record,) = store.stored_records()
            assert record.scenario == "honest"

    def test_sweep_worker_persists_once(self, tmp_path, monkeypatch):
        db = tmp_path / "wh.sqlite"
        monkeypatch.setenv("REPRO_WAREHOUSE", str(db))
        run_sweep(
            get_scenario("honest").with_params(rounds=1), grid={"n": [4, 5]}, seeds=1
        )
        with Warehouse(str(db)) as store:
            # One params-carrying row per job — the bare Scenario.run
            # hook inside the worker is suppressed.
            assert store.run_count() == 2
            params = [r.param_dict() for r in store.stored_records()]
            assert sorted(p["n"] for p in params) == [4, 5]

    def test_failure_warns_never_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_WAREHOUSE", str(tmp_path / "missing-dir" / "wh.sqlite")
        )
        with pytest.warns(RuntimeWarning, match="auto-persist failed"):
            maybe_persist_records([make_record()])

    def test_blank_env_is_disabled(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_WAREHOUSE", "   ")
        assert auto_db_path() is None
        get_scenario("honest").with_params(n=4, rounds=1).run(seed=0)
        maybe_persist_records([make_record()])
        assert list(tmp_path.iterdir()) == []

    def test_no_records_opens_no_database(self, tmp_path, monkeypatch):
        db = tmp_path / "wh.sqlite"
        monkeypatch.setenv("REPRO_WAREHOUSE", str(db))
        maybe_persist_records([])
        assert not db.exists()

    def test_suppression_nests_and_restores(self, tmp_path, monkeypatch):
        db = tmp_path / "wh.sqlite"
        monkeypatch.setenv("REPRO_WAREHOUSE", str(db))
        scenario = get_scenario("honest").with_params(n=4, rounds=1)
        with suppressed_run_autopersist():
            with suppressed_run_autopersist():
                scenario.run(seed=0)
            scenario.run(seed=1)  # the outer block still suppresses
        assert not db.exists()
        scenario.run(seed=2)
        with Warehouse(str(db)) as store:
            assert [r.seed for r in store.stored_records()] == [2]
