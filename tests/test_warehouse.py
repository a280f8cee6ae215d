"""Results warehouse: record round-trips, ingest, queries.

Byte-stable ``to_dict → from_dict → to_dict`` across every
optional-field combination, the tri-state ``censorship_resistance``
cell of the CSV export, the schema-version-tolerant ``aggregate()``,
corrupt-trajectory quarantine in ``bench_results``, and the SQLite
warehouse — idempotent ingest of BENCH trajectories and sweep JSON (a
CSV export is refused), exact canonical records back out,
trajectory/regression/axis/campaign queries over named metrics.
"""

import copy
import json
import sqlite3
import sys
from pathlib import Path

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
    flatten_metrics,
    maybe_persist_records,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(REPO_ROOT.glob("BENCH_*.json"))

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
import bench_results  # noqa: E402  (repo-root benchmarks/ module)

#: The deterministic throughput metrics the checked-in history carries.
THROUGHPUT_GATES = [
    ("throughput", f"closed_loop.{protocol}.blocks_per_sec", "higher")
    for protocol in ("prft", "pbft", "hotstuff")
] + [("throughput", "knee_shift", "higher")]
THROUGHPUT_METRIC_ARGS = [
    "--bench", "throughput", "--metric", "closed_loop.prft.blocks_per_sec",
]


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


class TestCorruptTrajectoryQuarantine:
    def test_sidecar_backup_and_warning(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_results, "REPO_ROOT", tmp_path)
        path = bench_results.bench_path("demo")
        path.write_text('[{"x": 1},')  # truncated JSON
        with pytest.warns(RuntimeWarning, match="history preserved"):
            assert bench_results.load_trajectory("demo") == []
        sidecar = tmp_path / "BENCH_demo.json.corrupt"
        assert sidecar.read_text() == '[{"x": 1},'
        # The next record_bench starts fresh but the history survives.
        with pytest.warns(RuntimeWarning):
            bench_results.record_bench("demo", {"x": 2})
        assert len(bench_results.load_trajectory("demo")) == 1
        assert sidecar.exists()

    def test_first_backup_kept_on_repeat(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_results, "REPO_ROOT", tmp_path)
        path = bench_results.bench_path("demo")
        sidecar = tmp_path / "BENCH_demo.json.corrupt"
        path.write_text("[1,")
        with pytest.warns(RuntimeWarning):
            bench_results.load_trajectory("demo")
        path.write_text("[2,")
        with pytest.warns(RuntimeWarning):
            bench_results.load_trajectory("demo")
        assert sidecar.read_text() == "[1,"  # most complete copy wins

    def test_non_list_payload_quarantined(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_results, "REPO_ROOT", tmp_path)
        bench_results.bench_path("demo").write_text('{"a": 1}')
        with pytest.warns(RuntimeWarning, match="expected a JSON list"):
            assert bench_results.load_trajectory("demo") == []
        assert (tmp_path / "BENCH_demo.json.corrupt").exists()


class TestWarehouseIngest:
    def test_checked_in_bench_files_ingest_idempotently(self, tmp_path):
        assert len(BENCH_FILES) >= 3, "expected the three checked-in BENCH files"
        with Warehouse(str(tmp_path / "wh.sqlite")) as store:
            total = 0
            for path in BENCH_FILES:
                outcome = store.ingest_file(str(path))
                assert outcome.kind == "bench"
                assert outcome.added == outcome.seen
                total += outcome.added
            assert store.bench_count() == total
            # Re-ingesting every file changes no rows.
            for path in BENCH_FILES:
                assert store.ingest_file(str(path)).added == 0
            assert store.bench_count() == total

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
            assert (outcome.kind, outcome.seen, outcome.added) == ("records-json", 4, 4)
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


class TestWarehouseQueries:
    @pytest.fixture()
    def store(self, tmp_path):
        with Warehouse(str(tmp_path / "wh.sqlite")) as warehouse:
            for path in BENCH_FILES:
                warehouse.ingest_file(str(path))
            yield warehouse

    def test_flatten_metrics(self):
        entry = {
            "timestamp": "t", "commit": "c", "python": "3.12", "smoke": True,
            "knee_shift": 3.5,
            "closed_loop": {"prft": {"blocks_per_sec": 0.25, "robust": True}},
            "grid": [1, 2, 3],
        }
        flat = flatten_metrics(entry)
        assert flat == {
            "knee_shift": 3.5,
            "closed_loop.prft.blocks_per_sec": 0.25,
        }

    def test_trajectory_ordered_and_filtered(self, store):
        points = store.perf_trajectory(
            bench="throughput", metric="closed_loop.prft.blocks_per_sec"
        )
        assert points, "checked-in trajectory must expose the gate metric"
        stamps = [p.timestamp for p in points]
        assert stamps == sorted(stamps)
        assert {p.metric for p in points} == {"closed_loop.prft.blocks_per_sec"}
        smoke_only = store.perf_trajectory(
            bench="throughput", metric="closed_loop.prft.blocks_per_sec", smoke=True
        )
        assert all(p.smoke for p in smoke_only)
        assert store.metrics(bench="crypto")  # crypto metrics present too

    def test_gate_passes_on_real_trajectory(self, store):
        findings = store.regressions_against_stored(THROUGHPUT_GATES, fail_over_pct=15.0)
        assert findings, "stored history must produce gate findings"
        assert not any(finding.regressed for finding in findings)

    def test_gate_fails_on_injected_regression(self, store, tmp_path):
        entries = json.loads((REPO_ROOT / "BENCH_throughput.json").read_text())
        donor = [e for e in entries if e.get("closed_loop") and e["smoke"]][-1]
        bad = copy.deepcopy(donor)
        bad["timestamp"] = "2099-01-01T00:00:00Z"
        for protocol in bad["closed_loop"]:
            bad["closed_loop"][protocol]["blocks_per_sec"] *= 0.5
        assert store.ingest_bench("throughput", [bad]) == 1
        findings = store.regressions_against_stored(THROUGHPUT_GATES, fail_over_pct=15.0)
        regressed = {f.metric for f in findings if f.regressed}
        assert "closed_loop.prft.blocks_per_sec" in regressed
        assert all(f.smoke for f in findings if f.regressed)
        # A generous tolerance swallows the same injection.
        lenient = store.regressions_against_stored(THROUGHPUT_GATES, fail_over_pct=60.0)
        assert not any(f.regressed for f in lenient)

    def test_gate_improvement_is_not_a_regression(self, store):
        entries = json.loads((REPO_ROOT / "BENCH_throughput.json").read_text())
        donor = [e for e in entries if e.get("closed_loop") and e["smoke"]][-1]
        better = copy.deepcopy(donor)
        better["timestamp"] = "2099-01-01T00:00:00Z"
        for protocol in better["closed_loop"]:
            better["closed_loop"][protocol]["blocks_per_sec"] *= 2.0
        store.ingest_bench("throughput", [better])
        assert not any(
            f.regressed
            for f in store.regressions_against_stored(THROUGHPUT_GATES, fail_over_pct=15.0)
        )

    def test_gate_needs_history(self, tmp_path):
        with Warehouse(str(tmp_path / "empty.sqlite")) as store:
            assert store.regressions_against_stored(THROUGHPUT_GATES) == []
            store.ingest_bench("throughput", [{"smoke": False, "knee_shift": 10.0}])
            # One point is no baseline.
            assert store.regressions_against_stored(THROUGHPUT_GATES) == []

    def test_gate_needs_named_metrics(self, store):
        # No default metric set: nothing named is an error, never a pass.
        with pytest.raises(ValueError, match="at least one"):
            store.regressions_against_stored([])

    def test_regression_between_commits(self, store):
        findings = store.regression_between(
            "212c79d", "855e392", bench="throughput",
            gates=[("throughput", "closed_loop.prft.blocks_per_sec", "higher")],
        )
        assert findings
        for finding in findings:
            assert finding.change_pct == pytest.approx(0.0)
            assert not finding.regressed

    def test_regression_between_infers_each_direction(self, tmp_path):
        """No ``gates`` and no ``bench``: every stored bench and metric
        is compared, a ``*_mib`` metric read lower-is-better and any
        other name higher-is-better."""
        stored = {
            "memory": ({"peak_rss_mib": 40.0, "cells": 7}, {"peak_rss_mib": 60.0, "cells": 7}),
            "speed": ({"tx_per_s": 100.0}, {"tx_per_s": 50.0}),
        }
        with Warehouse(str(tmp_path / "two.sqlite")) as store:
            for bench, entries in stored.items():
                for commit, metrics in zip(("base", "head"), entries):
                    entry = {"timestamp": commit, "commit": commit, "smoke": True, **metrics}
                    assert store.ingest_bench(bench, [entry]) == 1
            findings = store.regression_between("base", "head")
        verdicts = {
            (f.bench, f.metric): (f.direction, f.smoke, f.regressed) for f in findings
        }
        assert verdicts == {
            ("memory", "cells"): ("higher", True, False),
            ("memory", "peak_rss_mib"): ("lower", True, True),
            ("speed", "tx_per_s"): ("higher", True, True),
        }

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


class TestCliIngestReport:
    def _ingest(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "wh.sqlite")
        argv = ["ingest"] + [str(p) for p in BENCH_FILES] + ["--db", db]
        assert main(argv) == 0
        capsys.readouterr()
        return db

    def test_ingest_and_reports(self, tmp_path, capsys):
        from repro.cli import main

        db = self._ingest(tmp_path, capsys)
        assert main(["report", "trajectory", "--db", db, "--limit", "3",
                     *THROUGHPUT_METRIC_ARGS]) == 0
        out = capsys.readouterr().out
        assert "closed_loop.prft.blocks_per_sec" in out
        assert main(["report", "trajectory", "--db", db, "--bench", "crypto"]) == 0
        assert "speedup_cached_vs_nocache" in capsys.readouterr().out
        assert main(
            ["report", "regressions", "--db", db, "--against-stored", "--fail-over", "15",
             *THROUGHPUT_METRIC_ARGS]
        ) == 0
        assert "verdict" in capsys.readouterr().out
        assert main(["report", "campaign", "--db", db]) == 0
        assert "campaign clean" in capsys.readouterr().out

    def test_gate_exit_code_on_regression(self, tmp_path, capsys):
        from repro.cli import main

        db = self._ingest(tmp_path, capsys)
        entries = json.loads((REPO_ROOT / "BENCH_throughput.json").read_text())
        donor = copy.deepcopy(
            [e for e in entries if e.get("closed_loop") and e["smoke"]][-1]
        )
        donor["timestamp"] = "2099-01-01T00:00:00Z"
        for protocol in donor["closed_loop"]:
            donor["closed_loop"][protocol]["blocks_per_sec"] *= 0.5
        injected = tmp_path / "BENCH_throughput.json"
        injected.write_text(json.dumps([donor]))
        assert main(["ingest", str(injected), "--db", db]) == 0
        capsys.readouterr()
        assert main(
            ["report", "regressions", "--db", db, "--against-stored", "--fail-over", "15",
             *THROUGHPUT_METRIC_ARGS]
        ) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_ingest_missing_file_dies_cleanly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="does not exist"):
            main(["ingest", str(tmp_path / "nope.json"), "--db", str(tmp_path / "w.sqlite")])

    def test_regressions_needs_a_mode(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="pick a mode"):
            main(["report", "regressions", "--db", str(tmp_path / "w.sqlite")])

    def test_reports_without_a_metric_are_usage_errors(self, tmp_path, capsys):
        from repro.cli import main

        db = self._ingest(tmp_path, capsys)
        with pytest.raises(SystemExit, match="--bench and/or --metric"):
            main(["report", "trajectory", "--db", db])
        with pytest.raises(SystemExit, match="needs the metrics to compare"):
            main(["report", "regressions", "--db", db, "--against-stored"])
        with pytest.raises(SystemExit, match="--metric needs --bench"):
            main(["report", "regressions", "--db", db, "--against-stored",
                  "--metric", "knee_shift"])


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

    def test_bench_record_persists(self, tmp_path, monkeypatch):
        db = tmp_path / "wh.sqlite"
        monkeypatch.setenv("REPRO_WAREHOUSE", str(db))
        monkeypatch.setattr(bench_results, "REPO_ROOT", tmp_path)
        bench_results.record_bench("demo", {"metric": 1.5})
        with Warehouse(str(db)) as store:
            assert store.bench_count() == 1
            (point,) = store.perf_trajectory(bench="demo", metric="metric")
            assert point.value == 1.5

    def test_failure_warns_never_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_WAREHOUSE", str(tmp_path / "missing-dir" / "wh.sqlite")
        )
        with pytest.warns(RuntimeWarning, match="auto-persist failed"):
            maybe_persist_records([make_record()])
