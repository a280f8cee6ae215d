"""Adversary search engine: gene space, best response, scoring, campaigns.

The ``search`` marker tags this module for ``make search-smoke`` (and
CI's search-smoke job); plain ``pytest`` also runs it as part of the
default tier.
"""

import hashlib
import json
import sqlite3

import pytest

from repro.experiments import RunRecord, Scenario, get_scenario
from repro.experiments.fuzz import (
    campaign_order,
    default_campaign_id,
    generate_trial,
    run_fuzz,
)
from repro.experiments.warehouse import Warehouse
from repro.search.bestresponse import (
    REPRO_FORMAT,
    SearchEnv,
    best_response,
    build_point_scenario,
    coalition_cap,
    environments,
    gene_class,
    search_equilibrium,
)
from repro.search.score import (
    bucket_of,
    near_miss_components,
    near_miss_score,
    priority_hint,
    score_of,
    with_near_miss,
)
from repro.search.space import StrategyGene, draw_gene

pytestmark = pytest.mark.search


class TestGeneSerialisation:
    def test_json_payload_is_byte_stable(self):
        gene = StrategyGene(equivocate=1.0, coalition=3, silence=("vote",))
        payload = json.dumps(gene.to_dict(), sort_keys=True)
        rebuilt = StrategyGene.from_dict(json.loads(payload))
        assert rebuilt == gene
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == payload

    def test_to_dict_omits_defaults(self):
        assert StrategyGene().to_dict() == {}
        assert StrategyGene(equivocate=0.5).to_dict() == {"equivocate": 0.5}

    def test_field_round_trip(self):
        gene = StrategyGene(withhold=0.34, coalition=2, suppress_fraud=True)
        field = gene.as_field()
        assert field == tuple(sorted(field))  # canonical ordering
        assert StrategyGene.from_field(field) == gene
        assert StrategyGene.from_field(None) == StrategyGene()

    def test_from_dict_rejects_unknown_knobs(self):
        with pytest.raises(ValueError, match="unknown gene knobs"):
            StrategyGene.from_dict({"equivocate": 1.0, "bribe": 3})

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            StrategyGene(equivocate=1.5)
        with pytest.raises(ValueError):
            StrategyGene(coalition=0)
        with pytest.raises(ValueError):
            StrategyGene(silence=("bogus-phase",))


class TestGeneShrinking:
    def test_moves_step_toward_default(self):
        gene = StrategyGene(
            equivocate=1.0, silence=("vote",), withhold=0.34,
            timing_skew=0.5, coalition=3, suppress_fraud=True,
        )
        for move in gene.shrink_moves():
            assert move != gene
            # each move zeroes or trims exactly one knob
            diffs = [
                knob for knob in (
                    "equivocate", "silence", "withhold",
                    "timing_skew", "coalition", "censor", "suppress_fraud",
                )
                if getattr(move, knob) != getattr(gene, knob)
            ]
            assert len(diffs) == 1

    def test_shrinking_terminates_at_honest_play(self):
        gene = StrategyGene(
            equivocate=1.0, silence=("vote", "commit"), withhold=0.67,
            timing_skew=1.0, coalition=4, censor=("tx-0",), suppress_fraud=True,
        )
        seen = 0
        while gene.shrink_moves():
            gene = gene.shrink_moves()[0]
            seen += 1
            assert seen < 32, "shrinking must terminate"
        assert gene == StrategyGene()
        assert not gene.active

    def test_draw_gene_is_deterministic_and_active(self):
        import random

        first = draw_gene(random.Random(42), "safe", 3)
        second = draw_gene(random.Random(42), "safe", 3)
        assert first == second
        assert first.active
        assert 1 <= first.coalition <= 3


class TestNearMissScore:
    def test_honest_run_scores_near_zero(self):
        scenario = get_scenario("honest")
        result = scenario.run(seed=0)
        components = near_miss_components(result)
        assert all(value >= 0.0 for value in components.values())
        assert near_miss_score(components) < 0.2

    def test_fork_run_scores_high_and_is_deterministic(self):
        scenario = get_scenario("fork").with_params(check_invariants=True)
        result = scenario.run(seed=0)
        record = RunRecord.from_result(scenario, 0, result)
        assert record.near_miss is None  # opt-in: from_result never attaches it
        scored = with_near_miss(record, result)
        value = score_of(scored)
        assert value is not None and 0.5 < value < 1.0
        again = with_near_miss(record, scenario.run(seed=0))
        assert again.near_miss == scored.near_miss

    def test_priority_hint_orders_pressure(self):
        honest = get_scenario("honest")
        fork = get_scenario("fork")
        assert priority_hint(fork) > priority_hint(honest)

    def test_bucket_of(self):
        assert bucket_of(get_scenario("honest"))[1] == "none"
        gene = get_scenario("honest").with_params(
            rational_ids=(0,), gene=StrategyGene(withhold=0.34).as_field()
        )
        assert bucket_of(gene) == (gene.protocol, "gene")


class TestOracleCheckers:
    """The two new catalog-wide checkers (Fig. 3 envelope, Eq. 1)."""

    @pytest.mark.parametrize("name", ["honest", "fork", "liveness"])
    def test_checkers_run_and_pass_on_catalog(self, name):
        scenario = get_scenario(name).with_params(check_invariants=True)
        record = RunRecord.from_result(scenario, 0, scenario.run(seed=0))
        verdicts = dict(record.invariants)
        assert "message-complexity" in verdicts
        assert "utility-consistency" in verdicts
        assert verdicts["message-complexity"] != "violated"
        assert verdicts["utility-consistency"] != "violated"


class TestWarehousePersistence:
    def test_skipped_verdicts_and_near_miss_land_in_db(self, tmp_path):
        scenario = get_scenario("fork").with_params(check_invariants=True)
        result = scenario.run(seed=0)
        record = with_near_miss(RunRecord.from_result(scenario, 0, result), result)
        assert record.invariant_notes  # fork retires liveness expectations
        db = str(tmp_path / "wh.sqlite")
        with Warehouse(db) as store:
            store.ingest_records([record], source="test")
            rows = store._conn.execute(
                "SELECT checker, status, reason FROM run_violations"
            ).fetchall()
            score = store._conn.execute("SELECT near_miss FROM runs").fetchone()[0]
        statuses = {(row[0], row[1]) for row in rows}
        assert ("liveness", "skipped") in statuses
        reasons = {row[0]: row[2] for row in rows if row[1] == "skipped"}
        assert reasons["liveness"] == "outside the liveness envelope"
        assert score == pytest.approx(score_of(record))

    def test_search_runs_land_in_the_gene_bucket(self, tmp_path, monkeypatch):
        db = str(tmp_path / "wh.sqlite")
        monkeypatch.setenv("REPRO_WAREHOUSE", db)
        search_equilibrium(("prft",), thetas=(1,), n=4, seeds=(0,))
        with Warehouse(db) as store:
            assert ("prft", "gene") in store.near_miss_buckets()

    def test_cursor_round_trip(self, tmp_path):
        db = str(tmp_path / "wh.sqlite")
        with Warehouse(db) as store:
            assert store.load_cursor("c1") is None
            store.save_cursor("c1", 7, "safe", 10, 4, [3, 1, 2, 0, 4, 5, 6, 7, 8, 9])
            cursor = store.load_cursor("c1")
            assert cursor.fuzz_seed == 7
            assert cursor.cursor == 4
            assert cursor.order == (3, 1, 2, 0, 4, 5, 6, 7, 8, 9)
            assert not cursor.finished
            store.save_cursor("c1", 7, "safe", 10, 10, [3, 1, 2, 0, 4, 5, 6, 7, 8, 9])
            assert store.load_cursor("c1").finished
            store.clear_cursor("c1")
            assert store.load_cursor("c1") is None


class TestCampaigns:
    def test_unguided_order_is_index_order(self):
        trials = [generate_trial(0, i, "safe") for i in range(6)]
        assert campaign_order(trials, guided=False) == list(range(6))

    def test_guided_order_is_deterministic_permutation(self, tmp_path):
        trials = [generate_trial(0, i, "safe") for i in range(12)]
        order = campaign_order(trials, guided=True)
        assert sorted(order) == list(range(12))
        assert order == campaign_order(trials, guided=True)

    def test_campaign_checkpoints_and_resume_is_exact(self, tmp_path):
        db = str(tmp_path / "wh.sqlite")
        cid = "camp-test"
        full = run_fuzz(
            budget=8, fuzz_seed=3, profile="safe", campaign_id=cid,
            db=db, max_shrinks=0, checkpoint_every=3,
        )
        with Warehouse(db) as store:
            cursor = store.load_cursor(cid)
            stored_runs = store.run_count()
        assert cursor is not None and cursor.finished
        assert stored_runs == 8
        # a finished campaign resumes to a no-op
        resumed = run_fuzz(
            budget=8, fuzz_seed=3, profile="safe", campaign_id=cid,
            db=db, resume=True, max_shrinks=0,
        )
        assert resumed.records == []
        # an interrupted campaign picks up exactly where the cursor stopped
        with Warehouse(db) as store:
            store.save_cursor(cid, 3, "safe", 8, 5, list(cursor.order))
        tail = run_fuzz(
            budget=8, fuzz_seed=3, profile="safe", campaign_id=cid,
            db=db, resume=True, max_shrinks=0,
        )
        assert [r.to_dict() for r in tail.records] == [
            r.to_dict() for r in full.records[5:]
        ]

    def test_resume_rejects_mismatched_parameters(self, tmp_path):
        db = str(tmp_path / "wh.sqlite")
        run_fuzz(budget=3, fuzz_seed=1, profile="safe", campaign_id="c",
                 db=db, max_shrinks=0)
        with pytest.raises(ValueError, match="refusing to resume"):
            run_fuzz(budget=3, fuzz_seed=2, profile="safe", campaign_id="c",
                     db=db, resume=True, max_shrinks=0)
        with pytest.raises(ValueError, match="needs a warehouse"):
            run_fuzz(budget=3, fuzz_seed=1, resume=True, max_shrinks=0)

    def test_guided_history_is_keyed_like_the_trials(self, tmp_path):
        """A campaign files each scored run under the bucket its trial
        is later looked up by, so attacked trials get their own
        history and the guided order moves them."""
        db = str(tmp_path / "wh.sqlite")
        campaign = run_fuzz(budget=24, fuzz_seed=0, db=db, max_shrinks=0)
        with Warehouse(db) as store:
            buckets = store.near_miss_buckets()
        keys = {bucket_of(trial.scenario) for trial in campaign.trials}
        assert keys <= set(buckets)
        assert any(disturbance != "none" for _, disturbance in keys)

        trials = sorted(campaign.trials, key=lambda trial: trial.index)
        attacked = [t.index for t in trials if bucket_of(t.scenario)[1] != "none"]

        def attacked_order(order):
            return [index for index in order if index in attacked]

        assert attacked_order(campaign_order(trials, True, db)) != attacked_order(
            campaign_order(trials, True)
        ), "stored history must reorder the attacked trials"

    def test_guided_order_refuses_a_non_sqlite_db(self, tmp_path):
        from repro.cli import main

        junk = tmp_path / "junk.sqlite"
        junk.write_text("not a database\n")
        trials = [generate_trial(0, i, "safe") for i in range(3)]
        with pytest.raises(sqlite3.DatabaseError):
            campaign_order(trials, guided=True, db_path=str(junk))
        with pytest.raises(SystemExit, match="fuzz: warehouse: file is not a database"):
            main(["fuzz", "--budget", "2", "--guided", "--db", str(junk)])

    def test_default_campaign_id(self):
        assert default_campaign_id(0, "safe", 40, False) == "fuzz-0-safe-40-linear"
        assert default_campaign_id(2, "wild", 9, True) == "fuzz-2-wild-9-guided"


class TestBestResponse:
    def test_environment_grid(self):
        inactive = StrategyGene()
        assert [env.label() for env in environments(inactive, 6)] == ["clean/qd"]
        fork = StrategyGene(equivocate=1.0)
        labels = [env.label() for env in environments(fork, 6)]
        assert set(labels) == {"clean/qd", "clean/q6", "split/qd", "split/q6"}
        omission = StrategyGene(silence=("vote",))
        assert all(env.quorum is None for env in environments(omission, 6))

    def test_coalition_caps_respect_theorems(self):
        # Theorem 1: omission coalitions stay within t0.
        assert coalition_cap(9, 2, "omission") == 2
        # Fork coalitions stay below every admissible quorum intersection.
        assert coalition_cap(9, 2, "fork") == 4
        assert gene_class(StrategyGene(equivocate=0.5)) == "fork"
        assert gene_class(StrategyGene(withhold=0.5)) == "omission"
        assert gene_class(StrategyGene()) == "inactive"

    def test_point_scenario_round_trips_through_json(self):
        gene = StrategyGene(equivocate=1.0, coalition=3)
        env = SearchEnv(schedule="split", quorum=6)
        scenario = build_point_scenario("pbft", 1, gene, env, n=9)
        rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert rebuilt.to_dict() == scenario.to_dict()

    def test_prft_holds_equilibrium_at_n4(self):
        report = search_equilibrium(("prft",), thetas=(1, 2, 3), n=4, seeds=(0,))
        assert report.dsic
        assert all(result.evaluations > 0 for result in report.results)

    @pytest.mark.parametrize("kwargs, digest", [
        (dict(protocols=("prft", "trap"), n=4),
         "94992c9ca7ad16e5a4dad9b159afe4a77566cfa2639c57da82511321a32efb9f"),
        (dict(protocols=("pbft",), thetas=(1,)),
         "3f67699d5e22b53532d855c9617a27fbfb8888ac5d0a95f830bc4cbd27889b0b"),
    ])
    def test_search_smoke_reports_are_pinned(self, kwargs, digest):
        """`make search-smoke`'s two invocations, byte for byte: the
        hashes were generated at 7c6cec5, before the search read its
        utilities, burns and states off the shared worker's records."""
        report = search_equilibrium(jobs=2, **kwargs).to_json()
        assert hashlib.sha256(report.encode()).hexdigest() == digest

    @pytest.mark.parametrize("protocol", ["pbft", "trap"])
    def test_baseline_deviation_replays_identically(self, protocol, tmp_path):
        """A discovered deviation must replay byte-identically from its
        exported repro JSON (the per-protocol regression gate)."""
        result = best_response(protocol, theta=1, n=9, seeds=(0,))
        assert result.profitable, f"{protocol} should admit a profitable fork"
        deviation = result.best
        assert deviation.margin > 0.0
        entry = deviation.repro_entry()
        assert entry["format"] == REPRO_FORMAT
        path = tmp_path / f"deviation-{protocol}.json"
        path.write_text(json.dumps(entry, indent=2, sort_keys=True))

        payload = json.loads(path.read_text())
        replayed = Scenario.from_dict(payload["scenario"])
        assert replayed.to_dict() == deviation.scenario.to_dict()
        seed = payload["seed"]
        first = RunRecord.from_result(replayed, seed, replayed.run(seed=seed))
        second = RunRecord.from_result(replayed, seed, replayed.run(seed=seed))
        assert first.to_dict() == second.to_dict()
        assert first.state == deviation.states[0]


class TestSearchCLI:
    def test_equilibrium_exit_zero_when_dsic(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "search", "equilibrium", "--protocol", "prft", "-n", "4",
            "--artifacts", str(tmp_path / "artifacts"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "equilibrium holds" in out

    def test_equilibrium_exit_two_and_artifact_replays(self, tmp_path, capsys):
        from repro.cli import main

        artifacts = tmp_path / "artifacts"
        rc = main([
            "search", "equilibrium", "--protocol", "pbft", "--theta", "1",
            "--artifacts", str(artifacts), "--out", str(tmp_path / "report.json"),
        ])
        assert rc == 2
        out = capsys.readouterr().out
        assert "DEVIATION FOUND" in out
        assert "oracle clean" in out
        repro_file = artifacts / "deviation-pbft-th1.json"
        assert repro_file.exists()
        payload = json.loads(repro_file.read_text())
        assert payload["format"] == REPRO_FORMAT
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["dsic"] is False
        # the exported repro replays through the generic run-from-file path
        assert main(["run", str(repro_file)]) == 0
