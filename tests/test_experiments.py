"""Tests for the experiment orchestration layer (repro.experiments)."""

import json

import pytest

from repro.experiments import (
    Scenario,
    expand_grid,
    get_scenario,
    read_json,
    records_to_json,
    resolve_seeds,
    run_job,
    run_sweep,
    scenario_catalog,
    write_csv,
    write_json,
)
from repro.experiments.results import aggregate, mean, percentile
from repro.gametheory.payoff import PlayerType


class TestRegistry:
    def test_catalog_has_the_cli_scenarios(self):
        catalog = scenario_catalog()
        for name in ("honest", "fork", "liveness", "censorship"):
            assert name in catalog

    def test_lookup_returns_registered_scenario(self):
        scenario = get_scenario("honest")
        assert scenario.name == "honest"
        assert scenario.attack is None

    def test_unknown_scenario_raises_with_catalog(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("explode")

    def test_every_catalog_entry_builds(self):
        for scenario in scenario_catalog().values():
            players = scenario.build_players()
            assert len(players) == scenario.n
            config = scenario.build_config()
            assert config.n == scenario.n
            scenario.build_delay(seed=0)
            scenario.build_partitions(players)

    def test_descriptions_come_from_factory_docstrings(self):
        assert scenario_catalog()["honest"].description

    def test_roster_counts_place_deviators_first(self):
        scenario = Scenario(name="x", n=6, rational=2, byzantine=1)
        players = scenario.build_players()
        assert [p.is_rational for p in players[:2]] == [True, True]
        assert players[2].is_byzantine
        assert all(p.is_honest for p in players[3:])

    def test_explicit_ids_and_per_player_thetas(self):
        scenario = Scenario(
            name="x", n=6, rational_ids=(4, 5), thetas=(1, 3), byzantine_ids=(0,)
        )
        players = scenario.build_players()
        assert players[4].theta is PlayerType.FORK_SEEKING
        assert players[5].theta is PlayerType.LIVENESS_ATTACKING
        assert players[0].is_byzantine

    def test_validation_rejects_bad_scenarios(self):
        with pytest.raises(ValueError):
            Scenario(name="x", n=4, rational=3, byzantine=1)
        with pytest.raises(ValueError):
            Scenario(name="x", protocol="raft")
        with pytest.raises(ValueError):
            Scenario(name="x", attack="ddos")
        with pytest.raises(ValueError):
            Scenario(name="x", attack="censorship")  # no censored ids

    @pytest.mark.parametrize("axes,complaint", [
        # accepted, and run with a changed roster
        ({"rational_ids": (1.5,)}, r"rational_ids must name ints in \[0, n=9\)"),
        ({"byzantine_ids": (2, 2)}, "byzantine_ids names a player twice"),
        ({"partition_windows": ((0.0, 10.0),), "partition_groups": ((0, 1), (2, 99))},
         r"partition_groups must name ints in \[0, n=9\)"),
        # accepted, then refused only inside run()
        ({"rational": 1, "theta": 7}, "7 is not a valid PlayerType"),
        ({"rational": 1, "thetas": (9,)}, "9 is not a valid PlayerType"),
        ({"timeout": 0.0}, "timeout must be positive"),
        ({"rounds": 0}, "max_rounds must be at least 1"),
        ({"t0": 9}, r"t0 must lie in \[0, n\)"),
        ({"quorum": 0}, r"quorum must lie in \[1, n\]"),
        ({"delta": -1.0}, "delta must be non-negative"),
        ({"delay": "partial", "gst": -5.0}, "gst must be non-negative"),
        ({"deposit": -1.0}, "deposit must be non-negative"),
        ({"max_events": 0}, "max_events must be at least 1"),
        ({"partition_windows": ((10.0, 2.0),)}, "window must have positive length"),
        ({"partition_windows": ((0.0, 5.0, 9.0),)}, "too many values to unpack"),
        ({"partition_windows": ((0.0, 10.0),), "partition_groups": ((0, 1), (1, 2))},
         "partition_groups names a player twice"),
    ])
    def test_a_malformed_axis_is_refused_at_construction(self, axes, complaint):
        """Each axis's owner — the id check, PlayerType, ProtocolConfig,
        the delay model, RunSpec, the partition schedule — refuses it
        when the scenario is built, not mid-run."""
        with pytest.raises(ValueError, match=complaint):
            Scenario(name="x", **axes)

    def test_a_count_next_to_its_pinned_ids_is_refused(self):
        # It used to run one rational player and ignore the count.
        with pytest.raises(ValueError, match=r"rational=3 cannot apply.*rational_ids=\(5,\)"):
            Scenario(name="x", n=7, rational=3, rational_ids=(5,))
        with pytest.raises(ValueError, match="byzantine_ids"):
            get_scenario("partition-fork").with_params(byzantine=1)
        with pytest.raises(ValueError, match="rational_ids"):
            run_sweep(get_scenario("lone-abstainer"), grid={"rational": [1, 2]})

    def test_with_params_rejects_unknown_axis(self):
        with pytest.raises(KeyError, match="unknown scenario field"):
            get_scenario("honest").with_params(warp_factor=9)

    def test_with_params_replaces_fields(self):
        variant = get_scenario("honest").with_params(n=5, protocol="pbft")
        assert (variant.n, variant.protocol) == (5, "pbft")
        assert get_scenario("honest").n == 9  # original untouched


class TestGridExpansion:
    def test_cartesian_product_times_seeds(self):
        jobs = expand_grid(get_scenario("honest"), grid={"n": [4, 5], "rounds": [1, 2]}, seeds=3)
        assert len(jobs) == 2 * 2 * 3
        assert [job.index for job in jobs] == list(range(12))
        assert jobs[0].scenario.n == 4 and jobs[0].scenario.rounds == 1
        assert jobs[-1].scenario.n == 5 and jobs[-1].scenario.rounds == 2
        assert [job.seed for job in jobs[:3]] == [0, 1, 2]

    def test_empty_grid_is_one_variant_per_seed(self):
        jobs = expand_grid(get_scenario("honest"), seeds=[7, 9])
        assert len(jobs) == 2
        assert [job.seed for job in jobs] == [7, 9]
        assert jobs[0].params == ()

    def test_params_recorded_per_job(self):
        jobs = expand_grid(get_scenario("honest"), grid={"n": [4]}, seeds=1)
        assert jobs[0].params == (("n", 4),)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            expand_grid(get_scenario("honest"), grid={"n": []})

    def test_seed_specs(self):
        assert resolve_seeds(3) == [0, 1, 2]
        assert resolve_seeds([5, 1]) == [5, 1]
        with pytest.raises(ValueError):
            resolve_seeds(0)


def _small_scenario() -> Scenario:
    return get_scenario("honest").with_params(n=4, rounds=1)


class TestDeterminism:
    def test_same_seed_identical_record(self):
        jobs = expand_grid(_small_scenario(), seeds=[3])
        first = run_job(jobs[0])
        second = run_job(jobs[0])
        assert first.canonical() == second.canonical()

    def test_different_seeds_still_deterministic_fields(self):
        sweep = run_sweep(
            get_scenario("gst-sweep").with_params(n=4, rounds=1, gst=5.0), seeds=2
        )
        # Stochastic delays differ per seed, but records stay well-formed.
        assert len(sweep.records) == 2
        assert all(record.scenario == "gst-sweep" for record in sweep.records)

    def test_serial_and_parallel_records_match(self):
        grid = {"n": [4, 5]}
        serial = run_sweep(_small_scenario(), grid=grid, seeds=2, jobs=1)
        parallel = run_sweep(_small_scenario(), grid=grid, seeds=2, jobs=2)
        assert serial.canonical_records() == parallel.canonical_records()
        assert records_to_json(serial.records, meta=serial.meta()) == records_to_json(
            parallel.records, meta=parallel.meta()
        )

    def test_attack_runs_sweepable(self):
        sweep = run_sweep(get_scenario("liveness").with_params(rounds=1), seeds=1)
        record = sweep.records[0]
        assert record.state == "NO_PROGRESS"
        assert record.final_blocks == 0
        assert dict(record.utilities)[0] > 0  # theta=3 profits from the stall


class TestRecordsAndSerialisation:
    def test_record_shape(self):
        record = run_job(expand_grid(_small_scenario(), grid={"n": [4]}, seeds=1)[0])
        assert record.scenario == "honest"
        assert record.protocol == "prft"
        assert record.param_dict() == {"n": 4}
        assert record.state == "HONEST"
        assert record.robust
        assert record.total_messages > 0 and record.total_bytes > 0
        assert record.wall_time > 0

    def test_json_round_trip(self, tmp_path):
        sweep = run_sweep(_small_scenario(), grid={"n": [4, 5]}, seeds=2)
        path = tmp_path / "results.json"
        write_json(str(path), sweep.records, meta=sweep.meta(), include_timing=True)
        loaded = read_json(str(path))
        assert loaded == sweep.records

    def test_json_excludes_timing_by_default(self, tmp_path):
        sweep = run_sweep(_small_scenario(), seeds=1)
        path = tmp_path / "results.json"
        write_json(str(path), sweep.records, meta=sweep.meta())
        payload = json.loads(path.read_text())
        assert "wall_time" not in payload["records"][0]
        assert payload["scenario"] == "honest"
        assert payload["aggregates"]

    def test_csv_round_trip_shape(self, tmp_path):
        sweep = run_sweep(_small_scenario(), grid={"n": [4, 5]}, seeds=1)
        path = tmp_path / "results.csv"
        write_csv(str(path), sweep.records)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2
        assert lines[0].startswith("scenario,")
        assert "param:n" in lines[0]

    def test_aggregate_groups_by_grid_point(self):
        sweep = run_sweep(_small_scenario(), grid={"n": [4, 5]}, seeds=2)
        summaries = aggregate(sweep.records)
        assert len(summaries) == 2
        assert summaries[0]["params"] == {"n": 4}
        assert summaries[0]["runs"] == 2
        assert 0.0 <= summaries[0]["robust_fraction"] <= 1.0

    def test_mean_and_percentile(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([5.0], 99) == 5.0
        with pytest.raises(ValueError):
            mean([])
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestCliIntegration:
    def test_list_scenarios(self, capsys):
        from repro.cli import main

        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "honest" in out and "partition-fork" in out

    def test_sweep_subcommand_writes_deterministic_json(self, tmp_path, capsys):
        from repro.cli import main

        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        argv = ["sweep", "honest", "--grid", "n=4,5", "--seeds", "2"]
        assert main(argv + ["--jobs", "2", "--out", str(out_a)]) == 0
        assert main(argv + ["--jobs", "1", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert "sweep honest" in capsys.readouterr().out

    def test_run_accepts_catalog_scenarios(self, capsys):
        from repro.cli import main

        assert main(["run", "partition-fork"]) == 0
        assert "partition-fork" in capsys.readouterr().out

    def test_flags_may_precede_the_scenario(self, capsys):
        from repro.cli import main

        assert main(["run", "--protocol", "hotstuff", "honest", "-n", "5", "--rounds", "2"]) == 0
        assert "hotstuff" in capsys.readouterr().out

    def test_sweep_rejects_unknown_scenario_and_axis(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "explode"])
        with pytest.raises(SystemExit):
            main(["sweep", "honest", "--grid", "warp=1,2"])
        with pytest.raises(SystemExit):
            main(["sweep", "honest", "--grid", "nonsense"])
