"""Tests for the command-line interface (repro.cli).

``repro run`` has one rule: the positional resolves to a scenario (a
catalog name or a JSON file) and every flag actually passed overrides
the field it names, whatever the positional was.
"""

import json

import pytest

from repro.cli import RUN_FLAGS, build_cli_parser, main
from repro.experiments.registry import Scenario, get_scenario, scenario_catalog
from repro.experiments.sweep import run_sweep


class _Resolved(Exception):
    """Raised in place of running, carrying what would have run."""


@pytest.fixture
def resolve(monkeypatch):
    """``resolve(*argv)`` → the (scenario, seed) ``repro run *argv``
    would execute, without executing it."""

    def stop(self, seed=0):
        raise _Resolved(self, seed)

    def resolve(*argv):
        with pytest.raises(_Resolved) as caught:
            main(["run", *argv])
        return caught.value.args

    monkeypatch.setattr(Scenario, "run", stop)
    return resolve


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "poisson-honest.json"
    path.write_text(json.dumps(get_scenario("poisson-honest").to_dict()))
    return str(path)


class TestParser:
    def test_every_flag_defaults_to_unset(self):
        args = build_cli_parser().parse_args(["run", "honest"])
        flags = {k: v for k, v in vars(args).items() if k not in ("command", "func", "scenario")}
        assert len(flags) == 30
        assert set(flags.values()) == {None}

    def test_no_flags_runs_the_catalog_entry_itself(self, resolve):
        assert resolve("fork") == (get_scenario("fork"), 0)

    def test_bad_scenario_rejected_listing_the_catalog(self):
        with pytest.raises(SystemExit, match="known scenarios: .*honest"):
            main(["run", "explode"])

    def test_bad_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "honest", "--protocol", "raft"])

    def test_bare_form_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["honest", "-n", "8"])


class TestRoster:
    def test_honest_roster(self, resolve):
        scenario, _ = resolve("honest", "-n", "5")
        players = scenario.build_players()
        assert len(players) == 5
        assert all(p.is_honest for p in players)

    def test_attack_roster_roles(self, resolve):
        scenario, _ = resolve("fork", "-n", "9", "--rational", "3", "--byzantine", "2")
        players = scenario.build_players()
        assert sum(p.is_rational for p in players) == 3
        assert sum(p.is_byzantine for p in players) == 2

    def test_oversized_collusion_rejected(self):
        with pytest.raises(SystemExit, match="fewer than n"):
            main(["run", "fork", "-n", "4", "--rational", "3", "--byzantine", "1"])

    def test_count_flag_on_a_pinned_roster_is_an_error(self):
        with pytest.raises(SystemExit, match="rational_ids") as caught:
            main(["run", "thm5-collusion", "--rational", "1"])
        assert "\n" not in str(caught.value)
        with pytest.raises(SystemExit, match="byzantine_ids"):
            main(["run", "partition-fork", "--byzantine", "1"])


# One sample per `repro run` option: the flags as typed, and the
# Scenario fields they must land on.  The base, poisson-honest, carries
# a duration, so every workload kind validates on its own.
FLAG_SAMPLES = [
    (["--protocol", "pbft"], {"protocol": "pbft"}),
    (["-n", "5"], {"n": 5}),
    (["--rounds", "1"], {"rounds": 1}),
    (["--rational", "2"], {"rational": 2}),
    (["--byzantine", "1"], {"byzantine": 1}),
    (["--timeout", "12.5"], {"timeout": 12.5}),
    (["--gst", "20"], {"gst": 20.0, "delay": "partial"}),
    (["--loss-rate", "0.2"], {"loss_rate": 0.2}),
    (["--duplicate-rate", "0.1"], {"duplicate_rate": 0.1}),
    (["--reorder-jitter", "0.3"], {"reorder_jitter": 0.3}),
    (["--crash", "1@2:9", "--crash", "3@4"], {"crash_spec": ((1, 2.0, 9.0), (3, 4.0))}),
    (["--workload", "closed"], {"workload": "closed"}),
    (["--rate", "2"], {"arrival_rate": 2.0}),
    (["--outstanding", "3"], {"outstanding": 3, "workload": "closed"}),
    (["--burst", "5:3"], {"burst_schedule": ((5.0, 3),), "workload": "burst"}),
    (["--duration", "60"], {"duration": 60.0}),
    (["--pipeline-depth", "2"], {"pipeline_depth": 2}),
    (["--block-txs", "8"], {"max_block_txs": 8}),
    (["--coalesce-window", "0.5"], {"coalesce_window": 0.5}),
    (["--regions", "2"], {"regions": 2, "delay": "regional"}),
    (["--regions", "2", "--region-spread", "6"], {"region_spread": 6.0}),
    (["--regions", "2", "--region-jitter", "0.1"], {"region_jitter": 0.1}),
    (["--trace-window", "50"], {"trace_window": 50}),
    (["--commit-window", "60"], {"commit_window": 60}),
    (["--submission-window", "70"], {"submission_window": 70}),
    (["--ledger-window", "4"], {"ledger_window": 4}),
    (["--backlog-resolution", "16"], {"backlog_resolution": 16}),
    (["--aggregate-certs"], {"aggregate_certs": True}),
    (["--check"], {"check_invariants": True}),
]


class TestEveryFlagOverrides:
    @pytest.mark.parametrize(
        "argv,expected", FLAG_SAMPLES, ids=[" ".join(argv) for argv, _ in FLAG_SAMPLES]
    )
    def test_on_a_catalog_name_and_on_a_file(self, resolve, scenario_file, argv, expected):
        base = get_scenario("poisson-honest")
        for positional in ("poisson-honest", scenario_file):
            scenario, seed = resolve(positional, *argv)
            assert seed == 0
            for field, value in expected.items():
                assert getattr(scenario, field) == value
                assert getattr(base, field) != value
            implied = {"workload", "delay", "regions"} | set(expected)
            assert scenario == base.with_params(
                **{field: getattr(scenario, field) for field in implied}
            )

    def test_samples_cover_every_option(self):
        sampled = {token for argv, _ in FLAG_SAMPLES for token in argv if token.startswith("-")}
        assert sampled == {option for option, _, _ in RUN_FLAGS}

    def test_seed_flag_beats_the_embedded_seed(self, resolve, tmp_path):
        path = tmp_path / "repro.json"
        path.write_text(json.dumps(
            {"scenario": get_scenario("honest").to_dict(), "seed": 7}
        ))
        assert resolve(str(path))[1] == 7
        assert resolve(str(path), "--seed", "3")[1] == 3
        assert resolve("honest", "--seed", "3")[1] == 3

    def test_run_and_sweep_mean_the_same_scenario(self, resolve):
        for name, scenario in scenario_catalog().items():
            assert resolve(name) == (scenario, 0)

    def test_region_axes_apply_to_an_already_regional_entry(self, resolve):
        scenario, _ = resolve("regional-honest", "--region-spread", "8")
        assert scenario.region_spread == 8.0 and scenario.regions == 3
        with pytest.raises(SystemExit, match="--region-spread needs --regions"):
            main(["run", "honest", "--region-spread", "8"])

    def test_two_delay_models_are_an_error(self):
        with pytest.raises(SystemExit, match="different delay models"):
            main(["run", "honest", "--gst", "5", "--regions", "2"])

    @pytest.mark.parametrize("error", [KeyError("unknown scenario field(s) ['warp']"), TypeError("bad type")])
    def test_override_errors_are_one_line_exits(self, monkeypatch, error):
        def explode(self, **overrides):
            raise error

        monkeypatch.setattr(Scenario, "with_params", explode)
        with pytest.raises(SystemExit) as caught:
            main(["run", "honest", "-n", "5"])
        assert str(caught.value) == error.args[0]


    def test_a_wrong_typed_file_value_is_a_one_line_exit(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"name": "typo", "n": "7"}))
        with pytest.raises(SystemExit) as caught:
            main(["run", str(path)])
        assert str(caught.value) == f"{path}: scenario 'typo': n must be int, got str '7'"


class TestScenarios:
    def test_honest_scenario(self, capsys):
        assert main(["run", "honest", "-n", "5", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "HONEST" in out
        assert "final blocks" in out

    def test_liveness_scenario(self, capsys):
        assert main(["run", "liveness", "-n", "9", "--rational", "3", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "NO_PROGRESS" in out

    def test_fork_scenario_burns_colluders(self, capsys):
        assert main(["run", "fork", "-n", "9", "--rounds", "4"]) == 0
        out = capsys.readouterr().out
        assert "[0, 1, 2]" in out  # penalised players

    def test_censorship_scenario_reports_resistance(self, capsys):
        assert main(["run", "censorship", "-n", "9", "--rational", "3", "--rounds", "6"]) == 0
        out = capsys.readouterr().out
        assert "censorship resistant" in out

    def test_baseline_protocol(self, capsys):
        assert main(["run", "honest", "--protocol", "hotstuff", "-n", "5", "--rounds", "2"]) == 0
        assert "hotstuff" in capsys.readouterr().out

    def test_partial_synchrony_flag(self, capsys):
        assert main(["run", "honest", "-n", "5", "--rounds", "2", "--gst", "30"]) == 0
        out = capsys.readouterr().out
        assert "final blocks      | 0" not in out

    def test_fault_flag_reaches_a_catalog_entry(self, capsys):
        assert main(["run", "crash-leader"]) == 0
        plain = capsys.readouterr().out
        assert main(["run", "crash-leader", "--loss-rate", "0.5"]) == 0
        lossy = capsys.readouterr().out
        assert "loss:" in lossy and "loss:" not in plain
        assert lossy != plain

    def test_roster_and_protocol_flags_reach_a_catalog_entry(self, capsys):
        assert main(["run", "lossy-honest", "-n", "5", "--protocol", "pbft", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "protocol          | pbft" in out
        assert "final blocks      | 1" in out

    def test_run_fork_is_the_scenario_sweep_fork_runs(self, capsys):
        assert main(["run", "fork"]) == 0
        out = capsys.readouterr().out
        (record,) = run_sweep(get_scenario("fork"), seeds=1).records
        assert f"messages          | {record.total_messages}" in out
        assert f"final blocks      | {record.final_blocks}" in out


class TestCampaignCommands:
    """``fuzz`` and ``check-catalog`` run many deployments one after
    another through the real command, in process."""

    def test_fuzz_clean_budget_exits_zero(self, tmp_path, capsys):
        assert main([
            "fuzz", "--budget", "2", "--seed", "0", "--jobs", "1",
            "--artifacts", str(tmp_path),
        ]) == 0
        assert "2/2 trials, 0 violating" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_fuzz_injected_violation_exits_two_with_a_repro(self, tmp_path, capsys):
        assert main([
            "fuzz", "--budget", "2", "--seed", "0", "--inject-violation",
            "--artifacts", str(tmp_path),
        ]) == 2
        repro = tmp_path / "fuzz-0-injected.json"
        assert f"shrunk fuzz-0-injected -> {repro}" in capsys.readouterr().out
        artifact = json.loads(repro.read_text())
        assert artifact["scenario"]["name"] == "fuzz-0-injected"
        assert artifact["violations"]

    def test_check_catalog_passes_and_names_every_entry(self, capsys):
        assert main(["check-catalog"]) == 0
        rows = {
            line.split("|")[0].strip(): line.split("|")[1].strip()
            for line in capsys.readouterr().out.splitlines()
            if "|" in line
        }
        assert {name: rows.get(name) for name in scenario_catalog()} == {
            name: "PASS" for name in scenario_catalog()
        }
