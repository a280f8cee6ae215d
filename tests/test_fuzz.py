"""Deterministic scenario fuzzer: generation, oracle gate, shrinking.

The ``fuzz`` marker tags the bounded-budget property runs that
``make fuzz-smoke`` (and CI's fuzz-smoke job) executes; they are also
part of the default tier so plain ``pytest`` keeps the fuzzer honest.
"""

import json

import pytest

from repro.experiments import RunRecord, Scenario, run_sweep
from repro.experiments.fuzz import (
    FuzzTrial,
    generate_trial,
    injected_violation_trial,
    load_scenario_file,
    run_fuzz,
    shrink,
    violated_checkers,
    write_repro,
)
from repro.experiments.sweep import SweepJob, run_job
from repro.experiments.warehouse import Warehouse

SMOKE_BUDGET = 25
SMOKE_SEED = 0


class TestGeneration:
    def test_trials_are_deterministic(self):
        first = [generate_trial(3, i, "safe") for i in range(10)]
        second = [generate_trial(3, i, "safe") for i in range(10)]
        assert first == second

    def test_trials_are_independent_of_budget_and_each_other(self):
        # Trial i depends only on (fuzz_seed, index), so prefixes agree.
        assert generate_trial(7, 4, "wild") == generate_trial(7, 4, "wild")
        assert generate_trial(7, 4, "wild") != generate_trial(8, 4, "wild")
        assert generate_trial(7, 4, "wild") != generate_trial(7, 5, "wild")

    def test_generated_scenarios_are_oracle_enabled_and_bounded(self):
        for i in range(20):
            scenario = generate_trial(1, i, "safe").scenario
            assert scenario.check_invariants
            assert 4 <= scenario.n <= 10
            assert 1 <= scenario.rounds <= 3
            assert scenario.crypto_backend == "hmac-sha256"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            generate_trial(0, 0, "reckless")

    def test_safe_profile_stays_inside_both_envelopes(self):
        from repro.checks import derive_expectations

        for i in range(12):
            trial = generate_trial(2, i, "safe")
            result = trial.scenario.run(seed=trial.seed)
            expectations = derive_expectations(result, trial.scenario)
            assert expectations.safety, expectations.reasons
            if trial.scenario.attack is None:
                # Liveness can only lapse post-hoc (event-budget cut).
                budget_cut = any("event budget" in r for r in expectations.reasons)
                assert expectations.liveness or budget_cut, expectations.reasons


@pytest.mark.fuzz
class TestFuzzSmoke:
    def test_safe_profile_has_zero_violations(self):
        fuzz = run_fuzz(budget=SMOKE_BUDGET, fuzz_seed=SMOKE_SEED, profile="safe", jobs=2)
        assert fuzz.violation_count == 0, [
            (trial.scenario.name, record.invariant_violations,
             trial.scenario.to_dict())
            for trial, record in fuzz.violating
        ]
        totals = fuzz.checker_totals()
        # Every record carries a verdict from every checker.
        for checker, counts in totals.items():
            assert sum(counts.values()) == SMOKE_BUDGET, checker
        # Unconditional checkers apply to every safe-profile run.
        assert totals["no-honest-pof"]["ok"] == SMOKE_BUDGET
        assert totals["collateral"]["ok"] == SMOKE_BUDGET

    def test_serial_parallel_and_resumed_are_byte_identical(self, tmp_path):
        """The one executor's contract: the same 8 trials serially, on 4
        workers, checkpointed every 3, and resumed from a stored cursor."""
        serial = run_fuzz(budget=8, fuzz_seed=1, profile="safe", jobs=1)
        parallel = run_fuzz(budget=8, fuzz_seed=1, profile="safe", jobs=4)
        assert [r.canonical() for r in serial.records] == [
            r.canonical() for r in parallel.records
        ]
        assert serial.to_json() == parallel.to_json()
        campaign = dict(budget=8, fuzz_seed=1, profile="safe", jobs=4,
                        db=str(tmp_path / "wh.sqlite"), campaign_id="c")
        checkpointed = run_fuzz(checkpoint_every=3, **campaign)
        assert checkpointed.to_json() == serial.to_json()
        with Warehouse(campaign["db"]) as store:
            cursor = store.load_cursor("c")
            assert cursor.finished and store.run_count() == 8
            # Killed before its first checkpoint landed: order stored, cursor 0.
            store.save_cursor("c", 1, "safe", 8, 0, cursor.order)
        resumed = run_fuzz(resume=True, **campaign)
        assert resumed.to_json() == serial.to_json()


@pytest.mark.fuzz
class TestInjectionAndShrinking:
    def test_injected_violation_is_found_and_shrunk(self, tmp_path):
        fuzz = run_fuzz(
            budget=3, fuzz_seed=0, profile="safe", inject_violation=True,
        )
        assert fuzz.violation_count == 1
        (repro,) = fuzz.shrunk
        assert "accountability" in repro.violations
        small = repro.scenario
        # The shrinker drove the config to the structural minimum that
        # still burns under the forgeable backend.
        assert small.n <= 5 and small.rounds == 1
        assert small.rational + small.byzantine == 1
        assert small.loss_rate == 0.0 and small.crash_spec == ()

        path = tmp_path / "repro.json"
        write_repro(str(path), repro)
        scenario, seed, recorded = load_scenario_file(str(path))
        assert seed == repro.seed and recorded == repro.violations
        assert scenario.check_invariants
        result = scenario.run(seed=seed)
        assert set(repro.violations) & set(result.oracle.violated_names)

    def test_shrunk_scenario_is_byte_identical_serial_vs_parallel(self):
        repro = run_fuzz(
            budget=1, fuzz_seed=0, profile="safe", inject_violation=True,
        ).shrunk[0]
        serial = run_sweep(repro.scenario, seeds=[repro.seed, repro.seed + 1], jobs=1)
        parallel = run_sweep(repro.scenario, seeds=[repro.seed, repro.seed + 1], jobs=2)
        assert serial.canonical_records() == parallel.canonical_records()
        assert json.dumps(serial.canonical_records(), sort_keys=True) == json.dumps(
            parallel.canonical_records(), sort_keys=True
        )

    def test_shrink_refuses_clean_scenario(self):
        trial = generate_trial(0, 0, "safe")
        with pytest.raises(ValueError):
            shrink(trial.scenario, trial.seed, target=())

    def test_shrink_respects_budget(self):
        trial = injected_violation_trial(0)
        repro = shrink(trial.scenario, trial.seed,
                       target=("accountability",), budget=3)
        assert repro.shrink_runs <= 3
        assert "accountability" in repro.violations


class TestTrialExecution:
    def test_worker_attaches_oracle_verdicts_and_near_miss(self):
        trial = generate_trial(0, 1, "safe")
        record = run_job(SweepJob(trial.index, trial.scenario, trial.seed, near_miss=True))
        assert isinstance(record, RunRecord)
        assert record.invariants is not None
        assert record.near_miss is not None

    def test_violated_checkers_helper(self):
        trial = injected_violation_trial(0)
        assert violated_checkers(trial.scenario, trial.seed) == ("accountability",)
        clean = generate_trial(0, 1, "safe")
        assert violated_checkers(clean.scenario, clean.seed) == ()

    def test_bad_budgets_rejected(self):
        with pytest.raises(ValueError):
            run_fuzz(budget=0)
        with pytest.raises(ValueError):
            run_fuzz(budget=1, jobs=0)


class TestScenarioFileLoading:
    def test_bare_scenario_payload(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(Scenario(name="bare", n=5).to_dict()))
        scenario, seed, violations = load_scenario_file(str(path))
        assert scenario.n == 5 and seed is None and violations == ()

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_scenario_file(str(path))

    def test_trial_is_picklable(self):
        import pickle

        trial = generate_trial(0, 0, "safe")
        assert pickle.loads(pickle.dumps(trial)) == trial
        assert isinstance(trial, FuzzTrial)
