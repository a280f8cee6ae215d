"""Trace-oracle subsystem: checkers, expectations, record round-trips."""

import json
from dataclasses import replace

import pytest

from repro.checks import (
    CHECKER_PAPER_REFS,
    Expectations,
    default_checkers,
    derive_expectations,
    run_oracle,
)
from repro.checks.invariants import OracleContext
from repro.crypto.signatures import Signature
from repro.experiments import RunRecord, Scenario, get_scenario, scenario_catalog
from repro.gametheory.payoff import PlayerType
from repro.protocols.base import BaseReplica


def checked(scenario):
    return scenario.with_params(check_invariants=True)


class TestOracleOnCatalog:
    def test_honest_scenario_passes_every_checker(self):
        result = checked(get_scenario("honest")).run(seed=0)
        report = result.oracle
        assert report.ok
        assert all(v.status == "ok" for v in report.verdicts)

    def test_fork_scenario_passes_with_liveness_skipped(self):
        result = checked(get_scenario("fork")).run(seed=0)
        report = result.oracle
        assert report.ok
        assert report.verdict("liveness").status == "skipped"
        assert report.verdict("agreement").status == "ok"
        assert report.verdict("accountability").status == "ok"

    def test_partition_fork_skips_safety_conditionals(self):
        # 3 byzantine > t0=2: agreement is not promised (and indeed
        # forks); the unconditional checkers must still pass.
        result = checked(get_scenario("partition-fork")).run(seed=0)
        report = result.oracle
        assert report.ok
        assert report.verdict("agreement").status == "skipped"
        assert report.verdict("prefix-consistency").status == "skipped"
        assert report.verdict("no-honest-pof").status == "ok"
        assert report.verdict("collateral").status == "ok"

    def test_every_checker_has_a_paper_ref(self):
        names = {checker.name for checker in default_checkers()}
        assert names == set(CHECKER_PAPER_REFS)

    @pytest.mark.slow
    def test_full_catalog_passes_all_applicable_checkers(self):
        for name, scenario in scenario_catalog().items():
            report = checked(scenario).run(seed=0).oracle
            assert report.ok, (
                f"catalog scenario {name!r} violates {report.violated_names}: "
                f"{[str(v) for v in report.violations]}"
            )


class TestExpectations:
    def test_no_scenario_context_skips_conditionals(self):
        scenario = get_scenario("honest")
        result = scenario.run(seed=0)
        expectations = derive_expectations(result, None)
        assert not expectations.safety and not expectations.liveness
        report = run_oracle(result)
        assert report.verdict("agreement").status == "skipped"
        assert report.verdict("collateral").status == "ok"

    def test_over_threshold_coalition_drops_safety(self):
        scenario = get_scenario("partition-fork")
        result = scenario.run(seed=0)
        expectations = derive_expectations(result, scenario)
        assert not expectations.safety
        assert any("byzantine count" in reason for reason in expectations.reasons)

    def test_non_prft_protocols_get_the_t0_envelope(self):
        # 1 rational + 2 byzantine = 3 > t0=2 on polygraph: accountable
        # but not fork-resilient, so safety must not be promised.
        scenario = Scenario(
            name="poly-fork", protocol="polygraph", n=7, rounds=1,
            rational=1, byzantine=2, attack="fork", max_time=200.0,
        )
        result = scenario.run(seed=0)
        assert not derive_expectations(result, scenario).safety

    def test_prft_keeps_safety_up_to_honest_majority(self):
        scenario = get_scenario("thm5-collusion")  # n=13, k=4, t=2
        result = scenario.run(seed=0)
        assert derive_expectations(result, scenario).safety

    def test_attack_drops_liveness_expectation(self):
        scenario = get_scenario("liveness")
        result = scenario.run(seed=0)
        expectations = derive_expectations(result, scenario)
        assert expectations.safety and not expectations.liveness

    def test_unknown_condition_rejected(self):
        with pytest.raises(ValueError):
            Expectations(safety=True, liveness=True).applies("nonsense")


class TestViolationDetection:
    def test_fast_sim_fork_violates_accountability(self):
        scenario = Scenario(
            name="unsound-fork", n=7, rounds=2, rational=2, attack="fork",
            crypto_backend="fast-sim", allow_unsound_crypto=True, max_time=400.0,
        )
        report = checked(scenario).run(seed=0).oracle
        assert not report.ok
        assert report.violated_names == ("accountability",)
        violation = report.violations[0]
        assert "forgeable" in violation.message
        assert violation.detail_dict()["backend"] == "fast-sim"

    def test_unsound_crypto_gate_still_guards_by_default(self):
        with pytest.raises(ValueError, match="unforgeable"):
            Scenario(name="bad", n=7, rational=2, attack="fork",
                     crypto_backend="fast-sim")

    def test_honest_burn_is_flagged(self):
        scenario = get_scenario("honest")
        result = scenario.run(seed=0)
        result.ctx.collateral.burn(0, reason="framed-by-test")
        report = run_oracle(result, scenario=scenario)
        assert "no-honest-pof" in report.violated_names
        assert "accountability" in report.violated_names

    def test_collateral_drift_is_flagged(self):
        scenario = get_scenario("honest")
        result = scenario.run(seed=0)
        account = result.ctx.collateral._accounts[0]
        account.deposit = account.deposit + 1.0
        report = run_oracle(result, scenario=scenario)
        assert "collateral" in report.violated_names

    def test_crash_recovery_monotonicity_from_trace(self):
        result = checked(get_scenario("churn-liveness")).run(seed=0)
        assert result.oracle.verdict("crash-recovery").status == "ok"
        # A fabricated recover-without-crash must trip the checker.
        result.ctx.trace.record(999.0, "recover", 3, replayed_blocks=0, rolled_back=0)
        report = run_oracle(result, scenario=get_scenario("churn-liveness"))
        assert "crash-recovery" in report.violated_names

    # quorum-certs judges evidence as a replica stores it, so a fault is
    # injected into the run by patching the write path (or the receive
    # check in front of it), never into the finished state.

    @staticmethod
    def _patch_once(monkeypatch, name, corrupt):
        """Wrap ``BaseReplica.name`` so that its first call by an honest
        replica for which ``corrupt(replica, *args)`` returns new
        arguments stores those instead; returns that replica's id, once
        known."""
        real = getattr(BaseReplica, name)
        holders = []

        def patched(replica, *args):
            if not holders and replica.player.is_honest:
                corrupted = corrupt(replica, *args)
                if corrupted is not None:
                    holders.append(replica.player_id)
                    args = corrupted
            return real(replica, *args)

        monkeypatch.setattr(BaseReplica, name, patched)
        return holders

    @staticmethod
    def _rekey_tally(phase):
        """Key the first kept ``phase`` statement by the next signer's id."""
        def corrupt(replica, state, tallied, digest, sender, statement):
            if tallied == phase and statement is not None:
                return state, tallied, digest, (sender + 1) % replica.config.n, statement
        return corrupt

    @staticmethod
    def _flagged(scenario, holders, message, **detail):
        """The patched run's one quorum-certs violation names the
        patched holder, ``message`` and ``detail``."""
        report = scenario.run(seed=0).oracle
        assert holders, "the patched write never ran"
        (found,) = report.verdict("quorum-certs").violations
        assert found.message == message
        assert found.detail_dict().items() >= {"holder": holders[0], **detail}.items()

    def test_quorum_certs_flag_mismatched_signer(self, monkeypatch):
        scenario = checked(get_scenario("honest"))
        holders = self._patch_once(monkeypatch, "_tally", self._rekey_tally("commit"))
        self._flagged(
            scenario, holders, "retained quorum statement is malformed or unverifiable",
            slot="commit", round=0, signer=1,
        )

    def test_quorum_certs_audit_hotstuff_leader_votes(self, monkeypatch):
        """The votes a HotStuff leader keeps to aggregate are stored
        through the same write path as everyone's quorums."""
        scenario = checked(get_scenario("honest")).with_params(
            protocol="hotstuff", aggregate_certs=True
        )
        assert scenario.run(seed=0).oracle.verdict("quorum-certs").status == "ok"
        holders = self._patch_once(monkeypatch, "_tally", self._rekey_tally("hs-prepare"))
        self._flagged(
            scenario, holders, "retained quorum statement is malformed or unverifiable",
            slot="hs-prepare", round=0, signer=1,
        )

    def test_quorum_certs_audit_view_change_votes(self, monkeypatch):
        scenario = checked(get_scenario("liveness"))
        assert scenario.run(seed=0).oracle.verdict("quorum-certs").status == "ok"

        def rekey(replica, state, sender, statement):
            return state, (sender + 1) % replica.config.n, statement

        holders = self._patch_once(monkeypatch, "_keep_view_change", rekey)
        self._flagged(
            scenario, holders, "retained quorum statement is malformed or unverifiable",
            slot="view-change",
        )

    def test_quorum_certs_flag_an_unverifiable_statement(self, monkeypatch):
        """A receive check that skips the signature lets a bad tag into
        the tally; the audit verifies what is stored on its own."""
        scenario = checked(get_scenario("honest"))

        def unchecked(replica, statement, sender, phase):
            return statement.phase == phase and statement.signer == sender

        def forge(replica, state, phase, digest, sender, statement):
            if phase == "commit" and statement is not None:
                signature = Signature(statement.signer, "0" * len(statement.signature.tag))
                return state, phase, digest, sender, replace(statement, signature=signature)

        monkeypatch.setattr(BaseReplica, "_valid", unchecked)
        holders = self._patch_once(monkeypatch, "_tally", forge)
        self._flagged(
            scenario, holders, "retained quorum statement is malformed or unverifiable",
            slot="commit", round=0, signer=0,
        )

    def test_quorum_certs_flag_a_decide_aggregate_on_the_wrong_round(self, monkeypatch):
        scenario = checked(get_scenario("honest")).with_params(
            protocol="hotstuff", aggregate_certs=True
        )

        def misround(replica, state, slot, certificate):
            aggregate = replace(certificate.aggregate, round_number=state.number + 1)
            return state, slot, replace(certificate, aggregate=aggregate)

        holders = self._patch_once(monkeypatch, "_keep_certificate", misround)
        self._flagged(
            scenario, holders, "retained aggregate certificate is malformed or unverifiable",
            slot="decide_certificate", round=0,
        )


class TestRecordRoundTrip:
    def test_record_carries_oracle_verdicts(self):
        scenario = checked(get_scenario("honest"))
        result = scenario.run(seed=0)
        record = RunRecord.from_result(scenario, 0, result)
        assert record.invariants is not None
        statuses = dict(record.invariants)
        assert statuses["agreement"] == "ok"
        assert record.invariant_violations == ()

    def test_unchecked_record_omits_oracle_fields(self):
        scenario = get_scenario("honest")
        record = RunRecord.from_result(scenario, 0, scenario.run(seed=0))
        assert record.invariants is None
        data = record.to_dict()
        assert "invariants" not in data
        assert "invariant_violations" not in data
        assert RunRecord.from_dict(data) == record

    def test_checked_record_round_trips_through_json(self):
        scenario = checked(get_scenario("lossy-honest"))
        record = RunRecord.from_result(scenario, 0, scenario.run(seed=0))
        data = json.loads(json.dumps(record.to_dict(), sort_keys=True))
        assert RunRecord.from_dict(data) == record

    def test_violating_record_round_trips(self):
        scenario = checked(Scenario(
            name="unsound-fork", n=7, rounds=1, rational=1, attack="fork",
            crypto_backend="fast-sim", allow_unsound_crypto=True, max_time=300.0,
        ))
        record = RunRecord.from_result(scenario, 0, scenario.run(seed=0))
        assert record.invariant_violations == ("accountability",)
        data = json.loads(json.dumps(record.to_dict(), sort_keys=True))
        assert RunRecord.from_dict(data) == record


class TestScenarioJson:
    def test_to_dict_omits_defaults(self):
        data = get_scenario("honest").to_dict()
        assert data == {"name": "honest", "description": data["description"]}

    def test_round_trip_preserves_nested_tuples(self):
        scenario = get_scenario("churn-liveness")
        rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert rebuilt == scenario
        assert rebuilt.crash_spec == ((3, 2.0, 16.0), (4, 18.0, 60.0))

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            Scenario.from_dict({"name": "x", "warp_drive": True})

    @pytest.mark.parametrize("field,value,complaint", [
        # accepted, and carried into the run as a string, before the check
        ("rounds", "2", "rounds must be int, got str '2'"),
        ("timeout", "15", "timeout must be float, got str '15'"),
        # a bare "'<=' not supported" TypeError naming no field before it
        ("n", "7", "n must be int, got str '7'"),
        ("loss_rate", [0.1], "loss_rate must be float, got tuple (0.1,)"),
        ("n", True, "n must be int, got bool True"),
        ("delta", False, "delta must be float, got bool False"),
        ("aggregate_certs", 1, "aggregate_certs must be bool, got int 1"),
        ("regions", "2", "regions must be int or None, got str '2'"),
        ("attack", 3, "attack must be str or None, got int 3"),
        ("rounds", 2.0, "rounds must be int, got float 2.0"),
        ("rounds", None, "rounds must be int, got NoneType None"),
    ])
    def test_wrong_typed_scalar_names_its_field(self, field, value, complaint):
        """The declared type is the validator, for files, ``with_params``,
        sweep grids and library callers alike."""
        with pytest.raises(ValueError) as caught:
            Scenario.from_dict({"name": "x", field: value})
        assert str(caught.value) == f"scenario 'x': {complaint}"
        with pytest.raises(ValueError, match=f"{field} must be"):
            get_scenario("honest").with_params(**{field: value})

    def test_an_int_is_fine_where_a_float_is_declared(self):
        scenario = Scenario.from_dict(
            {"name": "x", "delta": 2, "timeout": 30, "duration": None, "max_block_txs": 8}
        )
        assert (scenario.delta, scenario.timeout, scenario.max_block_txs) == (2, 30, 8)
        # ...and an IntEnum member where an int is.
        assert Scenario(name="x", theta=PlayerType.FORK_SEEKING).theta == 1


class TestCatchUpNeverDoubleSigns:
    """Regression for the fuzzer-found framing bug: a replica that
    finalizes a digest it never itself committed must not rebuild a
    commit signature over it while serving catch-up."""

    # Seeds 0 and 8 framed honest replicas before the catch-up guard
    # (polygraph rebuilt a commit signature over the *decided* digest
    # even when its own commit went to a competing proposal).  pBFT
    # shares the code shape and the guard; no framing seed is known
    # for it, so it rides along as a sanity case.
    @pytest.mark.parametrize("protocol,seed", [
        ("polygraph", 0), ("polygraph", 8), ("pbft", 0),
    ])
    def test_no_honest_pof_under_adversarial_quorum(self, protocol, seed):
        scenario = Scenario(
            name=f"frame-{protocol}", protocol=protocol, n=10, rounds=2,
            rational=2, byzantine=2, thetas=(2, 3), attack="fork",
            delay="partial", gst=10.0, delta=1.44, timeout=10.1,
            quorum=2, block_size=3,
            partition_windows=((0.6, 7.4),),
            partition_groups=((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)),
            crash_spec=((5, 11.0),),
            max_time=600.0, max_events=150_000,
        )
        result = scenario.run(seed=seed)
        report = run_oracle(result, scenario=scenario, seed=seed)
        honest = set(result.honest_ids)
        assert not (result.penalised_players() & honest)
        assert report.verdict("no-honest-pof").status == "ok"
