"""A finished run is judged once, and every reader agrees with it.

Definition 1's clauses, Table 2's σ and Definition 6's sets are
computed by :mod:`repro.analysis` alone; the oracle's checkers, the run
record and the realised utilities read that one judgement.  These tests
hold the two readers that persist a verdict — the record and the
oracle — to the same answer on every catalog run, and pin by *counting*
how often a run is judged: once per record, once per oracle pass, each
honest-held proof verified once.
"""

import collections

import pytest

import repro.analysis.robustness as robustness_module
import repro.checks.invariants as invariants_module
import repro.experiments.results as results_module
import repro.gametheory.states as states_module
import repro.ledger.validation as validation_module
import repro.protocols.runner as runner_module
from repro.analysis.accountability import check_accountability
from repro.checks import run_oracle
from repro.core.pof import FraudProof
from repro.experiments.registry import get_scenario, scenario_catalog
from repro.experiments.results import RunRecord
from repro.gametheory.states import SystemState

MATRIX_PROTOCOLS = ("prft", "pbft", "hotstuff", "polygraph", "trap")

#: The retention shapes whose record once judged what retention evicted:
#: trimmed submissions (the record read False) and pruned block bodies
#: (the record passed on the bodies that survived).
RETENTION_SHAPES = {
    "submission-window": {"submission_window": 5},
    "ledger-window": {"ledger_window": 2},
}


def retention_shape(name):
    return get_scenario("poisson-honest").with_params(
        protocol="pbft", tolerance="bft", n=4, **RETENTION_SHAPES[name]
    )


def judged_cells():
    """Every catalog entry, protocol-matrix under each protocol, and
    the retention shapes."""
    cells = list(scenario_catalog().items())
    matrix = get_scenario("protocol-matrix")
    cells += [
        (f"protocol-matrix/{protocol}", matrix.with_params(protocol=protocol))
        for protocol in MATRIX_PROTOCOLS
    ]
    return cells + [(name, retention_shape(name)) for name in sorted(RETENTION_SHAPES)]


# ----------------------------------------------------------------------
# The record and the oracle cannot disagree
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,scenario", judged_cells(), ids=[n for n, _ in judged_cells()])
def test_the_record_and_the_oracle_read_one_judgement(name, scenario):
    scenario = scenario.with_params(check_invariants=True)
    result = scenario.run(seed=0)
    record = RunRecord.from_result(scenario, 0, result)
    statuses = dict(record.invariants)
    # A checker skipped outside its envelope says nothing about the
    # clause; where it ran, it must read what the record reads.
    if statuses["agreement"] != "skipped":
        assert record.agreement == (statuses["agreement"] == "ok")
    assert (record.validity is None) == (statuses["validity"] == "skipped")
    if record.validity is not None:
        assert record.validity == (statuses["validity"] == "ok")
    assert (record.state == SystemState.FORK.name) == (not record.agreement)
    if result.ctx.registry.backend.unforgeable:
        both_ok = statuses["no-honest-pof"] == statuses["accountability"] == "ok"
        assert check_accountability(result).sound == both_ok
    else:
        with pytest.raises(ValueError, match="unforgeable"):
            check_accountability(result)


@pytest.mark.parametrize("shape", sorted(RETENTION_SHAPES))
def test_a_record_does_not_judge_what_retention_evicted(shape):
    """Validity compares every confirmed body against every submission:
    with either trimmed, the record refuses (None) exactly where the
    oracle skips, instead of reading False or passing vacuously."""
    scenario = retention_shape(shape).with_params(check_invariants=True)
    result = scenario.run(seed=0)
    assert result.history_truncated
    record = RunRecord.from_result(scenario, 0, result)
    assert dict(record.invariants)["validity"] == "skipped"
    assert record.state == SystemState.HONEST.name and record.final_blocks > 0
    assert record.validity is None and record.robust is None
    assert record.agreement and record.strict_ordering and record.eventual_liveness


def test_a_refused_verdict_survives_json_csv_and_aggregation(tmp_path):
    from repro.experiments.results import aggregate, read_json, write_csv, write_json
    from repro.experiments.warehouse import Warehouse

    scenario = retention_shape("submission-window")
    refused = RunRecord.from_result(scenario, 0, scenario.run(seed=0))
    honest = get_scenario("honest")
    judged = RunRecord.from_result(honest, 0, honest.run(seed=0))
    assert judged.robust is True

    write_json(str(tmp_path / "r.json"), [refused, judged])
    assert read_json(str(tmp_path / "r.json")) == [refused, judged]
    write_csv(str(tmp_path / "r.csv"), [refused])
    header, row = (tmp_path / "r.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["robust"] == cells["validity"] == ""
    # robust_fraction is over judged runs only; none judged reads None.
    assert aggregate([refused])[0]["robust_fraction"] is None
    assert aggregate([refused, judged])[0]["robust_fraction"] == 1.0

    with Warehouse(str(tmp_path / "wh.sqlite")) as store:
        assert store.ingest_records([refused]) == 1
        row = store._conn.execute("SELECT robust, validity FROM runs").fetchone()
        assert tuple(row) == (None, None)
        assert store.stored_records() == [refused]


# ----------------------------------------------------------------------
# Passes, counted
# ----------------------------------------------------------------------
#: Over the 23 catalog entries at seed 0: what one RunRecord.from_result
#: (oracle off) and one run_oracle pass cost in judgements.  Before the
#: judgement had one home, from_result made 23 check_robustness, 42
#: classify_state and 88 _views calls; run_oracle made 12
#: check_robustness, 24 classify_state, 92 _views and 34 proof verifies
#: (every proof checked by both accountability checkers).  Until c = 0
#: strict ordering was derived from the agreement read, each judgement
#: read every honest chain's final views twice (46 _views per reader).
JUDGEMENT_PASSES = {
    "from_result": {"check_robustness": 23, "classify_state": 0, "_views": 23, "verify": 0},
    "run_oracle": {"check_robustness": 23, "classify_state": 0, "_views": 23, "verify": 27},
}


def _counting(monkeypatch, counts, owner, attr, key):
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def honest_held_proofs(result):
    return {
        proof
        for pid in result.honest_ids
        if hasattr(result.replicas[pid], "detector")
        for proof in result.replicas[pid].detector.proofs().values()
    }


def test_a_run_is_judged_once_per_reader(monkeypatch):
    counts = collections.Counter()
    for module in (robustness_module, results_module, invariants_module):
        _counting(monkeypatch, counts, module, "check_robustness", "check_robustness")
    for module in (states_module, runner_module):
        _counting(monkeypatch, counts, module, "classify_state", "classify_state")
    _counting(monkeypatch, counts, validation_module, "_views", "_views")
    _counting(monkeypatch, counts, FraudProof, "verify", "verify")

    totals = {reader: collections.Counter() for reader in JUDGEMENT_PASSES}
    catalog = scenario_catalog()
    assert len(catalog) == 23
    for name, entry in catalog.items():
        scenario = entry.with_params(check_invariants=False)
        result = scenario.run(seed=0)
        counts.clear()
        RunRecord.from_result(scenario, 0, result)
        assert counts["check_robustness"] == 1, name
        totals["from_result"].update(counts)
        counts.clear()
        run_oracle(result, scenario, 0)
        assert counts["check_robustness"] <= 1, name
        held = honest_held_proofs(result) if result.ctx.registry.backend.unforgeable else ()
        assert counts["verify"] == len(held), name
        totals["run_oracle"].update(counts)
    assert {
        reader: {key: totals[reader][key] for key in pins}
        for reader, pins in JUDGEMENT_PASSES.items()
    } == JUDGEMENT_PASSES
