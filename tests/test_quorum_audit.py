"""The quorum-certs fold against the post-run walk it replaced.

``QuorumAudit`` judges each statement and aggregate as a replica
stores it.  The walk below is the reference it is held to: it reads
every honest replica's retained round state after the run, as the
oracle did before the fold.  Over catalog runs, every protocol, both
certificate formats, both verify-cache settings, crash recovery and
bounded retention, the two must give the same verdict, and everything
left in an honest tally or view-change map must have gone through the
fold for that holder (no write bypasses the write path).
"""

from dataclasses import replace
from typing import Any, Dict, List, Optional

import pytest

from repro.checks.invariants import (
    OracleContext,
    QuorumAudit,
    QuorumCertificateChecker,
    Violation,
    _violation,
)
from repro.core.messages import SignedStatement, verify_statement
from repro.crypto.aggregate import AggregateQC
from repro.crypto.registry import DEFAULT_VERIFY_CACHE_SIZE
from repro.experiments.registry import get_scenario, scenario_catalog
from repro.protocols.base import BaseReplica
from repro.protocols.phases import ViewChangeRound

NAME = QuorumCertificateChecker.name
MATRIX_PROTOCOLS = ("prft", "pbft", "hotstuff", "polygraph", "trap")


# ----------------------------------------------------------------------
# The reference: the post-run walk over retained round state
# ----------------------------------------------------------------------
def reference_walk(result) -> List[Violation]:
    registry = result.ctx.registry
    if not registry.backend.unforgeable:
        return []
    violations: List[Violation] = []
    for pid in result.honest_ids:
        for state in result.replicas[pid]._rounds.values():
            for phase, by_digest in state.tally.items():
                for digest, by_signer in by_digest.items():
                    violations.extend(_check_map(
                        pid, state.number, phase, digest, by_signer, registry,
                    ))
            if isinstance(state, ViewChangeRound):
                violations.extend(_check_map(
                    pid, state.number, None, None, state.view_changes, registry,
                ))
            violations.extend(_check_aggregates(pid, state.number, state, registry))
    return violations


def _check_aggregates(pid: int, round_number: int, state: Any, registry: Any) -> List[Violation]:
    """Every aggregate certificate found in round state: directly, as a
    certificate's ``aggregate`` or as a value of a map."""
    violations: List[Violation] = []
    for attr, value in vars(state).items():
        found: List[AggregateQC] = []
        if isinstance(value, AggregateQC):
            found.append(value)
        elif isinstance(getattr(value, "aggregate", None), AggregateQC):
            found.append(value.aggregate)
        elif isinstance(value, dict):
            found.extend(v for v in value.values() if isinstance(v, AggregateQC))
        for aggregate in found:
            ok = (
                aggregate.signer_count >= 1
                and aggregate.round_number == round_number
                and registry.verify_aggregate(aggregate)
            )
            if not ok:
                violations.append(_violation(
                    NAME, "retained aggregate certificate is malformed or unverifiable",
                    holder=pid, slot=attr, round=round_number,
                ))
    return violations


def _check_map(
    pid: int,
    round_number: int,
    phase: Optional[str],
    digest: Optional[str],
    by_signer: Dict[int, Optional[SignedStatement]],
    registry: Any,
) -> List[Violation]:
    """One signer map; ``phase``/``digest`` None = not pinned."""
    slot = phase or "view-change"
    violations: List[Violation] = []
    phases = set()
    for signer, statement in by_signer.items():
        if statement is None:
            continue
        phases.add(statement.phase)
        ok = (
            statement.signer == signer
            and phase in (None, statement.phase)
            and digest in (None, statement.digest)
            and statement.round_number == round_number
            and verify_statement(registry, statement)
        )
        if not ok:
            violations.append(_violation(
                NAME, "retained quorum statement is malformed or unverifiable",
                holder=pid, slot=slot, round=round_number, signer=signer,
            ))
    if len(phases) > 1:
        violations.append(_violation(
            NAME, "mixed phases inside one quorum map",
            holder=pid, slot=slot, round=round_number,
        ))
    return violations


# ----------------------------------------------------------------------
# The cells
# ----------------------------------------------------------------------
def cells():
    """The catalog; protocol-matrix under every protocol × certificate
    format × verify-cache setting; crash-recovery entries under pBFT's
    view change and HotStuff's aggregate certificates; bounded trace
    and round-state retention."""
    found = list(scenario_catalog().items())
    matrix = get_scenario("protocol-matrix")
    for protocol in MATRIX_PROTOCOLS:
        for aggregate in (False, True):
            for cache in (0, DEFAULT_VERIFY_CACHE_SIZE):
                found.append((
                    f"protocol-matrix/{protocol}/agg={aggregate}/cache={cache}",
                    matrix.with_params(
                        protocol=protocol, aggregate_certs=aggregate, crypto_cache_size=cache
                    ),
                ))
    found.append((
        "crash-leader/pbft",
        get_scenario("crash-leader").with_params(protocol="pbft", tolerance="bft"),
    ))
    found.append((
        "churn-liveness/hotstuff/agg",
        get_scenario("churn-liveness").with_params(
            protocol="hotstuff", tolerance="bft", aggregate_certs=True
        ),
    ))
    found.append(("thm5-collusion/trace_window=4",
                  get_scenario("thm5-collusion").with_params(trace_window=4)))
    found.append(("poisson-honest/pbft/ledger_window=2",
                  get_scenario("poisson-honest").with_params(
                      protocol="pbft", tolerance="bft", n=4, ledger_window=2
                  )))
    return found


CELLS = cells()


def observed_run(scenario, monkeypatch):
    """Run ``scenario``; also return every statement or aggregate the
    fold was handed, keyed by (holder, object id)."""
    seen = {}
    real_statement, real_aggregate = QuorumAudit.statement, QuorumAudit.aggregate

    def statement(audit, holder, round_number, phase, digest, signer, kept):
        seen[holder, id(kept)] = kept
        real_statement(audit, holder, round_number, phase, digest, signer, kept)

    def aggregate(audit, holder, round_number, slot, kept):
        seen[holder, id(kept)] = kept
        real_aggregate(audit, holder, round_number, slot, kept)

    monkeypatch.setattr(QuorumAudit, "statement", statement)
    monkeypatch.setattr(QuorumAudit, "aggregate", aggregate)
    return scenario.run(seed=0), seen


def retained(result):
    """(holder, map kind, statement or aggregate) for everything an
    honest replica's round state holds at the end of the run."""
    for pid in result.honest_ids:
        for state in result.replicas[pid]._rounds.values():
            for by_digest in state.tally.values():
                for by_signer in by_digest.values():
                    for statement in by_signer.values():
                        if statement is not None:
                            yield pid, "tally", statement
            for statement in getattr(state, "view_changes", {}).values():
                yield pid, "view-change", statement
            certificate = getattr(state, "decide_certificate", None)
            if certificate is not None and certificate.aggregate is not None:
                yield pid, "aggregate", certificate.aggregate


@pytest.mark.parametrize("name,scenario", CELLS, ids=[name for name, _ in CELLS])
def test_the_fold_agrees_with_the_walk(name, scenario, monkeypatch):
    result, seen = observed_run(scenario, monkeypatch)
    fold = QuorumCertificateChecker().check(OracleContext(result=result))
    walk = reference_walk(result)
    assert bool(fold) == bool(walk), (fold, walk)
    unseen = [
        (pid, kind) for pid, kind, kept in retained(result) if (pid, id(kept)) not in seen
    ]
    assert not unseen, f"stored around the write path: {unseen[:3]}"


def test_the_cells_retain_every_kind_of_evidence():
    """The cross-check is not vacuous: between them the cells leave
    tally statements, view-change votes (pRFT's handler and the phase
    table's) and decide aggregates behind."""
    assert len(CELLS) == 23 + 20 + 4
    expected = {
        "liveness": {"view-change"},
        "crash-leader/pbft": {"tally", "view-change"},
        f"protocol-matrix/hotstuff/agg=True/cache={DEFAULT_VERIFY_CACHE_SIZE}": {
            "tally", "aggregate",
        },
    }
    kinds = {
        name: {kind for _pid, kind, _kept in retained(scenario.run(seed=0))}
        for name, scenario in CELLS if name in expected
    }
    assert kinds == expected


def _rekey_first(monkeypatch, name):
    """Key the first statement an honest replica keeps through
    ``BaseReplica.name`` by an id no player has, so no later write
    replaces it and the walk finds it too."""
    real = getattr(BaseReplica, name)
    done = []

    def rekeyed(replica, *args):
        *head, sender, statement = args
        if not done and statement is not None and replica.player.is_honest:
            done.append(replica.player_id)
            sender += replica.config.n
        return real(replica, *head, sender, statement)

    monkeypatch.setattr(BaseReplica, name, rekeyed)


@pytest.mark.parametrize("scenario,write", [
    (get_scenario("honest"), "_tally"),
    (get_scenario("honest").with_params(protocol="hotstuff", aggregate_certs=True), "_tally"),
    (get_scenario("liveness"), "_keep_view_change"),
])
def test_both_flag_a_rekeyed_statement_left_in_the_map(scenario, write, monkeypatch):
    _rekey_first(monkeypatch, write)
    result = scenario.run(seed=0)
    fold = QuorumCertificateChecker().check(OracleContext(result=result))
    walk = reference_walk(result)
    assert fold and walk
    assert {v.detail_dict()["holder"] for v in fold} == {v.detail_dict()["holder"] for v in walk}


def test_both_flag_a_decide_aggregate_on_the_wrong_round(monkeypatch):
    real = BaseReplica._keep_certificate

    def misround(replica, state, slot, certificate):
        aggregate = replace(certificate.aggregate, round_number=state.number + 1)
        real(replica, state, slot, replace(certificate, aggregate=aggregate))

    monkeypatch.setattr(BaseReplica, "_keep_certificate", misround)
    scenario = get_scenario("honest").with_params(protocol="hotstuff", aggregate_certs=True)
    result = scenario.run(seed=0)
    fold = QuorumCertificateChecker().check(OracleContext(result=result))
    assert fold and set(fold) == set(reference_walk(result))
