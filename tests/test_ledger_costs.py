"""The ledger audit's cost, asserted by counting.

Definition 1's agreement and c-strict ordering are stated over pairs of
honest ledgers, but the predicates that check them must not walk the
pairs: every ledger is compared once with the longest one, so an audit
of n chains of L blocks reads O(n·L) block digests, not O(n²·L).
Counted with a wrapper around ``Block.digest``, never by wall-clock.
"""

import pytest

import repro.analysis.robustness as robustness
from repro.experiments.registry import get_scenario
from repro.ledger.block import Block
from repro.ledger.chain import Chain
from repro.ledger.transaction import Transaction
from repro.ledger.validation import (
    chains_agree,
    disagreement_heights,
    strict_ordering_holds,
)

N, LENGTH = 64, 40


def _agreeing_chains():
    chains = {pid: Chain() for pid in range(N)}
    parent = chains[0].head()
    for height in range(LENGTH):
        block = Block(height, height % N, parent.digest, (Transaction(f"tx-{height}"),))
        for chain in chains.values():
            chain.append_tentative(block)
        parent = block
    for chain in chains.values():
        chain.finalize(parent.digest)
    return chains


@pytest.mark.parametrize("audit", [
    lambda chains: chains_agree(chains),
    lambda chains: strict_ordering_holds(chains, 0),
    lambda chains: disagreement_heights(chains),
], ids=["chains_agree", "strict_ordering_holds", "disagreement_heights"])
def test_an_audit_reads_each_digest_a_bounded_number_of_times(audit, monkeypatch):
    chains = _agreeing_chains()
    reads = 0
    real = Block.digest.fget

    def counting(block):
        nonlocal reads
        reads += 1
        return real(block)

    monkeypatch.setattr(Block, "digest", property(counting))
    audit(chains)
    assert 0 < reads <= 2 * N * (LENGTH + 1)


def test_agreeing_ledgers_are_not_searched_for_fork_heights(monkeypatch):
    calls = []
    monkeypatch.setattr(
        robustness, "disagreement_heights", lambda *args, **kw: calls.append(args) or [1]
    )
    report = robustness.check_robustness(get_scenario("honest").run(seed=0))
    assert report.agreement and report.fork_heights == []
    assert calls == []
