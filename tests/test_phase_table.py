"""The wire layer's byte model, and a protocol written as a table.

Figure 3 compares the protocols by message size; the golden records pin
that model only as hashes of whole runs.  Here it is a unit test: for
every wire class, the bytes charged — with and without a block, with a
statement-set or an aggregate justification, with evidence — plus the
type the network accounts it under and the phase its sender's strategy
is asked about.  The sizes were generated at the commit before the wire
classes moved onto one base, and have not been touched since.

The second half is the claim "a sixth protocol is a table", executable:
a one-phase protocol (propose → ack quorum → decide) defined right here
as wire vocabulary plus a phase table, run to agreement.
"""

import inspect
from dataclasses import dataclass
from typing import Any

import pytest

from repro.agents.player import honest_player
from repro.core.messages import (
    CommitMessage,
    CommitViewMessage,
    ExposeMessage,
    FinalMessage,
    ProposeMessage,
    RevealMessage,
    SignedStatement,
    ViewChangeMessage,
    VoteMessage,
    WireMessage,
    make_statement,
    wire_size,
)
from repro.core.pof import FraudProof
from repro.crypto.aggregate import aggregate_statements
from repro.crypto.registry import KeyRegistry
from repro.ledger.block import Block, genesis_block
from repro.ledger.transaction import Transaction
from repro.protocols import hotstuff, pbft, polygraph
from repro.protocols.base import ProtocolConfig
from repro.protocols.hotstuff import (
    HsCertificateMessage, HsNewView, HsProposal, HsVote, QuorumCertificate,
)
from repro.protocols.pbft import PbftViewChange, PhaseVote, PrePrepare
from repro.protocols.phases import PhaseRow, ViewChangeReplica
from repro.protocols.polygraph import PgCommit, PgPrepare, PgPropose, PgViewChange
from repro.protocols.runner import RunSpec, run

REGISTRY = KeyRegistry.trusted_setup(range(6))
BLOCK = Block(2, 0, genesis_block().digest, (Transaction("t0", "ab"), Transaction("t1", "cde")))
ROUND = 2
HS_PREPARE, HS_PRECOMMIT, HS_COMMIT = hotstuff.HS_PHASES


def signed(signer, phase, digest=BLOCK.digest):
    return make_statement(REGISTRY.keypair_of(signer), phase, ROUND, digest)


def quorum(phase, size=4):
    return frozenset(signed(signer, phase) for signer in range(size))


def aggregate(phase, size=4):
    return aggregate_statements(quorum(phase, size))


def proof(signer, phase):
    return FraudProof(*sorted([signed(signer, phase, "h1"), signed(signer, phase, "h2")]))


def certificate(phase, aggregated=None):
    return QuorumCertificate(
        phase=phase, round_number=ROUND, digest=BLOCK.digest, signer_count=4,
        attestation=signed(0, phase + "-qc"), aggregate=aggregated,
    )


# (message, bytes charged, wire type — also the phase unless a fourth entry says otherwise)
BYTE_MODEL = [
    (ProposeMessage(block=BLOCK, statement=signed(0, "propose")), 229, "propose"),
    (VoteMessage(statement=signed(1, "vote"), propose_signature=signed(0, "propose").signature),
     96, "vote"),
    (CommitMessage(statement=signed(1, "commit"), justification=quorum("vote")), 320, "commit"),
    (CommitMessage(statement=signed(1, "commit"), justification=quorum("vote"), block=BLOCK),
     485, "commit"),
    (CommitMessage(statement=signed(1, "commit"), justification=aggregate("vote"), block=BLOCK),
     262, "commit"),
    (RevealMessage(statement=signed(1, "reveal"), justification=quorum("commit", 5)),
     384, "reveal"),
    (RevealMessage(statement=signed(1, "reveal"), justification=aggregate("commit", 5),
                   block=BLOCK), 262, "reveal"),
    (FinalMessage(statement=signed(1, "final")), 64, "final"),
    (FinalMessage(statement=signed(1, "final"), block=BLOCK), 229, "final"),
    (ExposeMessage(statement=signed(1, "expose", ""), proofs=frozenset({proof(1, "vote")})),
     192, "expose"),
    (ExposeMessage(statement=signed(1, "expose", ""),
                   proofs=frozenset({proof(1, "vote"), proof(3, "commit")})), 320, "expose"),
    (ViewChangeMessage(statement=signed(1, "view-change", "vote")), 64, "view-change"),
    (ViewChangeMessage(statement=signed(1, "view-change", "vote"), evidence=quorum("vote", 3)),
     256, "view-change"),
    (CommitViewMessage(
        statement=signed(1, "commit-view", ""),
        view_changes=frozenset(signed(i, "view-change", "vote") for i in range(5)),
    ), 384, "commit-view"),
    (PrePrepare(block=BLOCK, statement=signed(0, pbft.PREPREPARE)), 229, "pbft-preprepare"),
    (PhaseVote(statement=signed(1, pbft.PREPARE)), 64, "pbft-prepare"),
    (PhaseVote(statement=signed(1, pbft.COMMIT), block=BLOCK), 229, "pbft-commit"),
    (PbftViewChange(statement=signed(1, pbft.VIEW_CHANGE, "")), 64, "pbft-view-change"),
    (PgPropose(block=BLOCK, statement=signed(0, polygraph.PG_PROPOSE)), 229, "pg-propose"),
    (PgPrepare(statement=signed(1, polygraph.PG_PREPARE)), 64, "pg-prepare"),
    (PgCommit(statement=signed(1, polygraph.PG_COMMIT),
              justification=quorum(polygraph.PG_PREPARE)), 320, "pg-commit"),
    (PgCommit(statement=signed(1, polygraph.PG_COMMIT),
              justification=quorum(polygraph.PG_PREPARE), block=BLOCK), 485, "pg-commit"),
    (PgCommit(statement=signed(1, polygraph.PG_COMMIT),
              justification=aggregate(polygraph.PG_PREPARE), block=BLOCK), 262, "pg-commit"),
    (PgViewChange(statement=signed(1, polygraph.PG_VIEW_CHANGE, "")), 64, "pg-view-change"),
    (PgViewChange(statement=signed(1, polygraph.PG_VIEW_CHANGE, ""),
                  evidence=quorum(polygraph.PG_PREPARE, 3)), 256, "pg-view-change"),
    (HsProposal(block=BLOCK, statement=signed(0, hotstuff.HS_PROPOSE)), 229, "hs-propose"),
    (HsVote(statement=signed(1, HS_PREPARE)), 64, "hs-prepare"),
    (HsCertificateMessage(certificate=certificate(HS_PREPARE)), 32, "hs-prepare-qc", HS_PREPARE),
    (HsCertificateMessage(certificate=certificate(HS_COMMIT)), 32, "hs-decide", HS_COMMIT),
    (HsCertificateMessage(certificate=certificate(HS_COMMIT), block=BLOCK),
     197, "hs-decide", HS_COMMIT),
    (HsCertificateMessage(certificate=certificate(HS_PRECOMMIT, aggregate(HS_PRECOMMIT))),
     33, "hs-precommit-qc", HS_PRECOMMIT),
    (HsCertificateMessage(certificate=certificate(HS_COMMIT, aggregate(HS_COMMIT, 6)),
                          block=BLOCK), 198, "hs-decide", HS_COMMIT),
    (HsNewView(statement=signed(1, hotstuff.HS_NEWVIEW, "")), 64, "hs-newview"),
]
VALUELESS = (
    ExposeMessage, ViewChangeMessage, CommitViewMessage, PbftViewChange, PgViewChange, HsNewView,
)


@pytest.mark.parametrize(
    "message,size,wire_type,phase",
    [(*row, row[2])[:4] for row in BYTE_MODEL],
    ids=[f"{index}-{type(row[0]).__name__}" for index, row in enumerate(BYTE_MODEL)],
)
def test_byte_model(message, size, wire_type, phase):
    assert message.size_bytes == size
    assert message.wire_type == wire_type
    assert message.phase == phase
    assert message.round_number == ROUND
    # Strategies route equivocation by digest: None where nothing is valued.
    assert message.digest == (None if isinstance(message, VALUELESS) else BLOCK.digest)


def test_byte_model_covers_every_wire_class():
    def leaves(cls):
        subclasses = cls.__subclasses__()
        return {cls} if not subclasses else set().union(*map(leaves, subclasses))

    in_src = {cls for cls in leaves(WireMessage) if cls.__module__.startswith("repro.")}
    assert in_src == {type(row[0]) for row in BYTE_MODEL}
    assert len(in_src) == 19


def test_wire_size_parts():
    assert wire_size(None) == 0
    assert wire_size(signed(0, "vote").signature) == 32
    assert wire_size(signed(0, "vote")) == 64
    assert wire_size(quorum("vote", 4)) == 4 * 64
    assert wire_size(aggregate("vote", 4)) == 33
    assert wire_size(BLOCK) == BLOCK.size_estimate_bytes == 165


# ----------------------------------------------------------------------
# A sixth protocol is a table.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ToyPropose(WireMessage):
    block: Any
    statement: SignedStatement


@dataclass(frozen=True)
class ToyAck(WireMessage):
    statement: SignedStatement


@dataclass(frozen=True)
class ToyViewChange(WireMessage):
    SIGNS_VALUE = False

    statement: SignedStatement


class ToyReplica(ViewChangeReplica):
    """Propose → a quorum of acks → decide."""

    PROPOSE, VIEW_CHANGE = "toy-propose", "toy-view-change"
    Proposal, ViewChange = ToyPropose, ToyViewChange
    PHASES = (PhaseRow("toy-ack", ToyAck, then="_commit_decided"),)

    def handle_payload(self, sender, payload):
        self._dispatch(sender, payload)


def test_a_protocol_is_a_table():
    toy_source = [ToyPropose, ToyAck, ToyViewChange, ToyReplica]
    assert sum(len(inspect.getsource(piece).splitlines()) for piece in toy_source) < 60
    n, rounds = 4, 3
    result = run(RunSpec(
        factory=ToyReplica,
        players=tuple(honest_player(i) for i in range(n)),
        config=ProtocolConfig.for_bft(n=n, max_rounds=rounds),
    ))
    chains = [
        [block.digest for block in replica.chain.final_blocks()]
        for replica in result.replicas.values()
    ]
    assert len(chains[0]) == rounds
    assert all(chain == chains[0] for chain in chains)
    traffic = result.metrics.by_type()
    assert {kind: count for kind, (count, _) in traffic.items()} == {
        "toy-propose": rounds * n, "toy-ack": rounds * n * n,
    }
    assert traffic["toy-ack"][1] == rounds * n * n * 64
