"""pRFT — practical Rational Fault Tolerance (Section 5 of the paper).

The paper's primary contribution: a 4-phase, accountable, leader-based
atomic-broadcast protocol that achieves (t, k)-robust rational
consensus for t < n/4 and t + k < n/2 when rational players are of
type θ = 1 (fork-seeking), with honest behaviour a *dominant* strategy
(DSIC, Lemma 4 / Theorem 5).

Round structure (Figure 1):

1. **Propose** — the round-robin leader broadcasts a signed block.
2. **Vote** — players broadcast signed votes on the block hash.
3. **Commit** — on n − t0 votes for one hash, players broadcast a
   Commit carrying the vote quorum (Proof-of-Commitment input).
4. **Reveal** — on n − t0 commits, players reach *tentative* consensus
   and broadcast a Reveal carrying the commit quorum W_i; every player
   cross-checks all received quorums for double signatures
   (ConstructProof, Figure 4).  At most t0 double-signers → broadcast
   Final and finalise; more than t0 → broadcast Expose with the
   Proof-of-Fraud, burn the culprits' collateral, and advance.

A view-change sub-protocol (Section 5.2) handles timeouts, leader
equivocation and fraud: n − t0 ViewChange messages justify a
CommitView, and a CommitView quorum moves everyone to round r + 1.

Public API:

- :class:`~repro.core.replica.PRFTReplica` — the replica state machine;
- :func:`~repro.core.replica.prft_factory` — the ``factory`` of a
  :class:`~repro.protocols.spec.RunSpec`;
- :mod:`~repro.core.messages` — the wire formats of Figure 2b;
- :mod:`~repro.core.pof` — ConstructProof and fraud-proof verification.
"""

from repro.core.messages import (
    CommitMessage,
    CommitViewMessage,
    ExposeMessage,
    FinalMessage,
    Phase,
    ProposeMessage,
    RevealMessage,
    SignedStatement,
    ViewChangeMessage,
    VoteMessage,
    make_statement,
    verify_quorum,
    verify_statement,
)
from repro.core.pof import FraudDetector, FraudProof, construct_pof, guilty_players
from repro.core.replica import PRFTReplica, prft_factory

__all__ = [
    "CommitMessage",
    "CommitViewMessage",
    "ExposeMessage",
    "FinalMessage",
    "FraudDetector",
    "FraudProof",
    "PRFTReplica",
    "Phase",
    "ProposeMessage",
    "RevealMessage",
    "SignedStatement",
    "ViewChangeMessage",
    "VoteMessage",
    "construct_pof",
    "guilty_players",
    "make_statement",
    "prft_factory",
    "verify_quorum",
    "verify_statement",
]
