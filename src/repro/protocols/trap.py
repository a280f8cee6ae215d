"""TRAP — the baiting-based protocol of Ranchal-Pedrosa & Gramoli (2022).

Protocol skeleton for the Theorem-3 experiments.  Structurally TRAP is
an accountable BFT in the Polygraph family (justification-carrying
commits, Proof-of-Fraud), with two decisive differences from pRFT:

1. **Finality has no reveal gate**: a commit quorum finalises
   immediately.  Under the theorem's regime (t0 = ⌈n/3⌉ − 1, so
   τ = n − t0 ≈ 2n/3 and n/3 ≤ k + t < n/2) a partitioned fork can
   therefore *succeed* — both halves reach quorum with the collusion's
   double votes.
2. **Fraud reporting is voluntary and rewarded**: submitting a PoF is
   the π_bait strategy, worth a reward R to one of the baiters, and it
   is a *choice* of the rational players
   (:class:`~repro.agents.strategies.TrapRationalStrategy`), not a
   protocol obligation of honest players in the reveal path.

Honest players still report fraud they can see — but in the fork
regime the conflicting signatures co-locate only at colluders (who
suppress) until quorums have already finalised, which is exactly the
insecure equilibrium of Theorem 3.  Baiters defeat the fork by
*withholding their double signatures* (they follow honest voting), so
whether the fork succeeds is decided by vote arithmetic:
|A| + (k − m) + t ≥ τ.

Bait events are recorded in the trace (kind ``"bait"``); the reward
economics live in :mod:`repro.gametheory.trap_game`.
"""

from __future__ import annotations

from repro.agents.player import Player
from repro.agents.strategies import BaitingPolicy
from repro.core.pof import FraudProof
from repro.protocols.base import ProtocolConfig, ProtocolContext
from repro.protocols.polygraph import PolygraphReplica


class TrapReplica(PolygraphReplica):
    """Polygraph-shaped replica with voluntary, rewarded baiting.

    The defining (and, per Theorem 3, fatal) design choice: penalties
    are levied *only* through a rational baiter's Proof-of-Fraud
    submission.  Honest players that happen to hold fraud evidence
    merely record its availability — the protocol's incentive design
    delegates enforcement to the reward R, so when every rational
    player suppresses, a successful fork goes entirely unpunished.
    """

    def _punish(self, proof: FraudProof) -> None:
        accused = proof.accused
        if accused in self.reported_guilty:
            return
        if getattr(self.strategy, "policy", None) is not BaitingPolicy.BAIT:
            self.trace("pof_available", accused=accused, round=proof.round_number)
            return
        self.reported_guilty.add(accused)
        self.ctx.collateral.burn(accused, reason=f"trap-bait-round-{proof.round_number}")
        self.trace("bait", accused=accused, round=proof.round_number)
        self.trace("burn", accused=accused, round=proof.round_number)


def trap_factory(player: Player, config: ProtocolConfig, ctx: ProtocolContext) -> TrapReplica:
    """Replica factory (see :data:`repro.experiments.registry.PROTOCOL_FACTORIES`)."""
    return TrapReplica(player, config, ctx)
