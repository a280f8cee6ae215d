"""Accountability checking (Definition 6 of the paper).

A protocol is accountable if, whenever honest parties disagree (or
more generally whenever deviation is penalised), there exists a
Proof-of-Fraud π such that the verification algorithm V(π) outputs the
deviating players — and V never outputs an honest player.  The checker
cross-references three sources:

1. the burns recorded in the collateral registry,
2. the fraud proofs held by honest replicas' detectors,
3. the ground-truth deviator set (players whose strategy double-signs).

:func:`judge_accountability` alone computes these sets; the oracle's
checkers read its report as :func:`check_accountability`'s callers do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.core.pof import verify_proofs
from repro.protocols.runner import RunResult


@dataclass
class AccountabilityReport:
    """Who was burned, who is provably guilty (V(π) over each distinct
    honest-held proof, verified once; nobody under a forgeable backend),
    who actually deviated."""

    burned: Set[int]
    provably_guilty: Set[int]
    ground_truth_deviators: Set[int]
    honest_ids: Set[int]

    @property
    def no_honest_framed(self) -> bool:
        """Soundness: no honest player burned or provably accused."""
        return not (self.burned & self.honest_ids) and not (
            self.provably_guilty & self.honest_ids
        )

    @property
    def burns_backed_by_proofs(self) -> bool:
        """Every burn is justified by a verifying Proof-of-Fraud."""
        return self.burned <= self.provably_guilty

    @property
    def burns_hit_deviators(self) -> bool:
        """Every burn lands on a ground-truth deviator."""
        return self.burned <= self.ground_truth_deviators

    @property
    def sound(self) -> bool:
        return self.no_honest_framed and self.burns_backed_by_proofs and self.burns_hit_deviators


def judge_accountability(result: RunResult) -> AccountabilityReport:
    """Definition 6's sets for one run, whatever its crypto backend."""
    registry = result.ctx.registry
    provably_guilty: Set[int] = set()
    if registry.backend.unforgeable:
        detectors = [getattr(result.replicas[pid], "detector", None) for pid in result.honest_ids]
        held = {proof for d in detectors if d is not None for proof in d.proofs().values()}
        provably_guilty = verify_proofs(held, registry)
    return AccountabilityReport(
        burned=set(result.penalised_players()),
        provably_guilty=provably_guilty,
        # Players whose strategy signs conflicting statements (π_ds).
        ground_truth_deviators={
            player.player_id for player in result.players if player.strategy.double_votes()
        },
        honest_ids=set(result.honest_ids),
    )


def check_accountability(result: RunResult) -> AccountabilityReport:
    """Cross-check burns, proofs and ground truth for one run: the
    report the oracle's ``no-honest-pof`` and ``accountability`` read.

    Refuses runs signed with a forgeable backend: Definition 6's V(π)
    is only convincing because nobody but the accused could have
    produced the tags, so a ``fast-sim`` run has no binding proofs to
    check (its "guilty" sets would be meaningless).
    """
    registry = result.ctx.registry
    if not registry.backend.unforgeable:
        raise ValueError(
            f"accountability analysis needs an unforgeable crypto backend; "
            f"this run used {registry.backend.name!r} whose proofs are not binding "
            f"(re-run the scenario with crypto_backend='hmac-sha256')"
        )
    return judge_accountability(result)
