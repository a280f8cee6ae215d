"""System states σ and the classifier from execution outcomes to states.

Section 4.1.1 defines four states of the distributed system:

- σ_NP  (No Progress): no new blocks are confirmed;
- σ_CP  (Conditional Progress): blocks are confirmed but censored
  transactions (the set Z) never appear;
- σ_Fork (Disagreement): two honest players confirm different blocks
  at the same height;
- σ_0   (Honest Execution): correctness and liveness both hold.

The classifier inspects honest players' chains (never adversary
state): forks dominate, then lack of progress, then censorship.  It
runs the one derivation :mod:`repro.analysis.robustness` owns, the
same :attr:`~repro.analysis.robustness.RobustnessReport.state` reads.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Optional

from repro.ledger.chain import Chain


class SystemState(enum.Enum):
    """The σ states of Table 2."""

    NO_PROGRESS = "sigma_NP"
    CENSORSHIP = "sigma_CP"
    FORK = "sigma_Fork"
    HONEST = "sigma_0"


def classify_state(
    honest_chains: Dict[int, Chain],
    censored_tx_ids: Optional[Iterable[str]] = None,
    final_only: bool = True,
) -> SystemState:
    """The most severe σ of honest players' chains: fork ≻ no-progress ≻
    censorship (some of ``censored_tx_ids``, the set Z, on no chain) ≻
    honest execution, over finalised blocks unless ``final_only`` is off.
    """
    # Lazy: the analysis layer sits above the runner, which imports us.
    from repro.analysis.robustness import chain_state

    return chain_state(honest_chains, censored_tx_ids, final_only)
