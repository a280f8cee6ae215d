"""Per-round and discounted repeated-round utilities (Equation 1).

The paper defines, for rational player P_i with strategy π and type θ:

    u_i(π, θ, r) = E_{σ~S}[f(σ, θ)] − L · D(π, σ)        (per round)
    U_i(π, θ)   = Σ_{r=0..∞} δ^r · u_i(π, θ, r)          (Equation 1)

with collateral L and penalty indicator D ∈ {0, 1}.  We provide both a
finite-stream evaluator (for simulated runs) and the geometric closed
form for a constant per-round utility (for the analytical results).
"""

from __future__ import annotations

from typing import Iterable


def round_utility(expected_payoff: float, collateral: float, penalised: bool) -> float:
    """u_i for one round: E[f(σ, θ)] − L·D."""
    if collateral < 0:
        raise ValueError("collateral must be non-negative")
    return expected_payoff - (collateral if penalised else 0.0)


def discounted_utility(per_round: Iterable[float], delta: float) -> float:
    """Σ_r δ^r u_r over a finite stream of realised round utilities."""
    if not 0 <= delta <= 1:
        raise ValueError("discount factor must be in [0, 1]")
    total = 0.0
    factor = 1.0
    for utility in per_round:
        total += factor * utility
        factor *= delta
    return total


def geometric_utility(per_round_constant: float, delta: float) -> float:
    """Closed form of Equation 1 when u_r is constant: u / (1 − δ).

    Requires δ < 1 (the paper's discounted repeated game).
    """
    if not 0 <= delta < 1:
        raise ValueError("discount factor must be in [0, 1)")
    return per_round_constant / (1.0 - delta)

