"""Continuous near-miss scoring: how close did a run get to breaking?

Binary oracle verdicts waste most of a campaign's signal — a run that
burned three deviators, rode out a view-change storm and rolled back
two tentative blocks *passed*, but it passed near the boundary.  The
score below condenses those pressure signals into one bounded scalar
that the warehouse persists per run, so guided campaigns
(``repro fuzz --guided``, ``repro search campaign``) can spend their
budget near the failure boundary instead of sampling uniformly.

Every component reads lifetime-exact trace counters
(:meth:`TraceRecorder.count`) or the always-retained honest chains,
so the score is deterministic, cheap, and immune to trace retention
eviction.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Mapping, Optional, Tuple

#: Weights for the bounded combination.  Burns dominate (a burn means
#: accountability actually fired), rollback pressure is the direct
#: quorum-margin signal (a tentative block that never finalised), the
#: rest grade disruption intensity.
_WEIGHTS = {
    "burns": 1.0,
    "exposures": 0.5,
    "timeouts_per_round": 0.5,
    "rollback_fraction": 2.0,
    "height_spread": 0.5,
}


def near_miss_components(result) -> Dict[str, float]:
    """The raw pressure signals of one run, each >= 0."""
    trace = result.trace
    burns = float(trace.count("burn"))
    exposures = float(trace.count("expose"))
    rounds = max(1, int(getattr(result.config, "max_rounds", 1) or 1))
    timeouts_per_round = trace.count("timeout") / float(rounds)
    tentative = trace.count("tentative")
    final = trace.count("final")
    rollback_fraction = (
        max(0, tentative - final) / float(tentative) if tentative else 0.0
    )
    heights = [
        len(chain.final_blocks()) for chain in result.honest_chains().values()
    ]
    height_spread = float(max(heights) - min(heights)) if heights else 0.0
    return {
        "burns": burns,
        "exposures": exposures,
        "timeouts_per_round": timeouts_per_round,
        "rollback_fraction": rollback_fraction,
        "height_spread": height_spread,
    }


def near_miss_score(components: Dict[str, float]) -> float:
    """Bounded combination in [0, 1): 0 is a sleepy honest run."""
    weighted = sum(
        _WEIGHTS[name] * value for name, value in components.items() if name in _WEIGHTS
    )
    return weighted / (1.0 + weighted)


def with_near_miss(record, result):
    """A copy of ``record`` with the near-miss tuple attached.

    Kept out of :meth:`RunRecord.from_result` on purpose: the scalar
    only exists where a campaign asked for it, so the golden records
    (and every historical serialisation) stay byte-identical.
    """
    components = near_miss_components(result)
    items = tuple(sorted(components.items())) + (
        ("score", near_miss_score(components)),
    )
    return replace(record, near_miss=tuple(sorted(items)))


def priority_hint(scenario) -> float:
    """A static boundary-closeness heuristic for a scenario.

    Used to order campaign trials when the warehouse has no history
    for a bucket yet.  Higher means closer to the failure boundary.
    """
    score = 0.0
    capacity = max(1, scenario.n - 1)
    deviators = len(scenario.resolved_rational_ids()) + len(
        scenario.resolved_byzantine_ids()
    )
    score += deviators / float(capacity)
    if scenario.attack is not None:
        score += 0.5
    if getattr(scenario, "gene", None) is not None:
        score += 0.5
    if scenario.partition_windows:
        score += 0.5
    if scenario.crash_spec:
        score += 0.25
    score += min(1.0, scenario.loss_rate * 2.0)
    if scenario.quorum is not None:
        score += 0.25  # off-default quorum sits at the window edge
    return score


def bucket_params(scenario) -> Tuple[Tuple[str, Any], ...]:
    """The record params that file a scored run under its bucket: the
    scenario's ``attack`` and ``gene`` where set, carried by a fuzz or
    search job the way a sweep cell carries its grid point."""
    return tuple(
        (axis, value)
        for axis, value in (("attack", scenario.attack), ("gene", scenario.gene))
        if value is not None
    )


def bucket_key(protocol: str, params: Mapping[str, Any]) -> Tuple[str, str]:
    """The one bucketing rule, over a run's protocol and record params:
    ``"gene"`` for gene runs, else the attack, else ``"none"``."""
    if params.get("gene") is not None:
        return (protocol, "gene")
    return (protocol, str(params.get("attack") or "none"))


def bucket_of(scenario) -> Tuple[str, str]:
    """The warehouse aggregation bucket guided ordering averages over."""
    return bucket_key(scenario.protocol, dict(bucket_params(scenario)))


def score_of(record) -> Optional[float]:
    """Extract the scalar score from a record's near-miss tuple."""
    if record.near_miss is None:
        return None
    for name, value in record.near_miss:
        if name == "score":
            return float(value)
    return None
