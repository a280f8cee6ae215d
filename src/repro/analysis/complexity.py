"""Message-complexity measurement (the Figure-3 table).

For each protocol we measure, from honest full runs at several
committee sizes n, the per-round message count and byte volume, then
fit the growth exponent on a log-log scale.  The paper's table reports
asymptotic worst-case orders; the *relative* ordering (HotStuff below
pBFT below the accountable protocols on size; pRFT on par with
Polygraph) is the reproduction target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

from repro.sim.metrics import fit_exponent


@dataclass
class ComplexityMeasurement:
    """Per-round traffic of one protocol across committee sizes."""

    protocol: str
    sizes: List[int]
    messages_per_round: List[float]
    bytes_per_round: List[float]

    @property
    def message_exponent(self) -> float:
        """Fitted b in messages ≈ a·n^b."""
        return fit_exponent(self.sizes, self.messages_per_round)

    @property
    def size_exponent(self) -> float:
        """Fitted b in bytes ≈ a·n^b."""
        return fit_exponent(self.sizes, self.bytes_per_round)


def measure_complexity(scenario: Any, sizes: Sequence[int]) -> ComplexityMeasurement:
    """Run ``scenario`` (a :class:`~repro.experiments.Scenario`) at each
    committee size n and collect its per-round traffic."""
    messages: List[float] = []
    volumes: List[float] = []
    for n in sizes:
        count, size = scenario.with_params(n=n).run(seed=0).metrics.per_round_average()
        messages.append(count)
        volumes.append(size)
    return ComplexityMeasurement(
        protocol=scenario.protocol,
        sizes=list(sizes),
        messages_per_round=messages,
        bytes_per_round=volumes,
    )
