"""The link layer: when, and whether, each copy of an envelope arrives.

The paper's RFT(t, k) results and the pRFT robustness theorems are
stated over networks that may *lose*, *reorder* and *delay* messages;
Polygraph's evaluation (Civit et al., ICDCS '21) runs under partial
synchrony with faulty links.  :meth:`LinkPipeline.transmit` is the
network's whole delivery decision, five steps in a fixed order:

    delay → partition → probabilistic drop → duplication → reorder-jitter

Payloads are never transformed — channels remain tamper-proof; only
*whether* and *when* each copy arrives is at stake.

Determinism contract: each stochastic step owns a ``random.Random``
seeded from ``(run seed, step name)`` via :func:`stage_seed` and draws
from it only when its knob is non-zero — once per envelope for loss
and duplication, once per surviving copy for jitter — so turning one
fault on never shifts another's pattern, and one ``(Scenario, seed)``
pair replays the identical fault pattern — including which envelopes
are lost — across processes and machines.  With every knob at zero the
link is the paper's reliable one: ``deliver_at = max(now + delay,
heal_time)``.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional

from repro.net.delays import DelayModel, FixedDelay
from repro.net.partition import PartitionSchedule

#: How long after the original a duplicated copy lands.  A fixed
#: offset, so duplication costs exactly one RNG draw per envelope.
DUPLICATE_SPACING = 0.5


def stage_seed(seed: str, stage_name: str) -> int:
    """A stable 64-bit integer seed for one step of one deployment."""
    digest = hashlib.sha256(f"{seed}|link|{stage_name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class LinkPipeline:
    """One deployment's link: a delay model, a partition schedule and
    three seeded fault knobs applied to every send."""

    def __init__(
        self,
        delay_model: Optional[DelayModel] = None,
        partitions: Optional[PartitionSchedule] = None,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_jitter: float = 0.0,
        seed: str = "default",
    ) -> None:
        if not 0 <= loss_rate < 1:
            raise ValueError("loss rate must lie in [0, 1)")
        if not 0 <= duplicate_rate <= 1:
            raise ValueError("duplicate rate must lie in [0, 1]")
        if reorder_jitter < 0:
            raise ValueError("jitter must be non-negative")
        self._delay_model = delay_model or FixedDelay()
        self._partitions = partitions
        self._loss_rate = loss_rate
        self._duplicate_rate = duplicate_rate
        self._jitter = reorder_jitter
        self._loss = random.Random(stage_seed(seed, "loss"))
        self._duplicate = random.Random(stage_seed(seed, "duplicate"))
        self._reorder = random.Random(stage_seed(seed, "reorder-jitter"))

    @property
    def fault_injecting(self) -> bool:
        """True if the link can drop, duplicate or reorder traffic —
        protocols consult :attr:`Network.unreliable` to decide whether
        their timeout paths should retransmit."""
        return bool(self._loss_rate or self._duplicate_rate or self._jitter)

    def transmit(self, sender: int, recipient: int, send_time: float) -> List[float]:
        """Delivery times for one envelope sent now ([] = lost).

        A partition defers to the heal time computed at the *send*
        instant (the paper's partial-synchrony reading of partitions
        as long delays).  Receivers must be idempotent under
        duplication (they are: all protocol handlers key state by
        sender/digest).  Because the engine orders simultaneous events
        FIFO, jitter is what actually *reorders* messages relative to
        their send order.
        """
        at = send_time + self._delay_model.delay(sender, recipient, send_time)
        if self._partitions is not None:
            at = max(at, self._partitions.heal_time(sender, recipient, send_time))
        if self._loss_rate and self._loss.random() < self._loss_rate:
            return []
        times = [at]
        if self._duplicate_rate and self._duplicate.random() < self._duplicate_rate:
            times.append(at + DUPLICATE_SPACING)
        if self._jitter:
            times = [t + self._reorder.uniform(0.0, self._jitter) for t in times]
        return times
