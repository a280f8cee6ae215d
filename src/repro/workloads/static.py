"""The legacy pre-loaded batch, as a workload.

:class:`StaticBatch` reproduces the original fixed-batch semantics
exactly: the whole batch lands in every replica's mempool at
install time (virtual time 0), before any replica starts, and no engine
events are scheduled — which is what keeps default runs byte-identical
to the pre-workload simulator.

Combined with a configured ``duration`` it also serves as a finite
continuous workload: replicas keep opening slots until the batch is
drained (quiesce) or the duration elapses.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.ledger.transaction import Transaction
from repro.workloads.base import Workload


class StaticBatch(Workload):
    """Every transaction submitted up front, legacy style."""

    kind = "static"

    def __init__(self, transactions: Sequence[Transaction]) -> None:
        super().__init__()
        self._batch = list(transactions)

    def _start(self, ctx: Any) -> None:
        self.submit(self._batch)

    def finished(self, now: float) -> bool:
        return True
