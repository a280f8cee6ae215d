"""Pending-transaction pools with censorship hooks.

Every player holds a mempool of transactions awaiting inclusion.  An
honest leader proposes the oldest pending transactions; a censoring
leader (strategy π_pc, Theorem 2) filters a target set Z out of its
proposals.  The mempool also tracks inclusion so repeated rounds do not
re-propose confirmed transactions.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Optional, Set

from repro.ledger.transaction import Transaction
from repro.sim.metrics import evict_oldest


class Mempool:
    """Ordered pool of pending transactions, keyed by id.

    The one contract: a duplicate is ignored while its original is
    pending or among the newest ``history_limit`` inclusions.
    ``history_limit`` (the retention soak path; ``None`` = unbounded
    legacy) caps the inclusion history — a soak run would otherwise
    keep one entry per transaction ever finalised — evicting
    oldest-first, so it should comfortably exceed how far behind its
    inclusion a link-layer duplicate can arrive.
    """

    def __init__(self, history_limit: Optional[int] = None) -> None:
        # Both insertion-ordered: pending is the FIFO the leader drains,
        # and bounded eviction drops the oldest inclusions.
        self._pending: Dict[str, Transaction] = {}
        self._included: Dict[str, None] = {}
        self.history_limit = history_limit

    def submit(self, transaction: Transaction) -> bool:
        """Add a transaction; duplicates (by id) are ignored."""
        return self.submit_all((transaction,)) == 1

    def submit_all(self, transactions: Iterable[Transaction]) -> int:
        """Submit many; returns how many were new."""
        pending, included = self._pending, self._included
        before = len(pending)
        for tx in transactions:
            tx_id = tx.tx_id
            if tx_id not in pending and tx_id not in included:
                pending[tx_id] = tx
        return len(pending) - before

    def mark_included(self, tx_ids: Iterable[str]) -> None:
        """Record that these transactions reached the ledger."""
        pending, included = self._pending, self._included
        for tx_id in tx_ids:
            included[tx_id] = None
            pending.pop(tx_id, None)
        if self.history_limit is not None:
            evict_oldest(included, self.history_limit)

    def select(
        self,
        limit: int,
        censor: Optional[Set[str]] = None,
    ) -> List[Transaction]:
        """Pick up to ``limit`` pending transactions, oldest first.

        ``censor`` is the set Z of transaction ids a deviating leader
        refuses to include; honest leaders pass None.
        """
        if limit < 0:
            raise ValueError("limit must be non-negative")
        candidates: Iterable[Transaction] = self._pending.values()
        if censor:
            candidates = (tx for tx in candidates if tx.tx_id not in censor)
        return list(islice(candidates, limit))

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._pending
