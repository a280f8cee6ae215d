"""Pending-transaction pools with censorship hooks.

Every player holds a mempool of transactions awaiting inclusion.  An
honest leader proposes the oldest pending transactions; a censoring
leader (strategy π_pc, Theorem 2) filters a target set Z out of its
proposals.  The mempool also tracks inclusion so repeated rounds do not
re-propose confirmed transactions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.ledger.transaction import Transaction


class Mempool:
    """Ordered pool of pending transactions.

    ``history_limit`` (the retention soak path; ``None`` = unbounded
    legacy) caps the known/included dedup histories at the newest
    ``history_limit`` ids each — a soak run would otherwise accumulate
    one set entry per transaction ever seen.  Eviction is oldest-first;
    a duplicate arriving more than ``history_limit`` submissions after
    its original can be re-admitted, so the limit should comfortably
    exceed any link-layer duplication spread.
    """

    def __init__(self) -> None:
        self._pending: List[Transaction] = []
        # Insertion-ordered so bounded eviction drops the oldest ids.
        self._known_ids: Dict[str, None] = {}
        self._included_ids: Dict[str, None] = {}
        self.history_limit: Optional[int] = None

    def _trim_history(self) -> None:
        limit = self.history_limit
        if limit is None:
            return
        while len(self._known_ids) > limit:
            del self._known_ids[next(iter(self._known_ids))]
        while len(self._included_ids) > limit:
            del self._included_ids[next(iter(self._included_ids))]

    def submit(self, transaction: Transaction) -> bool:
        """Add a transaction; duplicates (by id) are ignored."""
        if transaction.tx_id in self._known_ids:
            return False
        self._known_ids[transaction.tx_id] = None
        if transaction.tx_id not in self._included_ids:
            self._pending.append(transaction)
        self._trim_history()
        return True

    def submit_all(self, transactions: Iterable[Transaction]) -> int:
        """Submit many; returns how many were new."""
        return sum(1 for tx in transactions if self.submit(tx))

    def mark_included(self, tx_ids: Iterable[str]) -> None:
        """Record that these transactions reached the ledger."""
        ordered = list(tx_ids)
        for tx_id in ordered:
            self._included_ids[tx_id] = None
        ids = set(ordered)
        self._pending = [tx for tx in self._pending if tx.tx_id not in ids]
        self._trim_history()

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
        banned = censor or set()
        selected = [tx for tx in self._pending if tx.tx_id not in banned]
        return selected[:limit]

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, tx_id: str) -> bool:
        return any(tx.tx_id == tx_id for tx in self._pending)
