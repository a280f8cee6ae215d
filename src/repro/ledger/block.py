"""Blocks: the values agreed on in each round.

A block carries a transaction set, points to its parent by hash, and
records the round and proposer.  ``Block.digest`` covers the round
number, so signed messages from one round cannot be replayed into
another (footnote 11 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Tuple

from repro.crypto.hashing import hash_value
from repro.ledger.transaction import Transaction

GENESIS_PARENT = "0" * 64


@dataclass(frozen=True)
class Block:
    """One block: (round, proposer, parent hash, transactions)."""

    round_number: int
    proposer: int
    parent_digest: str
    transactions: Tuple[Transaction, ...] = field(default_factory=tuple)

    def canonical(self) -> Tuple[Any, ...]:
        return (
            "block",
            self.round_number,
            self.proposer,
            self.parent_digest,
            tuple(tx.canonical() for tx in self.transactions),
        )

    @property
    def digest(self) -> str:
        """H(Block || r): the value players vote on.

        Computed once per block — the block is frozen, and its digest
        is read on every proposal check and chain-head comparison.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = hash_value(self)
            object.__setattr__(self, "_digest", cached)
        return cached

    @property
    def tx_ids(self) -> Tuple[str, ...]:
        """The transactions' ids in block order, cached like ``digest``:
        every replica landing the block reads them."""
        cached = self.__dict__.get("_tx_ids")
        if cached is None:
            cached = tuple(tx.tx_id for tx in self.transactions)
            object.__setattr__(self, "_tx_ids", cached)
        return cached

    def contains(self, tx_id: str) -> bool:
        """True if the block includes the transaction with ``tx_id``."""
        return any(tx.tx_id == tx_id for tx in self.transactions)

    @property
    def size_estimate_bytes(self) -> int:
        """Rough wire size: 32-byte header fields plus transactions."""
        return 3 * 32 + sum(32 + len(tx.payload) for tx in self.transactions)


def genesis_block() -> Block:
    """The common genesis every chain starts from (height 0)."""
    return Block(round_number=-1, proposer=-1, parent_digest=GENESIS_PARENT, transactions=())
