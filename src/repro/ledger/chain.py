"""A player's local ledger with two-level (tentative/final) confirmation.

pRFT, like Algorand, first reaches *tentative* consensus (after the
commit quorum) and later *final* consensus (after the reveal phase
shows at most t0 double-signers, or a majority of Final messages).
Tentative blocks may be rolled back if adversarial behaviour surfaces;
final blocks never are.  A tentative block is also implicitly finalised
when a later block on top of it finalises (Section 3.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ledger.block import Block, genesis_block


def check_suffix_count(name: str, value: object) -> None:
    """Refuse a ⌊c / ⌊z suffix length that is not a non-negative int:
    a bool would slice as 0 or 1, a float would fail unnamed."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a non-negative int; got {value!r}")


class ConfirmationStatus(enum.Enum):
    """Confirmation level of a block on a local chain."""

    TENTATIVE = "tentative"
    FINAL = "final"


@dataclass
class _Entry:
    block: Block
    status: ConfirmationStatus


class Chain:
    """An append-only (up to tentative rollback) sequence of blocks."""

    def __init__(self) -> None:
        self._entries: List[_Entry] = [
            _Entry(block=genesis_block(), status=ConfirmationStatus.FINAL)
        ]
        self._height_by_digest: Dict[str, int] = {self._entries[0].block.digest: 0}
        self._pruned_below = 0
        self._bodies_pruned = False

    # ------------------------------------------------------------------
    # Growing and finalising
    # ------------------------------------------------------------------
    def head(self) -> Block:
        """The most recent block (tentative or final)."""
        return self._entries[-1].block

    def append_tentative(self, block: Block) -> None:
        """Append ``block`` as tentative; it must chain to the head."""
        if block.parent_digest != self.head().digest:
            raise ValueError(
                f"block parent {block.parent_digest[:8]} does not match "
                f"head {self.head().digest[:8]}"
            )
        if block.digest in self._height_by_digest:
            raise ValueError("block already on chain")
        self._entries.append(_Entry(block=block, status=ConfirmationStatus.TENTATIVE))
        self._height_by_digest[block.digest] = len(self._entries) - 1

    def finalize(self, digest: str) -> None:
        """Mark the block with ``digest`` final, and with it every ancestor.

        A final block finalises its whole prefix: the paper treats a
        tentative block as finalised once a finalised block follows it.
        """
        height = self._height_by_digest.get(digest)
        if height is None:
            raise KeyError(f"no block {digest[:8]} on this chain")
        # Finality is prefix-closed (appends extend the tentative suffix,
        # rollback pops only that suffix): stop at the first final entry.
        while self._entries[height].status is not ConfirmationStatus.FINAL:
            self._entries[height].status = ConfirmationStatus.FINAL
            height -= 1

    def prune_final_bodies(self, keep_last: int) -> int:
        """Drop transaction bodies from final blocks deeper than the
        newest ``keep_last`` final ones (the retention soak path).

        Each pruned entry is replaced by a header-only copy carrying
        the original's cached digest: chain length, digest lookups,
        parent links and agreement comparisons are unaffected.  Only
        :meth:`contains_transaction` and body iteration lose the deep
        history — callers check :attr:`bodies_pruned` before treating
        block contents as complete.  Returns how many blocks were
        pruned by this call.
        """
        if keep_last < 1:
            raise ValueError("keep_last must be positive")
        cutoff = self.final_height() - keep_last
        pruned = 0
        for height in range(max(1, self._pruned_below), cutoff + 1):
            entry = self._entries[height]
            if entry.status is not ConfirmationStatus.FINAL:
                break
            block = entry.block
            if block.transactions:
                stripped = Block(
                    round_number=block.round_number,
                    proposer=block.proposer,
                    parent_digest=block.parent_digest,
                    transactions=(),
                )
                object.__setattr__(stripped, "_digest", block.digest)
                entry.block = stripped
                pruned += 1
                self._bodies_pruned = True
            self._pruned_below = height + 1
        return pruned

    @property
    def bodies_pruned(self) -> bool:
        """True once any final block's transaction body was dropped."""
        return self._bodies_pruned

    def rollback_tentative(self) -> List[Block]:
        """Drop every tentative suffix block; return the dropped blocks."""
        dropped: List[Block] = []
        while self._entries and self._entries[-1].status is ConfirmationStatus.TENTATIVE:
            entry = self._entries.pop()
            del self._height_by_digest[entry.block.digest]
            dropped.append(entry.block)
        dropped.reverse()
        return dropped

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of blocks excluding genesis."""
        return len(self._entries) - 1

    def height_of(self, digest: str) -> Optional[int]:
        return self._height_by_digest.get(digest)

    def status_at(self, height: int) -> ConfirmationStatus:
        return self._entries[height].status

    def status_of(self, digest: str) -> Optional[ConfirmationStatus]:
        height = self._height_by_digest.get(digest)
        if height is None:
            return None
        return self._entries[height].status

    def blocks(self, include_genesis: bool = False) -> List[Block]:
        """All blocks bottom-up (excluding genesis by default)."""
        start = 0 if include_genesis else 1
        return [entry.block for entry in self._entries[start:]]

    def final_blocks(self, include_genesis: bool = False) -> List[Block]:
        """The finalised prefix, bottom-up."""
        start = 0 if include_genesis else 1
        return [
            entry.block
            for entry in self._entries[start:]
            if entry.status is ConfirmationStatus.FINAL
        ]

    def final_height(self) -> int:
        """Height of the highest final block (0 = only genesis final)."""
        for height in range(len(self._entries) - 1, -1, -1):
            if self._entries[height].status is ConfirmationStatus.FINAL:
                return height
        return 0

    def without_last(self, count: int) -> List[Block]:
        """The chain C^{⌊count} — all blocks minus the ``count`` newest.

        This is the ⌊z operator from Section 3.1's common-prefix
        property and Definition 1's c-strict ordering.
        """
        check_suffix_count("count", count)
        blocks = self.blocks(include_genesis=True)
        if count == 0:
            return blocks
        return blocks[:-count]

    def contains_transaction(self, tx_id: str, final_only: bool = False) -> bool:
        """True if some (final, if requested) block includes ``tx_id``."""
        blocks = self.final_blocks() if final_only else self.blocks()
        return any(block.contains(tx_id) for block in blocks)
