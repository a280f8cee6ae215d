"""Collateral deposits and Proof-of-Fraud burning (Section 5.3.1).

Each consensus participant deposits L before joining.  The deposit is
locked until q blocks are mined, and is *burned* (stashed, in the
paper's proof-of-burn reference) when a verified Proof-of-Fraud names
the player.  The registry is the economic half of accountability: the
game-theoretic layer reads penalties from here when computing the
``L · D(π, σ)`` term of the round utility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set


@dataclass
class _Account:
    deposit: float
    burned: bool = False
    burn_reasons: List[str] = field(default_factory=list)


class CollateralRegistry:
    """Tracks each player's deposit and burn status."""

    def __init__(self, deposit: float = 10.0, lock_blocks: int = 0) -> None:
        if deposit < 0:
            raise ValueError("deposit must be non-negative")
        self.deposit = deposit
        self.lock_blocks = lock_blocks
        self._accounts: Dict[int, _Account] = {}
        self._mined_blocks = 0

    def enroll(self, player_id: int) -> None:
        """Lock the deposit for ``player_id`` (joining the committee)."""
        if player_id in self._accounts:
            raise ValueError(f"player {player_id} already enrolled")
        self._accounts[player_id] = _Account(deposit=self.deposit)

    def enroll_all(self, player_ids: Iterable[int]) -> None:
        for player_id in player_ids:
            self.enroll(player_id)

    def note_block_mined(self) -> None:
        """Advance the lock clock by one mined block."""
        self._mined_blocks += 1

    def burn(self, player_id: int, reason: str = "proof-of-fraud") -> bool:
        """Burn ``player_id``'s collateral.  Idempotent; returns True if
        this call actually burned a live deposit."""
        account = self._accounts.get(player_id)
        if account is None:
            raise KeyError(f"player {player_id} not enrolled")
        already = account.burned
        account.burned = True
        account.burn_reasons.append(reason)
        return not already

    def burn_all(self, player_ids: Iterable[int], reason: str = "proof-of-fraud") -> int:
        """Burn several deposits; returns the number newly burned."""
        return sum(1 for player_id in set(player_ids) if self.burn(player_id, reason))

    def balance_of(self, player_id: int) -> float:
        """Remaining deposit: 0 if burned, else L."""
        account = self._accounts[player_id]
        return 0.0 if account.burned else account.deposit

    def penalty_of(self, player_id: int) -> float:
        """The realised penalty L·D for this player (L if burned)."""
        account = self._accounts[player_id]
        return account.deposit if account.burned else 0.0

    def burned_players(self) -> Set[int]:
        return {pid for pid, account in self._accounts.items() if account.burned}

    def withdrawable(self, player_id: int) -> bool:
        """True once the lock period elapsed and the deposit survives."""
        account = self._accounts[player_id]
        return not account.burned and self._mined_blocks >= self.lock_blocks

    def enrolled(self) -> List[int]:
        return sorted(self._accounts)
