"""Network partitions controlled by the adversary.

Several of the paper's arguments (Claim 1, Theorem 3, Lemma 4) reason
about an adversary that partitions the honest players into disjoint
sets A and B that can reach the byzantine set T but not each other.
A :class:`Partition` is a grouping of player ids; a
:class:`PartitionSchedule` activates partitions over time windows.

Reliable channels mean a partition *delays* rather than drops traffic:
cross-partition messages are queued and delivered when the partition
heals (consistent with partial synchrony, where a partition before GST
is just a pattern of long delays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Partition:
    """A division of some players into isolated groups.

    Players not named in any group are unrestricted: they can talk to
    everyone.  This models the paper's construction where the byzantine
    set T straddles both sides — simply leave T out of all groups.
    """

    groups: Tuple[FrozenSet[int], ...]

    @classmethod
    def of(cls, *groups: Iterable[int]) -> "Partition":
        frozen = tuple(frozenset(group) for group in groups)
        seen: set = set()
        for group in frozen:
            overlap = seen & group
            if overlap:
                raise ValueError(f"players {sorted(overlap)} appear in two groups")
            seen |= group
        return cls(groups=frozen)

    def group_of(self, player: int) -> Optional[FrozenSet[int]]:
        """The group containing ``player``, or None if unrestricted."""
        for group in self.groups:
            if player in group:
                return group
        return None

    def blocks(self, sender: int, recipient: int) -> bool:
        """True if traffic from sender to recipient is cut by this partition."""
        sender_group = self.group_of(sender)
        recipient_group = self.group_of(recipient)
        if sender_group is None or recipient_group is None:
            return False
        return sender_group is not recipient_group


@dataclass
class _Window:
    start: float
    end: float
    partition: Partition


class PartitionSchedule:
    """Time-windowed partitions.

    ``add(partition, start, end)`` activates ``partition`` during
    [start, end).  Windows may not overlap (one partition at a time —
    compose groups instead).  ``heal_time(sender, recipient, t)``
    returns when a message sent at ``t`` can first cross.
    """

    def __init__(self) -> None:
        self._windows: List[_Window] = []

    def add(self, partition: Partition, start: float, end: float) -> None:
        if math.isnan(start) or math.isnan(end):
            raise ValueError("partition window times must not be NaN")
        if end <= start:
            raise ValueError("window must have positive length")
        for window in self._windows:
            if start < window.end and window.start < end:
                raise ValueError("partition windows may not overlap")
        self._windows.append(_Window(start=start, end=end, partition=partition))
        self._windows.sort(key=lambda window: window.start)

    def active_at(self, time: float) -> Optional[Partition]:
        """The partition in force at ``time``, or None."""
        for window in self._windows:
            if window.start <= time < window.end:
                return window.partition
        return None

    def blocks_at(self, sender: int, recipient: int, time: float) -> bool:
        """True if (sender → recipient) is cut at ``time``."""
        partition = self.active_at(time)
        return partition is not None and partition.blocks(sender, recipient)

    def heal_time(self, sender: int, recipient: int, time: float) -> float:
        """Earliest time ≥ ``time`` at which sender can reach recipient.

        Scans forward across windows; since windows are finite the
        result is always finite (channels are reliable).
        """
        current = time
        for window in self._windows:
            if window.end <= current:
                continue
            if window.start <= current < window.end and window.partition.blocks(sender, recipient):
                current = window.end
        return current
