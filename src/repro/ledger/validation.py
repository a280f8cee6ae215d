"""Ledger-level safety predicates from the paper's definitions.

- :func:`chains_agree` — (t,k)-agreement at the block level: no two
  honest chains hold different final blocks at the same height.
- :func:`common_prefix_holds` — the Garay-Kiayias-Leonardos common
  prefix property from Section 3.1: dropping the z newest blocks from
  each chain leaves a chain that prefixes all others.
- :func:`strict_ordering_holds` — Definition 1's c-strict ordering:
  for honest chains C1, C2 with |C1| ≤ |C2|, C1^{⌊c} ⊆ C2^{⌊c}.

Each is stated over *pairs* of ledgers; none is evaluated pair by
pair.  Ledgers are pairwise prefix-consistent iff each is a prefix of
the longest one L (if A, B prefix L and |A| ≤ |B|, A = L[:|A|] = B[:|A|]),
so an audit of n ledgers of L blocks costs O(n·L) digest reads and
list comparisons in C, not O(n²·L).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ledger.chain import Chain, check_suffix_count


#: Prefix equivocating strategies stamp on their synthetic fork-marker
#: transactions.  The one place the literal lives: both the robustness
#: checker and the trace oracle judge validity through the predicate
#: below, so the two layers can never disagree about what counts as
#: client-submitted content.
ADVERSARIAL_MARKER_PREFIX = "__fork-"


def is_adversarial_marker(tx_id: str) -> bool:
    """True for synthetic transactions minted by equivocating proposers
    (legitimate *proposed* content, exempt from provenance checks)."""
    return tx_id.startswith(ADVERSARIAL_MARKER_PREFIX)


def _off_longest(views: List[List[str]]) -> Tuple[List[str], List[List[str]]]:
    """The longest view, and every view that is not a prefix of it."""
    longest = max(views, key=len, default=[])
    return longest, [view for view in views if view != longest[:len(view)]]


def _views(chains: Dict[int, Chain], final_only: bool, genesis: bool = False) -> List[List[str]]:
    """Each chain's block digests, bottom-up: every digest is read once."""
    read = Chain.final_blocks if final_only else Chain.blocks
    return [[block.digest for block in read(chain, genesis)] for chain in chains.values()]


def chains_agree(chains: Dict[int, Chain], final_only: bool = True) -> bool:
    """True if no two chains conflict at any common height.

    With ``final_only`` (the default, matching Definition 1 applied to
    confirmed blocks) only finalised blocks are compared; tentative
    blocks are allowed to differ because the protocol may roll them
    back.
    """
    return not _off_longest(_views(chains, final_only))[1]


def common_prefix_holds(chains: Dict[int, Chain], z: int) -> bool:
    """Common-prefix with parameter z over full (tentative+final) chains.

    Each player's chain minus its z newest blocks must be a prefix of
    every other player's full chain.  Equivalently, every chain starts
    with the same (longest length − z) blocks; a chain shorter than that
    fails, as the longest chain so trimmed cannot prefix it.
    """
    check_suffix_count("z", z)
    views = _views(chains, final_only=False, genesis=True)
    depth = max(0, max(map(len, views), default=0) - z)
    return all(view[:depth] == views[0][:depth] for view in views)


def strict_ordering_holds(chains: Dict[int, Chain], c: int) -> bool:
    """Definition 1's c-strict ordering over final ledgers.

    For every pair of chains with |C1| ≤ |C2|, the ledger C1 minus its
    c newest blocks must be a prefix of C2 minus its c newest blocks.
    Trimming keeps the length order, so this is prefix-consistency of
    the trimmed ledgers.
    """
    check_suffix_count("c", c)
    views = _views(chains, final_only=True, genesis=True)
    return not _off_longest([view[:-c] if c else view for view in views])[1]


def disagreement_heights(chains: Dict[int, Chain], final_only: bool = True) -> List[int]:
    """Heights at which some pair of chains holds conflicting blocks.

    Used by the state classifier to detect σ_Fork and by tests to
    pinpoint where a fork was created.  A pair conflicts at a height
    iff one of them differs there from the longest chain, which holds a
    block at every height either does.
    """
    longest, forked = _off_longest(_views(chains, final_only))
    return sorted({h + 1 for view in forked for h, d in enumerate(view) if d != longest[h]})
