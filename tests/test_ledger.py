"""Unit and property tests for the ledger substrate (repro.ledger)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ledger.block import Block, genesis_block
from repro.ledger.chain import Chain, ConfirmationStatus
from repro.ledger.collateral import CollateralRegistry
from repro.ledger.mempool import Mempool
from repro.ledger.transaction import Transaction
from repro.ledger.validation import (
    chains_agree,
    common_prefix_holds,
    disagreement_heights,
    strict_ordering_holds,
)


def _block(parent: Block, round_number: int, tag: str = "") -> Block:
    txs = (Transaction(tx_id=f"tx-{round_number}-{tag}"),) if tag else ()
    return Block(
        round_number=round_number,
        proposer=round_number % 4,
        parent_digest=parent.digest,
        transactions=txs,
    )


def _chain_of(length: int, tag: str = "") -> Chain:
    chain = Chain()
    for r in range(length):
        block = _block(chain.head(), r, tag=tag or "x")
        chain.append_tentative(block)
        chain.finalize(block.digest)
    return chain


class TestBlock:
    def test_digest_depends_on_round(self):
        genesis = genesis_block()
        a = Block(0, 0, genesis.digest, ())
        b = Block(1, 0, genesis.digest, ())
        assert a.digest != b.digest

    def test_digest_depends_on_transactions(self):
        genesis = genesis_block()
        a = Block(0, 0, genesis.digest, (Transaction("t1"),))
        b = Block(0, 0, genesis.digest, (Transaction("t2"),))
        assert a.digest != b.digest

    def test_contains(self):
        block = Block(0, 0, genesis_block().digest, (Transaction("t1"),))
        assert block.contains("t1")
        assert not block.contains("t2")

    def test_tx_ids_in_block_order_and_outside_equality(self):
        block = Block(0, 0, "p", (Transaction("t2"), Transaction("t1")))
        assert block.tx_ids == ("t2", "t1") and block.tx_ids is block.tx_ids
        assert block == Block(0, 0, "p", block.transactions)
        assert genesis_block().tx_ids == ()

    def test_genesis_deterministic(self):
        assert genesis_block().digest == genesis_block().digest

    def test_size_estimate_counts_payload(self):
        small = Block(0, 0, "p", (Transaction("t", payload=""),))
        big = Block(0, 0, "p", (Transaction("t", payload="x" * 100),))
        assert big.size_estimate_bytes == small.size_estimate_bytes + 100


class WholePrefixChain(Chain):
    """The reference ``finalize``: assign FINAL to the entire prefix,
    whatever its current status (what ``Chain.finalize`` did before it
    learnt to stop at the first already-final ancestor)."""

    def finalize(self, digest):
        for entry in self._entries[: self._height_by_digest[digest] + 1]:
            entry.status = ConfirmationStatus.FINAL


class TestChain:
    def test_append_and_finalize(self):
        chain = Chain()
        block = _block(chain.head(), 0)
        chain.append_tentative(block)
        assert chain.status_of(block.digest) is ConfirmationStatus.TENTATIVE
        chain.finalize(block.digest)
        assert chain.status_of(block.digest) is ConfirmationStatus.FINAL
        assert len(chain) == 1

    def test_append_wrong_parent_rejected(self):
        chain = Chain()
        orphan = Block(0, 0, "f" * 64, ())
        with pytest.raises(ValueError):
            chain.append_tentative(orphan)

    def test_duplicate_append_rejected(self):
        chain = Chain()
        block = _block(chain.head(), 0)
        chain.append_tentative(block)
        with pytest.raises(ValueError):
            chain.append_tentative(block)

    def test_finalize_unknown_digest_rejected(self):
        with pytest.raises(KeyError):
            Chain().finalize("0" * 64)

    def test_finalize_cascades_to_ancestors(self):
        chain = Chain()
        first = _block(chain.head(), 0)
        chain.append_tentative(first)
        second = _block(chain.head(), 1)
        chain.append_tentative(second)
        chain.finalize(second.digest)
        assert chain.status_of(first.digest) is ConfirmationStatus.FINAL

    def test_rollback_drops_only_tentative_suffix(self):
        chain = Chain()
        first = _block(chain.head(), 0)
        chain.append_tentative(first)
        chain.finalize(first.digest)
        second = _block(chain.head(), 1)
        chain.append_tentative(second)
        dropped = chain.rollback_tentative()
        assert [b.digest for b in dropped] == [second.digest]
        assert len(chain) == 1
        assert chain.head().digest == first.digest

    def test_rollback_empty_when_all_final(self):
        chain = _chain_of(2)
        assert chain.rollback_tentative() == []

    def test_without_last(self):
        chain = _chain_of(3)
        full = chain.blocks(include_genesis=True)
        assert chain.without_last(0) == full
        assert chain.without_last(2) == full[:-2]

    def test_without_last_negative_rejected(self):
        with pytest.raises(ValueError):
            Chain().without_last(-1)

    def test_contains_transaction_final_only(self):
        chain = Chain()
        block = Block(0, 0, chain.head().digest, (Transaction("t1"),))
        chain.append_tentative(block)
        assert chain.contains_transaction("t1")
        assert not chain.contains_transaction("t1", final_only=True)
        chain.finalize(block.digest)
        assert chain.contains_transaction("t1", final_only=True)

    def test_final_height(self):
        chain = _chain_of(2)
        assert chain.final_height() == 2
        chain.append_tentative(_block(chain.head(), 5))
        assert chain.final_height() == 2

    @given(st.integers(min_value=0, max_value=6))
    def test_length_matches_appends(self, count):
        chain = Chain()
        for r in range(count):
            chain.append_tentative(_block(chain.head(), r))
        assert len(chain) == count

    @given(st.lists(st.one_of(
        st.tuples(st.just("append")),
        st.tuples(st.just("finalize"), st.integers(0, 10**6)),
        st.tuples(st.just("rollback")),
        st.tuples(st.just("prune"), st.integers(1, 4)),
    ), max_size=40))
    def test_finalize_agrees_with_whole_prefix_assignment(self, ops):
        chain, reference = Chain(), WholePrefixChain()
        for step, (name, *args) in enumerate(ops):
            for each in (chain, reference):
                if name == "append":
                    each.append_tentative(_block(each.head(), step, "t"))
                elif name == "finalize":  # any on-chain digest, final or not
                    on_chain = each.blocks(include_genesis=True)
                    each.finalize(on_chain[args[0] % len(on_chain)].digest)
                elif name == "rollback":
                    each.rollback_tentative()
                else:
                    each.prune_final_bodies(keep_last=args[0])
            assert chain.blocks() == reference.blocks()
            assert chain.final_height() == reference.final_height()
            assert [chain.status_at(h) for h in range(len(chain) + 1)] == [
                reference.status_at(h) for h in range(len(reference) + 1)
            ]


_ALPHABET = "abcdefgh"
_IDS = st.sampled_from(_ALPHABET)
_TXS = st.builds(Transaction, _IDS, st.sampled_from(["", "x"]))


class ModelPool:
    """The mempool contract spelt out on lists: distinct pending ids in
    arrival order; inclusions in first-inclusion order, cut to the
    newest ``limit`` after each ``mark_included``."""

    def __init__(self, limit):
        self.limit, self.pending, self.included = limit, [], []

    def submit(self, tx):
        if tx.tx_id in [p.tx_id for p in self.pending] + self.included:
            return False
        self.pending.append(tx)
        return True

    def submit_all(self, txs):
        return sum([self.submit(tx) for tx in txs])

    def mark_included(self, tx_ids):
        self.included += [i for i in dict.fromkeys(tx_ids) if i not in self.included]
        self.pending = [tx for tx in self.pending if tx.tx_id not in tx_ids]
        if self.limit is not None:
            del self.included[: -self.limit]

    def select(self, limit, censor=None):
        return [tx for tx in self.pending if tx.tx_id not in (censor or ())][:limit]


class TestMempool:
    def test_submit_and_select_fifo(self):
        pool = Mempool()
        for i in range(5):
            pool.submit(Transaction(f"t{i}"))
        assert [tx.tx_id for tx in pool.select(3)] == ["t0", "t1", "t2"]

    def test_duplicates_ignored(self):
        pool = Mempool()
        assert pool.submit(Transaction("t"))
        assert not pool.submit(Transaction("t"))
        assert len(pool) == 1

    def test_mark_included_removes(self):
        pool = Mempool()
        pool.submit_all([Transaction("a"), Transaction("b")])
        pool.mark_included(["a"])
        assert "a" not in pool
        assert "b" in pool

    def test_included_before_submission_never_pending(self):
        pool = Mempool()
        pool.mark_included(["a"])
        pool.submit(Transaction("a"))
        assert len(pool) == 0

    def test_censor_filter(self):
        pool = Mempool()
        pool.submit_all([Transaction("a"), Transaction("b"), Transaction("c")])
        selected = pool.select(3, censor={"b"})
        assert [tx.tx_id for tx in selected] == ["a", "c"]

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            Mempool().select(-1)

    def test_pending_transaction_is_never_admitted_twice(self):
        """The history bound must not forget a transaction that is
        still pending: a leader would propose it twice in one block."""
        pool = Mempool()
        pool.history_limit = 2
        for tx_id in "abc":
            assert pool.submit(Transaction(tx_id))
        assert not pool.submit(Transaction("a"))
        assert [tx.tx_id for tx in pool.select(10)] == ["a", "b", "c"]

    def test_edge_answers(self):
        pool = Mempool()
        assert pool.select(0) == [] and pool.select(3) == []
        pool.mark_included(["ghost"])  # never pending: only remembered
        pool.submit(Transaction("ghost"))
        assert len(pool) == 0 and "ghost" not in pool
        pool.submit_all([Transaction("a"), Transaction("b")])
        assert pool.select(0) == []
        assert pool.select(5, censor={"a", "b"}) == []
        assert len(pool) == 2

    def test_select_cost_is_limit_plus_censored_not_backlog(self):
        class CountingSet(set):
            tests = 0

            def __contains__(self, item):
                self.tests += 1
                return super().__contains__(item)

        pool = Mempool()
        pool.submit_all([Transaction(f"t{i}") for i in range(10_000)])
        censor = CountingSet({"t1", "t3", "t9999"})
        selected = pool.select(5, censor=censor)
        assert [tx.tx_id for tx in selected] == ["t0", "t2", "t4", "t5", "t6"]
        assert censor.tests <= 5 + len(censor)

    def test_history_is_one_container_at_its_limit(self):
        limit = 16
        pool = Mempool(history_limit=limit)
        for i in range(10 * limit):
            pool.submit(Transaction(f"t{i}"))
            pool.mark_included([f"t{i}"])
        containers = [v for v in vars(pool).values() if hasattr(v, "__len__")]
        assert sorted(len(c) for c in containers) == [0, limit]
        assert len(pool) == 0

    @given(
        st.sampled_from([None, 1, 3, 8]),
        st.lists(st.one_of(
            st.tuples(st.just("submit"), _TXS),
            st.tuples(st.just("submit_all"), st.lists(_TXS, max_size=5)),
            st.tuples(st.just("mark_included"), st.lists(_IDS, max_size=4)),
            st.tuples(st.just("select"), st.integers(0, 6),
                      st.one_of(st.none(), st.sets(_IDS, max_size=3))),
        ), max_size=40),
    )
    def test_agrees_with_the_list_model(self, history_limit, ops):
        pool, model = Mempool(history_limit=history_limit), ModelPool(history_limit)
        for name, *args in ops:
            assert getattr(pool, name)(*args) == getattr(model, name)(*args)
            assert pool.select(100) == model.select(100)
            assert len(pool) == len(model.pending)
            assert [i in pool for i in _ALPHABET] == [
                any(tx.tx_id == i for tx in model.pending) for i in _ALPHABET
            ]


class TestCollateral:
    def test_enroll_and_burn(self):
        registry = CollateralRegistry(deposit=10.0)
        registry.enroll_all(range(3))
        assert registry.balance_of(0) == 10.0
        assert registry.burn(0, "test")
        assert registry.balance_of(0) == 0.0
        assert registry.penalty_of(0) == 10.0
        assert registry.penalty_of(1) == 0.0

    def test_burn_idempotent(self):
        registry = CollateralRegistry()
        registry.enroll(0)
        assert registry.burn(0)
        assert not registry.burn(0)
        assert registry.burned_players() == {0}

    def test_burn_all_counts_fresh(self):
        registry = CollateralRegistry()
        registry.enroll_all(range(3))
        registry.burn(1)
        assert registry.burn_all([0, 1, 2]) == 2

    def test_unknown_player_rejected(self):
        registry = CollateralRegistry()
        with pytest.raises(KeyError):
            registry.burn(9)

    def test_duplicate_enroll_rejected(self):
        registry = CollateralRegistry()
        registry.enroll(0)
        with pytest.raises(ValueError):
            registry.enroll(0)

    def test_lock_period(self):
        registry = CollateralRegistry(lock_blocks=2)
        registry.enroll(0)
        assert not registry.withdrawable(0)
        registry.note_block_mined()
        registry.note_block_mined()
        assert registry.withdrawable(0)

    def test_burned_never_withdrawable(self):
        registry = CollateralRegistry(lock_blocks=0)
        registry.enroll(0)
        registry.burn(0)
        assert not registry.withdrawable(0)


class TestValidation:
    def test_identical_chains_agree(self):
        left, right = _chain_of(3), _chain_of(3)
        assert chains_agree({0: left, 1: right})
        assert strict_ordering_holds({0: left, 1: right}, 0)
        assert common_prefix_holds({0: left, 1: right}, 0)

    def test_prefix_chains_agree(self):
        long, short = _chain_of(4), _chain_of(2)
        assert chains_agree({0: long, 1: short})
        assert strict_ordering_holds({0: long, 1: short}, 0)

    def test_forked_chains_detected(self):
        left, right = _chain_of(2, tag="left"), _chain_of(2, tag="right")
        chains = {0: left, 1: right}
        assert not chains_agree(chains)
        assert not strict_ordering_holds(chains, 0)
        assert disagreement_heights(chains) == [1, 2]

    def test_strict_ordering_suffix_tolerance(self):
        """Chains differing only in their newest c blocks satisfy
        c-strict ordering (Definition 1)."""
        base = _chain_of(2)
        other = _chain_of(2)
        fork = Block(9, 0, other.head().digest, (Transaction("odd"),))
        other.append_tentative(fork)
        other.finalize(fork.digest)
        straight = Block(9, 1, base.head().digest, (Transaction("even"),))
        base.append_tentative(straight)
        base.finalize(straight.digest)
        chains = {0: base, 1: other}
        assert not strict_ordering_holds(chains, 0)
        assert strict_ordering_holds(chains, 1)

    def test_tentative_divergence_allowed_in_final_mode(self):
        left, right = _chain_of(2), _chain_of(2)
        left.append_tentative(_block(left.head(), 7, tag="l"))
        right.append_tentative(_block(right.head(), 7, tag="r"))
        chains = {0: left, 1: right}
        assert chains_agree(chains, final_only=True)
        assert not chains_agree(chains, final_only=False)

    def test_common_prefix_with_z(self):
        left, right = _chain_of(2), _chain_of(2)
        left.append_tentative(_block(left.head(), 7, tag="l"))
        chains = {0: left, 1: right}
        assert not common_prefix_holds(chains, 0)
        assert common_prefix_holds(chains, 1)

    def test_negative_parameters_rejected(self):
        chains = {0: _chain_of(1)}
        with pytest.raises(ValueError):
            common_prefix_holds(chains, -1)
        with pytest.raises(ValueError):
            strict_ordering_holds(chains, -1)

    @pytest.mark.parametrize("bad", [True, False, 1.5, 1.0, "1", None])
    def test_suffix_parameters_must_be_ints(self, bad):
        """A bool would slice as 0 or 1; a float would fail unnamed."""
        chains = {0: _chain_of(2), 1: _chain_of(2)}
        for name, call in (
            ("c", lambda: strict_ordering_holds(chains, bad)),
            ("z", lambda: common_prefix_holds(chains, bad)),
            ("count", lambda: chains[0].without_last(bad)),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be a non-negative int"):
                call()

    @given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
    def test_shared_prefix_always_ordered(self, extra_left, extra_right):
        """Property: two chains grown from a common finalised prefix by
        disjoint suffixes satisfy c-strict ordering for c ≥ max suffix."""
        left = _chain_of(2)
        right = _chain_of(2)
        for i in range(extra_left):
            block = _block(left.head(), 100 + i, tag=f"L{i}")
            left.append_tentative(block)
            left.finalize(block.digest)
        for i in range(extra_right):
            block = _block(right.head(), 200 + i, tag=f"R{i}")
            right.append_tentative(block)
            right.finalize(block.digest)
        c = max(extra_left, extra_right)
        assert strict_ordering_holds({0: left, 1: right}, c)


# ----------------------------------------------------------------------
# The predicates against Definition 1's pairwise wording
# ----------------------------------------------------------------------
def _ids(blocks):
    return [block.digest for block in blocks]


def _is_prefix(shorter, longer):
    return len(shorter) <= len(longer) and shorter == longer[:len(shorter)]


def _minus_newest(view, count):
    """C^{⌊count}: the ledger without its ``count`` newest blocks."""
    return view[:max(0, len(view) - count)]


def _audit_views(chains, final_only):
    return [
        _ids(chain.final_blocks() if final_only else chain.blocks())
        for chain in chains.values()
    ]


def reference_chains_agree(chains, final_only):
    """No two honest ledgers hold different blocks at the same height."""
    views = _audit_views(chains, final_only)
    return all(
        left[height] == right[height]
        for i, left in enumerate(views)
        for right in views[i + 1:]
        for height in range(min(len(left), len(right)))
    )


def reference_disagreement_heights(chains, final_only):
    views = _audit_views(chains, final_only)
    return sorted({
        height + 1
        for i, left in enumerate(views)
        for right in views[i + 1:]
        for height in range(min(len(left), len(right)))
        if left[height] != right[height]
    })


def reference_strict_ordering(chains, c):
    """For all honest C1, C2 with |C1| ≤ |C2|: C1^{⌊c} ⪯ C2^{⌊c}."""
    views = [_ids(chain.final_blocks(include_genesis=True)) for chain in chains.values()]
    return all(
        _is_prefix(_minus_newest(one, c), _minus_newest(two, c))
        for i, one in enumerate(views)
        for j, two in enumerate(views)
        if i != j and len(one) <= len(two)
    )


def reference_common_prefix(chains, z):
    """Every chain minus its z newest blocks prefixes every other chain."""
    views = [_ids(chain.blocks(include_genesis=True)) for chain in chains.values()]
    return all(
        _is_prefix(_minus_newest(one, z), two)
        for i, one in enumerate(views)
        for j, two in enumerate(views)
        if i != j
    )


@st.composite
def chain_families(draw):
    """0–6 chains, each a prefix of one shared trunk followed by a fork
    of up to three blocks drawn from two branches, so chains agree, stop
    short of one another, or split near their tips (equal-length forks
    included).  Up to three newest blocks stay tentative, and some
    chains have their deep final bodies pruned."""
    trunk = draw(st.lists(st.sampled_from("ab"), max_size=6))
    family = {}
    for pid in range(draw(st.integers(0, 6))):
        tags = trunk[:draw(st.integers(0, len(trunk)))]
        tags += draw(st.lists(st.sampled_from("xy"), max_size=3))
        chain = Chain()
        for height, tag in enumerate(tags):
            chain.append_tentative(_block(chain.head(), height, tag))
        final = max(0, len(chain) - draw(st.integers(0, 3)))
        if final:
            chain.finalize(chain.blocks()[final - 1].digest)
        keep_last = draw(st.one_of(st.none(), st.integers(1, 3)))
        if keep_last is not None:
            chain.prune_final_bodies(keep_last=keep_last)
        family[pid] = chain
    return family


@settings(max_examples=600)
@given(chain_families(), st.integers(0, 4), st.booleans())
def test_predicates_equal_the_pairwise_definitions(chains, suffix, final_only):
    assert chains_agree(chains, final_only) == reference_chains_agree(chains, final_only)
    assert disagreement_heights(chains, final_only) == reference_disagreement_heights(
        chains, final_only
    )
    assert strict_ordering_holds(chains, suffix) == reference_strict_ordering(chains, suffix)
    assert common_prefix_holds(chains, suffix) == reference_common_prefix(chains, suffix)
