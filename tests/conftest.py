"""Shared fixtures and run helpers for protocol-level tests."""

import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import pytest

from repro.agents.collusion import Collusion, assign_strategies
from repro.agents.player import (
    Player,
    byzantine_player,
    honest_player,
    rational_player,
)
from repro.agents.strategies import AbstainStrategy, HonestStrategy
from repro.core.replica import prft_factory
from repro.gametheory.payoff import PlayerType
from repro.net.delays import DelayModel, FixedDelay
from repro.net.partition import PartitionSchedule
from repro.protocols.base import ProtocolConfig
from repro.protocols.runner import NetworkSpec, RetentionSpec, RunResult, RunSpec, run
from repro.sim.streaming import ThroughputAccumulator


def pytest_collection_modifyitems(config, items):
    """Big-committee runs (n >= 64) belong to the slow tier: every
    ``large_n`` test is auto-marked ``slow`` so the fast tier
    (``-m "not slow"``) skips them without double-marking."""
    for item in items:
        if "large_n" in item.keywords:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def perf_layers():
    """``perf/layers.py`` of the frozen benchmark, imported by path
    (it imports ``perf/spans.py`` as ``spans`` in turn); tests read
    it, never edit it."""
    perf = str(Path(__file__).resolve().parent.parent / "perf")
    sys.path.insert(0, perf)
    try:
        import layers
    finally:
        sys.path.remove(perf)
    return layers


def replay_throughput(
    submissions, commit_times, submit_first: bool = False, **accumulator_kwargs
) -> ThroughputAccumulator:
    """Feed a submission schedule and a ``{tx_id: commit time}`` map to
    a fresh accumulator in time order; ``submit_first`` picks which side
    of a same-instant commit/submission pair is observed first."""
    accumulator = ThroughputAccumulator(**{"resolution": None, **accumulator_kwargs})
    rank = {"submit": int(not submit_first), "commit": int(submit_first)}
    events = [(when, rank["submit"], "submit", tx) for tx, when in submissions]
    events += [(when, rank["commit"], "commit", tx) for tx, when in commit_times.items()]
    for when, _, kind, tx in sorted(events):
        getattr(accumulator, f"note_{kind}")(tx, when)
    return accumulator


def roster(
    n: int,
    rational_ids: Sequence[int] = (),
    byzantine_ids: Sequence[int] = (),
    theta: PlayerType = PlayerType.FORK_SEEKING,
) -> List[Player]:
    """A roster with the named deviator slots (strategies default honest)."""
    players: List[Player] = []
    for i in range(n):
        if i in rational_ids:
            players.append(rational_player(i, theta))
        elif i in byzantine_ids:
            players.append(byzantine_player(i, HonestStrategy()))
        else:
            players.append(honest_player(i))
    return players


def run_prft(
    players: List[Player],
    n: Optional[int] = None,
    max_rounds: int = 3,
    delay: Optional[DelayModel] = None,
    partitions: Optional[PartitionSchedule] = None,
    max_time: float = 10_000.0,
    retention: RetentionSpec = RetentionSpec(),
    **config_overrides,
) -> RunResult:
    """Run pRFT with its paper configuration (t0 = ⌈n/4⌉ − 1)."""
    n = n if n is not None else len(players)
    config = ProtocolConfig.for_prft(n=n, max_rounds=max_rounds, **config_overrides)
    return run(RunSpec(
        factory=prft_factory,
        players=tuple(players),
        config=config,
        network=NetworkSpec(delay_model=delay or FixedDelay(1.0), partitions=partitions),
        retention=retention,
        max_time=max_time,
    ))


def fork_collusion(players: List[Player]) -> Collusion:
    """Assign the fork (π_ds) attack to every non-honest player."""
    collusion = Collusion.of(players)
    assign_strategies(players, collusion, "fork")
    return collusion


def liveness_collusion(players: List[Player]) -> Collusion:
    collusion = Collusion.of(players)
    assign_strategies(players, collusion, "liveness")
    return collusion


def censorship_collusion(players: List[Player], censored: Sequence[str]) -> Collusion:
    collusion = Collusion.of(players)
    assign_strategies(players, collusion, "censorship", censored_tx_ids=censored)
    return collusion
