"""repro — reproduction of "Towards Rational Consensus in Honest Majority".

A production-quality Python library reproducing Srivastava & Gujar
(ICDCS 2024): the pRFT rational-consensus protocol, the rational threat
model RFT(t, k) with typed rational players, the paper's impossibility
constructions, baseline protocols (pBFT, HotStuff, Polygraph, TRAP), and
a deterministic discrete-event simulation substrate to run them on.

Quickstart::

    from repro import ProtocolConfig, RunSpec, honest_roster, prft_factory, run

    spec = RunSpec(
        factory=prft_factory,
        players=tuple(honest_roster(8)),
        config=ProtocolConfig.for_prft(n=8, max_rounds=3),
    )
    result = run(spec)
    print(result.system_state())          # SystemState.HONEST
    print(result.final_block_count())     # 3

Scenario sweeps (grids of committee sizes, attacks, synchrony models,
seeds) run through the experiment-orchestration layer::

    from repro import get_scenario, run_sweep

    sweep = run_sweep(get_scenario("honest"), grid={"n": [4, 8, 16]},
                      seeds=10, jobs=4)

See ``examples/`` for attack scenarios and ``benchmarks/`` for the
regeneration of every table and figure in the paper.
"""

from typing import List

from repro.agents.collusion import Collusion, assign_strategies
from repro.agents.player import (
    Player,
    Role,
    byzantine_player,
    honest_player,
    rational_player,
)
from repro.agents.strategies import (
    AbstainStrategy,
    BaitingPolicy,
    CensorshipStrategy,
    EquivocateStrategy,
    HonestStrategy,
    Strategy,
)
from repro.core.replica import PRFTReplica, prft_factory
from repro.gametheory.payoff import PlayerType, payoff
from repro.gametheory.states import SystemState, classify_state
from repro.gametheory.trap_game import TrapGameParameters, build_baiting_game
from repro.ledger.transaction import Transaction
from repro.net.delays import (
    AsynchronousDelay,
    FixedDelay,
    PartialSynchronyDelay,
    SynchronousDelay,
)
from repro.net.partition import Partition, PartitionSchedule
from repro.protocols.base import ProtocolConfig
from repro.protocols.runner import (
    CryptoSpec,
    FaultSpec,
    NetworkSpec,
    ProductionSpec,
    RunResult,
    RunSpec,
    WorkloadSpec,
    make_transactions,
    run,
)
from repro.checks import OracleReport, run_oracle
from repro.experiments import (
    RunRecord,
    Scenario,
    SweepResult,
    expand_grid,
    get_scenario,
    register_scenario,
    run_sweep,
    scenario_catalog,
)
from repro.experiments.fuzz import run_fuzz

__version__ = "1.0.0"


def honest_roster(n: int) -> List[Player]:
    """A roster of ``n`` honest players with ids 0..n-1."""
    return [honest_player(i) for i in range(n)]


__all__ = [
    "AbstainStrategy",
    "AsynchronousDelay",
    "BaitingPolicy",
    "CensorshipStrategy",
    "Collusion",
    "CryptoSpec",
    "EquivocateStrategy",
    "FaultSpec",
    "FixedDelay",
    "HonestStrategy",
    "NetworkSpec",
    "OracleReport",
    "PRFTReplica",
    "PartialSynchronyDelay",
    "Partition",
    "PartitionSchedule",
    "Player",
    "PlayerType",
    "ProductionSpec",
    "ProtocolConfig",
    "Role",
    "RunRecord",
    "RunResult",
    "RunSpec",
    "Scenario",
    "Strategy",
    "SweepResult",
    "SynchronousDelay",
    "SystemState",
    "Transaction",
    "TrapGameParameters",
    "WorkloadSpec",
    "assign_strategies",
    "build_baiting_game",
    "byzantine_player",
    "classify_state",
    "expand_grid",
    "get_scenario",
    "honest_player",
    "honest_roster",
    "make_transactions",
    "payoff",
    "prft_factory",
    "rational_player",
    "register_scenario",
    "run",
    "run_fuzz",
    "run_oracle",
    "run_sweep",
    "scenario_catalog",
    "__version__",
]
