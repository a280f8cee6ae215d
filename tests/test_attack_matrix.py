"""Every attack reaches every protocol.

Each of the three attack shapes of ``benchmarks/claims.py`` — the
fork over pRFT's bound (``FORK_OVER_BOUND``), the catalog's
``liveness`` coalition and Theorem 2's nine-round ``CENSORSHIP`` — is
run against all five protocols, and each must reach its target state.
A cell that ends HONEST means the attack never touched the protocol, so
every safety verdict the protocol earns under that attack would pass
vacuously.  The fork's burn set is pinned per protocol (only the
accountable protocols whose honest players report burn the coalition),
and the same fork inside the bound (t0 = 2) forks nobody.
"""

import pytest

from benchmarks.claims import CENSORED, CENSORSHIP, FORK_OVER_BOUND
from repro.experiments.registry import get_scenario

PROTOCOLS = ("prft", "pbft", "hotstuff", "polygraph", "trap")
#: attack -> (over-bound scenario, censored ids to judge, target state)
ATTACKS = {
    "fork": (FORK_OVER_BOUND, None, "FORK"),
    "liveness": (get_scenario("liveness"), None, "NO_PROGRESS"),
    "censorship": (CENSORSHIP, CENSORED, "CENSORSHIP"),
}
#: The coalition {0, 1, 2} burned by each protocol's fork.  pBFT and
#: HotStuff are not accountable, and TRAP burns only through a baiter.
FORK_BURNED = {"prft": [0, 1, 2], "pbft": [], "hotstuff": [], "polygraph": [0, 1, 2], "trap": []}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_attack_reaches_its_target_state(attack, protocol):
    scenario, censored, target = ATTACKS[attack]
    result = scenario.with_params(protocol=protocol).run(seed=0)
    assert result.system_state(censored_tx_ids=censored).name == target
    if attack == "fork":
        assert sorted(result.penalised_players()) == FORK_BURNED[protocol]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_the_fork_inside_the_bound_forks_nobody(protocol):
    result = FORK_OVER_BOUND.with_params(protocol=protocol, t0=2).run(seed=0)
    assert result.system_state().name != "FORK"
