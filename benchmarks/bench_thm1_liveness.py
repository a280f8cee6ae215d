"""E6 — Theorem 1: θ=3 rational players make RC impossible for
n/3 ≤ k+t < n/2 via the unaccountable π_abs liveness attack.

Ported onto the experiments layer: the run is the registered
``liveness`` scenario (n=9, coalition 4: n/3 = 3 ≤ 4 ≤ ⌈n/2⌉−1 = 4)
executed through the scenario registry instead of a hand-rolled
roster.
"""

from repro.analysis.report import render_table
from repro.experiments import get_scenario
from repro.gametheory.payoff import PlayerType
from repro.gametheory.states import SystemState

from benchmarks.helpers import once


def _experiment():
    return get_scenario("liveness").run(seed=0)


def test_theorem1_liveness_attack(benchmark):
    result = once(benchmark, _experiment)
    state = result.system_state()
    u_attack = result.realised_utility(0, PlayerType.LIVENESS_ATTACKING)
    rows = [
        ["system state", state.name],
        ["final blocks", result.final_block_count()],
        ["penalised players (pi_abs is unaccountable)", sorted(result.penalised_players())],
        ["U(pi_abs, theta=3) per run", u_attack],
        ["U(pi_0, theta=3) reference", 0.0],
    ]
    print()
    print(render_table(["quantity", "value"], rows, title="Theorem 1: theta=3 liveness attack"))
    assert state is SystemState.NO_PROGRESS
    assert result.final_block_count() == 0
    assert result.penalised_players() == set()   # indistinguishable from crash
    assert u_attack > 0                           # deviation strictly profitable
