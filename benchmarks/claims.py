"""The paper's claims as rows: one :class:`Claim` per result in ``CLAIMS``.

A row names a result (Theorems 1, 2, 3 and 5 with Lemma 4, Claims 1–2,
Definition 6, Tables 1–3, Figures 2a and 3, the design ablation, and
the pBFT / HotStuff evaluation shapes: blocks/sec under load, the
saturation knee and throughput against committee size), cites it, and
holds one ``measure`` function plus one expectation per quantity that
function returns.  A deterministic number is pinned with ``eq``: it is
a pure function of (code, seed), so any move is a behaviour change.  Every run a row makes is a
:class:`~repro.experiments.Scenario` — a catalog entry, a
``with_params`` variation of one, or a ``run_sweep`` grid — so a claim
is reproduced exactly the way ``repro run`` / ``repro sweep`` run it.
Two rows need a knob that no Scenario axis has; they post-process
``Scenario.build_run_spec`` and say why.

``tests/test_claims.py`` evaluates every row in tier 1, and
``make claims`` prints each row's paper-shaped table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, NamedTuple

from repro.agents.strategies import BaitingPolicy, TrapRationalStrategy
from repro.analysis import check_accountability, check_robustness, measure_complexity, render_table
from repro.experiments import Scenario, get_scenario, run_sweep
from repro.gametheory.empirical import empirical_utility
from repro.gametheory.normal_form import example_focal_game
from repro.gametheory.payoff import PlayerType, payoff
from repro.gametheory.trap_game import (
    FORK,
    TrapGameParameters,
    build_baiting_game,
    insecure_equilibrium_is_focal,
    repeated_game_utilities,
    theorem3_condition_holds,
)
from repro.protocols.runner import run


class Expect(NamedTuple):
    """What the paper predicts for one quantity."""

    text: str
    holds: Callable[[Any], bool]


def eq(value: Any) -> Expect:
    return Expect(f"== {value}", lambda measured: measured == value)


def ne(value: Any) -> Expect:
    return Expect(f"!= {value}", lambda measured: measured != value)


def lt(bound: float) -> Expect:
    return Expect(f"< {bound}", lambda measured: measured < bound)


def le(bound: float) -> Expect:
    return Expect(f"<= {bound}", lambda measured: measured <= bound)


def gt(bound: float) -> Expect:
    return Expect(f"> {bound}", lambda measured: measured > bound)


def ge(bound: float) -> Expect:
    return Expect(f">= {bound}", lambda measured: measured >= bound)


def within(low: float, high: float) -> Expect:
    return Expect(f"in ({low}, {high})", lambda measured: low < measured < high)


@dataclass(frozen=True)
class Claim:
    """One paper claim: ``measure()`` returns named quantities, and
    ``expect`` holds the paper's prediction for each of them."""

    id: str
    paper: str
    measure: Callable[[], Dict[str, Any]]
    expect: Mapping[str, Expect]

    def misses(self, measured: Mapping[str, Any]) -> List[str]:
        """The quantities whose measurement breaks the paper's prediction."""
        return [name for name, expect in self.expect.items() if not expect.holds(measured[name])]

    def table(self, measured: Mapping[str, Any]) -> str:
        rows = [
            [name, measured[name], expect.text, expect.holds(measured[name])]
            for name, expect in self.expect.items()
        ]
        return render_table(
            ["quantity", "measured", "paper", "holds"], rows, title=f"{self.id}: {self.paper}"
        )


CENSORED = ("tx-0",)

#: Theorem 2's π_pc coalition, given nine rounds so its own leaders
#: keep the chain growing.
CENSORSHIP = get_scenario("censorship").with_params(rounds=9, timeout=10.0, max_time=600.0)

#: K = {0, 1}, T = {2} forking behind a partition of the victims while
#: t0 = 3 ≥ n/4: the bound pRFT needs, violated.
FORK_OVER_BOUND = get_scenario("fork").with_params(
    rounds=1, t0=3, timeout=50.0, partition_windows=((0.0, 40.0),), max_time=60.0
)

#: Theorem 3's regime for TRAP: n = 10, t0 = ⌈n/3⌉ − 1 = 3, K = {1, 2, 4},
#: T = {0}, the six victims partitioned 3 | 3.
TRAP_FORK = Scenario(
    name="thm3-trap-fork", protocol="trap", n=10, rounds=1, timeout=60.0,
    rational_ids=(1, 2, 4), byzantine_ids=(0,), attack="fork",
    partition_windows=((0.0, 50.0),), max_time=80.0,
)

PHASES = ("propose", "vote", "commit", "reveal", "final")

#: An n = 16 pRFT committee under a Poisson load well past every
#: production setting's knee, so committed / horizon is the service
#: rate, not the arrival process.
KNEE_LOAD = Scenario(
    name="pipelining-knee", n=16, workload="poisson", arrival_rate=16.0,
    duration=60.0, timeout=10.0, max_time=160.0,
)


def _thm1() -> Dict[str, Any]:
    result = get_scenario("liveness").run(seed=0)
    return {
        "system state": result.system_state().name,
        "final blocks": result.final_block_count(),
        "burned (pi_abs looks like a crash)": sorted(result.penalised_players()),
        "U(pi_abs, theta=3) of colluder 0": empirical_utility(
            result, 0, PlayerType.LIVENESS_ATTACKING
        ),
    }


def _thm2() -> Dict[str, Any]:
    result = CENSORSHIP.run(seed=0)
    report = check_robustness(result, censored_tx_ids=CENSORED)
    return {
        "system state": result.system_state(censored_tx_ids=CENSORED).name,
        "final blocks (liveness survives)": result.final_block_count(),
        "tx-0 confirmed": report.censorship_resistance,
        "strongly (t,k)-robust": report.strongly_robust,
        "burned (pi_pc is unaccountable)": sorted(result.penalised_players()),
        "U(pi_pc, theta=2) of colluder 0": empirical_utility(
            result, 0, PlayerType.CENSORSHIP_SEEKING, CENSORED, report.state
        ),
    }


def _thm3() -> Dict[str, Any]:
    params = TrapGameParameters.theorem3_setting(n=30, t=7, k=7, reward=1_000.0)
    utilities = repeated_game_utilities(params, delta=0.9)
    suppressed = TRAP_FORK.run(seed=0)
    # No axis picks a TRAP baiting policy: TrapReplica._punish burns only
    # when the replica's own strategy has `policy is BaitingPolicy.BAIT`.
    spec = TRAP_FORK.build_run_spec(0)
    for player in spec.players:
        if player.is_rational:
            player.strategy = TrapRationalStrategy(BaitingPolicy.BAIT)
    baited = run(spec)
    return {
        "regime k >= n - 2t0 - t + 2 (n=30, t=k=7)": theorem3_condition_holds(params),
        "all-fork is a stage-game NE at R=1000": build_baiting_game(params).is_nash(
            (FORK,) * params.k
        ),
        "U(all-fork) - U(bait once), delta=0.9": utilities["all_fork"] - utilities["bait_once"],
        "insecure equilibrium is focal": insecure_equilibrium_is_focal(params, 0.9),
        "TRAP, all suppress: system state": suppressed.system_state().name,
        "TRAP, all suppress: burned": sorted(suppressed.penalised_players()),
        "TRAP, all bait: system state": baited.system_state().name,
    }


def _thm5() -> Dict[str, Any]:
    equivocator = get_scenario("lone-equivocator")
    worlds = {
        "pi_0": equivocator.with_params(name="lone-compliant", attack=None),
        "pi_abs": get_scenario("lone-abstainer"),
        "pi_ds": equivocator,
    }
    quantities: Dict[str, Any] = {}
    for strategy, scenario in worlds.items():
        result = scenario.run(seed=0)
        quantities[f"{strategy}: U(theta=1) of player 5"] = empirical_utility(
            result, 5, PlayerType.FORK_SEEKING
        )
        quantities[f"{strategy}: player 5 burned"] = 5 in result.penalised_players()
        if strategy == "pi_ds":
            quantities["pi_ds: accountability sound"] = check_accountability(result).sound
    collusion = get_scenario("thm5-collusion").run(seed=0)
    report = check_robustness(collusion)
    quantities.update({
        "n=13, t=2, k=4 fork: agreement": report.agreement,
        "n=13, t=2, k=4 fork: fork heights": report.fork_heights,
        "n=13, t=2, k=4 fork: burned": sorted(collusion.penalised_players()),
        "n=13, t=2, k=4 fork: accountability sound": check_accountability(collusion).sound,
        "n=13, t=2, k=4 fork: U(pi_fork) of colluder 0": empirical_utility(
            collusion, 0, PlayerType.FORK_SEEKING
        ),
    })
    return quantities


def _claim1() -> Dict[str, Any]:
    partition_fork = get_scenario("partition-fork")
    window = partition_fork.build_config().admissible_quorum_window
    below, inside = run_sweep(
        partition_fork, grid={"quorum": [window.start - 1, window.stop - 1]}, seeds=[0]
    ).records
    (above,) = run_sweep(get_scenario("claim1-abstention"), grid={"quorum": [9]}, seeds=[0]).records
    return {
        "admissible window (n=9, t0=2)": [window.start, window.stop - 1],
        "tau below the window: outcome": below.state,
        "tau inside the window: outcome": inside.state,
        "tau = n, above the window: outcome": above.state,
    }


def _claim2() -> Dict[str, Any]:
    chaos = Scenario(
        name="claim2-chaos", n=9, rounds=3, byzantine_ids=(0,), attack="liveness",
        delay="partial", gst=30.0, timeout=20.0, max_time=500.0,
    )
    overlaps = agreements = 0
    for seed in range(5):
        result = chaos.run(seed=seed)
        honest = set(result.honest_ids)
        decided = {
            e.detail["round"] for e in result.trace.events("final") if e.player in honest
        }
        changed = {
            e.detail["round"]
            for e in result.trace.events("view_change_committed")
            if e.player in honest
        }
        overlaps += bool(decided & changed)
        agreements += check_robustness(result).agreement
    robust = get_scenario("claim1-abstention").with_params(
        rounds=3, timeout=30.0, max_time=500.0
    ).run(seed=0)
    return {
        "silent leader, pre-GST chaos: runs with a round finalised and view-changed": overlaps,
        "silent leader, pre-GST chaos: runs with agreement (of 5)": agreements,
        "t0 byzantine abstainers: final blocks (3 honest-leader rounds)": robust.final_block_count(),
        "t0 byzantine abstainers: view changes they force": robust.trace.count(
            "view_change_committed"
        ),
    }


def _def6() -> Dict[str, Any]:
    quantities: Dict[str, Any] = {}
    for size in (1, 2, 3, 4):
        report = check_accountability(Scenario(
            name=f"def6-{size}", n=13, rounds=3, rational_ids=tuple(range(4, 4 + size)),
            attack="fork", max_time=500.0,
        ).run(seed=0))
        quantities[f"{size} double-signers: burned"] = sorted(report.burned)
        quantities[f"{size} double-signers: sound, no honest framed, burned = truth"] = (
            report.sound, report.no_honest_framed,
            report.burned == report.ground_truth_deviators,
        )
    return quantities


def _table1() -> Dict[str, Any]:
    def cft(crashed: int) -> bool:
        # A CFT (Paxos-style) deployment decides on simple-majority
        # quorums: crashes cannot equivocate, so τ = ⌊n/2⌋ + 1 is safe.
        result = Scenario(
            name=f"table1-cft-{crashed}", protocol="pbft", n=9, rounds=2,
            byzantine_ids=tuple(range(9 - crashed, 9)), attack="liveness",
            t0=4, quorum=5, timeout=10.0, max_time=300.0,
        ).run(seed=0)
        return check_robustness(result).agreement and result.final_block_count() >= 1

    def rft(t0: int) -> bool:
        return Scenario(
            name=f"table1-rft-{t0}", n=9, rounds=1, rational_ids=(1, 2), byzantine_ids=(0,),
            attack="fork", t0=t0, timeout=50.0, partition_windows=((0.0, 40.0),),
            max_time=60.0,
        ).run(seed=0).system_state().name != "FORK"

    bft = Scenario(
        name="table1-bft", protocol="pbft", n=9, rounds=2, byzantine=2, attack="fork",
        timeout=20.0, partition_windows=((0.0, 30.0),), max_time=300.0,
    ).run(seed=0)
    # HotStuff behind an equivocating leader, coalition {0, 1, 2}: at
    # t0 = 3 (τ = 6) both of the leader's proposals certify, and the
    # aggregated QCs burn nobody; at t0 = 2 (τ = 7) any two quorums
    # meet in an honest replica.
    hotstuff = {t0: FORK_OVER_BOUND.with_params(protocol="hotstuff", t0=t0).run(seed=0)
                for t0 in (3, 2)}
    return {
        "CFT, 2c < n: c=4": cft(4),
        "CFT, 2c < n violated: c=5": cft(5),
        "BFT, 3t < n: t=2 equivocating (pBFT)": check_robustness(bft).agreement,
        "BFT over bound: HotStuff, t0=3: state, burned": [
            hotstuff[3].system_state().name, sorted(hotstuff[3].penalised_players()),
        ],
        "BFT over bound: HotStuff, t0=2: forked": hotstuff[2].system_state().name == "FORK",
        "RFT, t < n/4 and t+k < n/2: t=1, k=2, t0=2": rft(2),
        "RFT, t0 >= n/4 violated: t=1, k=2, t0=3": rft(3),
    }


def _table2() -> Dict[str, Any]:
    states = {
        "NP": get_scenario("liveness").run(seed=0).system_state(),
        "CP": CENSORSHIP.run(seed=0).system_state(censored_tx_ids=CENSORED),
        "Fork": FORK_OVER_BOUND.run(seed=0).system_state(),
        "0": get_scenario("honest").with_params(rounds=2).run(seed=0).system_state(),
    }
    quantities: Dict[str, Any] = {
        f"sigma_{sigma} attack, realised state": state.name for sigma, state in states.items()
    }
    for theta in sorted(PlayerType, reverse=True):
        quantities[f"f(sigma_NP, _CP, _Fork, _0; theta={int(theta)})"] = [
            payoff(state, theta, alpha=1.0) for state in states.values()
        ]
    return quantities


def _table3() -> Dict[str, Any]:
    game = example_focal_game()
    return {
        "pure Nash equilibria": sorted(game.pure_nash_equilibria()),
        "focal equilibrium": game.focal_equilibrium(),
        "dominant-strategy equilibria": game.dominant_strategy_equilibrium(),
    }


def _fig2() -> Dict[str, Any]:
    honest = get_scenario("honest")
    result = honest.with_params(n=8, rounds=2).run(seed=0)
    by_type = result.metrics.by_type()
    first_send: Dict[str, float] = {}
    traced = honest.with_params(n=5, rounds=2, trace_traffic=True)
    for event in traced.run(seed=0).trace.events("send"):
        if event.detail["round"] == 0:
            first_send.setdefault(event.detail["message_type"], event.time)
    return {
        "system state (n=8, 2 rounds)": result.system_state().name,
        **{f"{phase} messages": by_type[phase][0] for phase in PHASES},
        "view-change / expose messages": sorted({"view-change", "expose"} & set(by_type)),
        "round-0 first send of propose..final (n=5)": [first_send[phase] for phase in PHASES],
    }


def _fig3() -> Dict[str, Any]:
    honest = get_scenario("honest")
    pbft, hotstuff, polygraph, prft = (
        measure_complexity(honest.with_params(protocol=protocol, rounds=2), [4, 8, 12, 16])
        for protocol in ("pbft", "hotstuff", "polygraph", "prft")
    )
    return {
        "pBFT message exponent": pbft.message_exponent,
        "pRFT message exponent": prft.message_exponent,
        "HotStuff - pBFT message exponent": hotstuff.message_exponent - pbft.message_exponent,
        "Polygraph - pBFT size exponent": polygraph.size_exponent - pbft.size_exponent,
        "pRFT - pBFT size exponent": prft.size_exponent - pbft.size_exponent,
        "pRFT / Polygraph bytes per round (n=16)": (
            prft.bytes_per_round[-1] / polygraph.bytes_per_round[-1]
        ),
        "HotStuff / pBFT bytes per round (n=16)": (
            hotstuff.bytes_per_round[-1] / pbft.bytes_per_round[-1]
        ),
        "HotStuff / pRFT bytes per round (n=16)": (
            hotstuff.bytes_per_round[-1] / prft.bytes_per_round[-1]
        ),
    }


def _ablation() -> Dict[str, Any]:
    quantities: Dict[str, Any] = {}
    for label, scenario in (
        ("Polygraph (no reveal gate), t0=3", FORK_OVER_BOUND.with_params(protocol="polygraph")),
        ("pRFT, t0=3", FORK_OVER_BOUND),
        ("pRFT, t0=2", FORK_OVER_BOUND.with_params(t0=2)),
        ("pRFT, t0=2, 2 rounds, 50-unit partition", get_scenario("fork").with_params(
            rounds=2, timeout=80.0, partition_windows=((0.0, 50.0),), max_time=300.0,
        )),
    ):
        result = scenario.run(seed=0)
        quantities[f"{label}: system state"] = result.system_state().name
        quantities[f"{label}: burned"] = sorted(result.penalised_players())
    # Rounds 0-2 are led by the collusion {0, 1, 2}: no quorum forms on
    # either side, so only view-change evidence can join the scattered
    # conflicting signatures into a Proof-of-Fraud.
    stalled = get_scenario("fork").with_params(rounds=3, max_time=1_000.0)
    with_evidence = stalled.run(seed=0)
    # view_change_evidence is a ProtocolConfig knob with no Scenario
    # axis: it exists only to ablate, so the run spec is edited here.
    spec = stalled.build_run_spec(0)
    without = run(spec.derive(config=dataclasses.replace(spec.config, view_change_evidence=False)))
    quantities.update({
        "stalled fork, evidence on: burned": sorted(with_evidence.penalised_players()),
        "stalled fork, evidence off: burned": sorted(without.penalised_players()),
        "stalled fork, evidence on: system state": with_evidence.system_state().name,
        "stalled fork, evidence off: system state": without.system_state().name,
    })
    return quantities


def _throughput() -> Dict[str, Any]:
    closed = [
        get_scenario("closed-loop-prft").with_params(
            protocol=protocol, tolerance="bft", duration=150.0
        ).run(seed=0)
        for protocol in ("prft", "pbft", "hotstuff")
    ]
    poisson = run_sweep(
        get_scenario("poisson-honest").with_params(duration=150.0),
        grid={"arrival_rate": [0.25, 0.5, 1.0, 2.0]}, seeds=[0],
    ).records
    churn = get_scenario("poisson-crash-churn").run(seed=0)
    churn_report = check_robustness(churn)
    return {
        "closed loop, duration 150: blocks/sec (prft, pbft, hotstuff)": [
            round(result.throughput.blocks_per_sec, 4) for result in closed
        ],
        "closed loop, duration 150: robust (prft, pbft, hotstuff)": [
            check_robustness(result).robust for result in closed
        ],
        "Poisson rates 0.25, 0.5, 1, 2: blocks/sec": [
            round(dict(record.throughput)["blocks_per_sec"], 4) for record in poisson
        ],
        "Poisson rates 0.25, 0.5, 1, 2: peak backlog": [
            dict(record.throughput)["peak_backlog"] for record in poisson
        ],
        "poisson-crash-churn: committed of submitted": [
            churn.throughput.committed, churn.throughput.submitted,
        ],
        "poisson-crash-churn: agreement, eventual liveness": (
            churn_report.agreement, churn_report.eventual_liveness,
        ),
    }


def _knee_shift() -> Dict[str, Any]:
    def service(scenario: Scenario) -> Dict[str, Any]:
        result = scenario.run(seed=0)
        throughput = result.throughput
        return {
            "rate": round(throughput.committed / throughput.horizon, 4),
            "sound": throughput.committed > 0 and check_robustness(
                result, liveness_slack=scenario.pipeline_depth
            ).agreement,
        }

    legacy = service(KNEE_LOAD)
    grid = {
        (depth, batch): service(KNEE_LOAD.with_params(
            pipeline_depth=depth, max_block_txs=batch,
            coalesce_window=0.5 if batch > 1 else 0.0,
        ))
        for depth in (1, 2, 4)
        for batch in (1, 16, 64)
    }
    best = max(point["rate"] for point in grid.values())
    return {
        "legacy (depth 1, block_size cap): tx/time": legacy["rate"],
        "batching only (depth 1, batch 64): tx/time": grid[1, 64]["rate"],
        "depth only (depth 4, batch 1): tx/time": grid[4, 1]["rate"],
        "best point (depth 2 or 4, batch 64): tx/time": best,
        "knee shift, best / legacy": round(best / legacy["rate"], 4),
        "every point commits with agreement": legacy["sound"] and all(
            point["sound"] for point in grid.values()
        ),
    }


def _big_committee() -> Dict[str, Any]:
    def committee(n: int, aggregate: bool):
        return Scenario(
            name=f"big-committee-{n}", n=n, workload="closed", outstanding=4,
            duration=20.0, timeout=10.0, max_time=200.0, max_events=8_000_000,
            aggregate_certs=aggregate,
        ).run(seed=0)

    curve = [committee(n, aggregate=True) for n in (16, 32, 64)]
    reports = [check_robustness(result) for result in curve]
    on, off = curve[-1], committee(64, aggregate=False)
    return {
        "n=16, 32, 64: blocks/sec": [
            round(result.throughput.blocks_per_sec, 4) for result in curve
        ],
        "n=16, 32, 64: p99 latency": [
            round(result.throughput.latency_p99, 2) for result in curve
        ],
        "n=16, 32, 64: agreement and eventual liveness": [
            report.agreement and report.eventual_liveness for report in reports
        ],
        "n=64, aggregates off vs on: commit logs identical": (
            off.ctx.commit_log.commit_times() == on.ctx.commit_log.commit_times()
        ),
        "n=64, aggregates off vs on: messages": [
            off.metrics.total_messages, on.metrics.total_messages,
        ],
        "n=64, aggregates off vs on: bytes": [
            off.metrics.total_bytes, on.metrics.total_bytes,
        ],
        "n=64, aggregates on / off: bytes": round(
            on.metrics.total_bytes / off.metrics.total_bytes, 4
        ),
    }


CLAIMS = (
    Claim(
        "thm1", "Theorem 1 - theta=3 players stall pRFT unaccountably (pi_abs)", _thm1, {
            "system state": eq("NO_PROGRESS"),
            "final blocks": eq(0),
            "burned (pi_abs looks like a crash)": eq([]),
            "U(pi_abs, theta=3) of colluder 0": gt(0),
        },
    ),
    Claim(
        "thm2", "Theorem 2 - theta=2 players censor tx-0 unaccountably (pi_pc)", _thm2, {
            "system state": eq("CENSORSHIP"),
            "final blocks (liveness survives)": gt(0),
            "tx-0 confirmed": eq(False),
            "strongly (t,k)-robust": eq(False),
            "burned (pi_pc is unaccountable)": eq([]),
            "U(pi_pc, theta=2) of colluder 0": gt(0),
        },
    ),
    Claim(
        "thm3", "Theorem 3 - TRAP's baiting game has a focal, fork-producing equilibrium",
        _thm3, {
            "regime k >= n - 2t0 - t + 2 (n=30, t=k=7)": eq(True),
            "all-fork is a stage-game NE at R=1000": eq(True),
            "U(all-fork) - U(bait once), delta=0.9": gt(0),
            "insecure equilibrium is focal": eq(True),
            "TRAP, all suppress: system state": eq("FORK"),
            "TRAP, all suppress: burned": eq([]),
            "TRAP, all bait: system state": ne("FORK"),
        },
    ),
    Claim(
        "thm5", "Lemma 4 + Theorem 5 - pRFT is DSIC for theta=1 and (t,k)-robust", _thm5, {
            "pi_0: U(theta=1) of player 5": eq(0),
            "pi_0: player 5 burned": eq(False),
            "pi_abs: U(theta=1) of player 5": le(0),
            "pi_abs: player 5 burned": eq(False),
            "pi_ds: U(theta=1) of player 5": lt(0),
            "pi_ds: player 5 burned": eq(True),
            "pi_ds: accountability sound": eq(True),
            "n=13, t=2, k=4 fork: agreement": eq(True),
            "n=13, t=2, k=4 fork: fork heights": eq([]),
            "n=13, t=2, k=4 fork: burned": eq([0, 1, 2, 3, 4, 5]),
            "n=13, t=2, k=4 fork: accountability sound": eq(True),
            "n=13, t=2, k=4 fork: U(pi_fork) of colluder 0": le(0),
        },
    ),
    Claim(
        "claim1", "Claim 1 - tau must lie in [floor((n+t0)/2) + 1, n - t0]", _claim1, {
            "admissible window (n=9, t0=2)": eq([6, 7]),
            "tau below the window: outcome": eq("FORK"),
            "tau inside the window: outcome": ne("FORK"),
            "tau = n, above the window: outcome": eq("NO_PROGRESS"),
        },
    ),
    Claim(
        "claim2", "Claim 2 - the view change is consistent and robust", _claim2, {
            "silent leader, pre-GST chaos: runs with a round finalised and view-changed": eq(0),
            "silent leader, pre-GST chaos: runs with agreement (of 5)": eq(5),
            "t0 byzantine abstainers: final blocks (3 honest-leader rounds)": eq(3),
            "t0 byzantine abstainers: view changes they force": eq(0),
        },
    ),
    Claim(
        "def6", "Definition 6 / Fig. 4 - every double-signer is proven guilty, no honest "
        "player is framed (n=13, t0=3)", _def6, {
            **{
                f"{size} double-signers: burned": eq(list(range(4, 4 + size)))
                for size in (1, 2, 3, 4)
            },
            **{
                f"{size} double-signers: sound, no honest framed, burned = truth":
                    eq((True, True, True))
                for size in (1, 2, 3, 4)
            },
        },
    ),
    Claim(
        "table1", "Table 1 - consensus holds inside each threat model's bound (n=9, "
        "partial synchrony)", _table1, {
            "CFT, 2c < n: c=4": eq(True),
            "CFT, 2c < n violated: c=5": eq(False),
            "BFT, 3t < n: t=2 equivocating (pBFT)": eq(True),
            "BFT over bound: HotStuff, t0=3: state, burned": eq(["FORK", []]),
            "BFT over bound: HotStuff, t0=2: forked": eq(False),
            "RFT, t < n/4 and t+k < n/2: t=1, k=2, t0=2": eq(True),
            "RFT, t0 >= n/4 violated: t=1, k=2, t0=3": eq(False),
        },
    ),
    Claim(
        "table2", "Table 2 - the payoff f(sigma, theta) at alpha=1, on realised states",
        _table2, {
            "sigma_NP attack, realised state": eq("NO_PROGRESS"),
            "sigma_CP attack, realised state": eq("CENSORSHIP"),
            "sigma_Fork attack, realised state": eq("FORK"),
            "sigma_0 attack, realised state": eq("HONEST"),
            "f(sigma_NP, _CP, _Fork, _0; theta=3)": eq([1, 1, 1, 0]),
            "f(sigma_NP, _CP, _Fork, _0; theta=2)": eq([-1, 1, 1, 0]),
            "f(sigma_NP, _CP, _Fork, _0; theta=1)": eq([-1, -1, 1, 0]),
            "f(sigma_NP, _CP, _Fork, _0; theta=0)": eq([-1, -1, -1, 0]),
        },
    ),
    Claim(
        "table3", "Table 3 (Section 4.3) - two Nash equilibria, one focal", _table3, {
            "pure Nash equilibria": eq([("A", "a", "alpha"), ("B", "b", "beta")]),
            "focal equilibrium": eq(("A", "a", "alpha")),
            "dominant-strategy equilibria": eq([]),
        },
    ),
    Claim(
        "fig2", "Figure 2a - pRFT's normal execution: one propose, then all-to-all "
        "vote, commit, reveal, final", _fig2, {
            "system state (n=8, 2 rounds)": eq("HONEST"),
            "propose messages": eq(8 * 2),
            **{f"{phase} messages": eq(8 * 8 * 2) for phase in PHASES[1:]},
            "view-change / expose messages": eq([]),
            "round-0 first send of propose..final (n=5)": Expect(
                "non-decreasing", lambda times: times == sorted(times)
            ),
        },
    ),
    Claim(
        "fig3", "Figure 3 - message complexity and size: HotStuff linear, accountability "
        "costs kappa*n per message", _fig3, {
            "pBFT message exponent": within(1.7, 2.3),
            "pRFT message exponent": within(1.7, 2.3),
            "HotStuff - pBFT message exponent": lt(-0.5),
            "Polygraph - pBFT size exponent": gt(0.4),
            "pRFT - pBFT size exponent": gt(0.4),
            "pRFT / Polygraph bytes per round (n=16)": lt(4.0),
            "HotStuff / pBFT bytes per round (n=16)": lt(1),
            "HotStuff / pRFT bytes per round (n=16)": lt(1),
        },
    ),
    Claim(
        "ablation", "pRFT's design - the reveal gate (Polygraph has none) and "
        "evidence-carrying view changes", _ablation, {
            "Polygraph (no reveal gate), t0=3: system state": eq("FORK"),
            "Polygraph (no reveal gate), t0=3: burned": eq([0, 1, 2]),
            "pRFT, t0=3: system state": eq("FORK"),
            "pRFT, t0=3: burned": eq([0, 1, 2]),
            "pRFT, t0=2: system state": ne("FORK"),
            "pRFT, t0=2: burned": eq([0, 1, 2]),
            "pRFT, t0=2, 2 rounds, 50-unit partition: system state": ne("FORK"),
            "pRFT, t0=2, 2 rounds, 50-unit partition: burned": eq([0, 1, 2]),
            "stalled fork, evidence on: burned": eq([0, 1, 2]),
            "stalled fork, evidence off: burned": Expect(
                "a strict subset of [0, 1, 2]", lambda burned: set(burned) < {0, 1, 2}
            ),
            "stalled fork, evidence on: system state": ne("FORK"),
            "stalled fork, evidence off: system state": ne("FORK"),
        },
    ),
    Claim(
        "throughput", "pBFT / HotStuff evaluation shape - blocks/sec under sustained load: "
        "closed-loop service rate per protocol, the open-loop knee, crash churn",
        _throughput, {
            "closed loop, duration 150: blocks/sec (prft, pbft, hotstuff)": eq(
                [0.2533, 0.3333, 0.1467]
            ),
            "closed loop, duration 150: robust (prft, pbft, hotstuff)": eq([True] * 3),
            "Poisson rates 0.25, 0.5, 1, 2: blocks/sec": eq([0.2533] * 4),
            "Poisson rates 0.25, 0.5, 1, 2: peak backlog": eq([5, 7, 14, 167]),
            "poisson-crash-churn: committed of submitted": eq([52, 52]),
            "poisson-crash-churn: agreement, eventual liveness": eq((True, True)),
        },
    ),
    Claim(
        "knee-shift", "The saturation knee moves with pipelined, batched production "
        "(n=16 pRFT, Poisson rate 16, duration 60)", _knee_shift, {
            "legacy (depth 1, block_size cap): tx/time": eq(0.9333),
            "batching only (depth 1, batch 64): tx/time": eq(14.4333),
            "depth only (depth 4, batch 1): tx/time": eq(0.4667),
            "best point (depth 2 or 4, batch 64): tx/time": eq(15.0333),
            "knee shift, best / legacy": ge(10),
            "every point commits with agreement": eq(True),
        },
    ),
    Claim(
        "big-committee", "Throughput against committee size, and aggregate quorum "
        "certificates as a pure representation change (closed-loop pRFT)", _big_committee, {
            "n=16, 32, 64: blocks/sec": eq([0.25] * 3),
            "n=16, 32, 64: p99 latency": eq([4.0] * 3),
            "n=16, 32, 64: agreement and eventual liveness": eq([True] * 3),
            "n=64, aggregates off vs on: commit logs identical": eq(True),
            "n=64, aggregates off vs on: messages": eq([82_240, 82_240]),
            "n=64, aggregates off vs on: bytes": eq([145_184_640, 18_331_520]),
            "n=64, aggregates on / off: bytes": eq(0.1263),
        },
    ),
)
