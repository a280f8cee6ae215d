"""Best-response strategy iteration over the gene space.

The paper's equilibrium claims (Lemma 4, Theorem 5) say that under
pRFT no rational coalition can *profitably* deviate — the honest
strategy is a best response for every type θ.  This module checks that
claim the hard way: per θ it runs a coordinate-descent search over
:class:`~repro.search.space.StrategyGene` knobs, executing every
candidate deviation in the simulator and comparing its realised
Equation 1 utility against the honest strategy *in the same
environment*.  Running the identical search against the pBFT/HotStuff/
TRAP/Polygraph baselines reproduces the paper's Table 2 separation:
the baselines admit a profitable fork deviation (equivocate at the
admissible quorum floor under a healing partition), pRFT's burn makes
the same deviation ruinous.

Threat model (what the search deliberately excludes):

- **Omission coalitions beyond t0.**  Theorem 1 proves any coalition
  larger than t0 can kill liveness on *every* protocol by abstaining —
  a protocol-independent impossibility the catalog's ``liveness``
  scenario already reproduces.  Inside the search it would surface as
  a "profitable deviation" against every protocol including pRFT and
  drown the separation signal, so omission-only genes are capped at
  t0 (where they are crash-equivalent and tolerated).
- **Leadership-covering censorship.**  Theorem 2 proves it pays on
  every protocol (the ``censorship`` catalog scenario); the gene
  space's censor knob is therefore not searched here.
- **Leader stalls.**  An omission coalition containing the round
  leader view-changes the round away on every quorum protocol alike —
  a crash artifact, not a strategic separation — so omission genes are
  placed on the roster *tail* (ids that never lead within the search
  horizon) while forking genes take the *front* (they need the
  proposal right to equivocate).

Profitability is judged per environment: the schedule (partition) and
quorum coordinates are part of the game, so a deviation only counts as
profitable when it beats the honest strategy under the *same*
schedule and quorum.  Environment coordinates are searchable only for
active genes — an honest player cannot choose the network's weather.

Everything is deterministic: candidate order is fixed, scenario names
encode the search point (and seed the runs), and every (point, seed)
run goes through the shared :func:`repro.experiments.sweep.run_jobs`
map, which returns records in submission order, so ``--jobs N``
produces the same report as ``--jobs 1``.  A point's utility, burn and
terminal states are read off its records: the probe is always a
rational id, so its Equation 1 utility under the scenario's ``theta`` is
already a record field.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.registry import PROTOCOL_FACTORIES, Scenario
from repro.experiments.results import RunRecord
from repro.experiments.sweep import SweepJob, run_jobs
from repro.protocols.base import ProtocolConfig
from repro.search.score import bucket_params
from repro.search.space import StrategyGene, victim_split

#: The fuzz repro format; `repro run <file>` replays these artifacts.
REPRO_FORMAT = "repro-scenario/v1"

#: Search-environment constants, mirroring the adversarial tests: one
#: configured round keeps the leader honest under tail placement, the
#: partition heals at 40 with 20 time units of slack, and the timeout
#: outlasts the partition so victims neither view-change early nor
#: stall past the heal.
_ROUNDS = 1
_TIMEOUT = 50.0
_MAX_TIME = 60.0
_PARTITION_END = 40.0

#: Coordinate ladders, iterated in this order.  Values are coarse on
#: purpose: the simulator's outcomes are step functions of the knobs
#: (a quorum forms or it does not), so fine grids buy runs, not signal.
KNOB_LADDERS: Tuple[Tuple[str, Tuple[Any, ...]], ...] = (
    ("equivocate", (0.0, 0.5, 1.0)),
    ("silence", ((), ("vote",), ("commit",), ("reveal",))),
    ("withhold", (0.0, 0.34, 0.67)),
    ("timing_skew", (0.0, 0.5, 1.0)),
    ("suppress_fraud", (False, True)),
)

#: Anything past this margin over the honest baseline is a profitable
#: deviation; below it is float noise.
PROFIT_TOLERANCE = 1e-9


def _base_config(protocol: str, n: int) -> ProtocolConfig:
    if protocol == "prft":
        return ProtocolConfig.for_prft(n=n)
    return ProtocolConfig.for_bft(n=n)


def gene_class(gene: StrategyGene) -> str:
    """"fork" | "omission" | "inactive" — drives placement and caps."""
    if gene.forks:
        return "fork"
    if gene.active:
        return "omission"
    return "inactive"


def coalition_cap(n: int, t0: int, cls: str) -> int:
    """Admissible coalition size per gene class (see module docstring)."""
    if cls == "fork":
        return (n - 1) // 2
    return t0


@dataclass(frozen=True)
class SearchEnv:
    """One searchable environment: a schedule and a quorum coordinate."""

    schedule: str = "clean"  # "clean" | "split"
    quorum: Optional[int] = None  # None = the protocol default

    def label(self) -> str:
        return f"{self.schedule}/q{'d' if self.quorum is None else self.quorum}"


def environments(gene: StrategyGene, floor: Optional[int]) -> List[SearchEnv]:
    """The environments a candidate gene is evaluated in.

    Inactive genes see only the clean default — an honest player does
    not pick the weather.  Forking genes additionally search the
    admissible quorum floor (where the intersection argument is
    thinnest) and a healing partition that splits the victims; omission
    genes search the partition but keep the default quorum (a smaller
    quorum only *helps* liveness, and the floor is a fork lever).
    """
    if not gene.active:
        return [SearchEnv()]
    envs = [SearchEnv(), SearchEnv(schedule="split")]
    if gene.forks and floor is not None:
        envs += [
            SearchEnv(quorum=floor),
            SearchEnv(schedule="split", quorum=floor),
        ]
    return envs


def _roster(n: int, k: int, cls: str) -> Tuple[int, ...]:
    """Coalition placement: front ids fork, tail ids omit."""
    if cls == "omission":
        return tuple(range(n - k, n))
    return tuple(range(k))


def _point_name(
    protocol: str, theta: int, k: int, cls: str,
    gene: StrategyGene, env: SearchEnv,
) -> str:
    payload = json.dumps(
        [protocol, theta, k, cls, gene.as_field(), env.schedule, env.quorum],
        sort_keys=True, default=list,
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:10]
    kind = "dev" if gene.active else "honest"
    return f"search-{protocol}-th{theta}-k{k}-{kind}-{digest}"


def build_point_scenario(
    protocol: str,
    theta: int,
    gene: StrategyGene,
    env: SearchEnv,
    n: int,
    check_invariants: bool = False,
    cls: Optional[str] = None,
) -> Scenario:
    """The concrete Scenario of one search point.

    The honest twin of a deviation point is the same call with the
    default gene (``StrategyGene(coalition=k)``) and the deviation's
    ``cls`` passed explicitly: identical roster, schedule and quorum,
    no deviating strategy compiled in.
    """
    if cls is None:
        cls = gene_class(gene)
    k = gene.coalition
    roster = _roster(n, k, cls)
    fields: Dict[str, Any] = {
        "name": _point_name(protocol, theta, k, cls, gene, env),
        "protocol": protocol,
        "n": n,
        "rounds": _ROUNDS,
        "rational_ids": roster,
        "theta": theta,
        "timeout": _TIMEOUT,
        "max_time": _MAX_TIME,
        "check_invariants": check_invariants,
    }
    if gene.active:
        fields["gene"] = gene.as_field()
    if env.quorum is not None:
        fields["quorum"] = env.quorum
    if env.schedule == "split":
        side_a, side_b = victim_split(n, set(roster))
        fields["partition_windows"] = ((0.0, _PARTITION_END),)
        fields["partition_groups"] = (
            tuple(sorted(side_a)), tuple(sorted(side_b)),
        )
    return Scenario(**fields)


def _probe_outcome(
    probe: int, records: Sequence[RunRecord]
) -> Tuple[float, bool, Tuple[str, ...]]:
    """(mean Eq. 1 utility, ever burned, terminal states) of ``probe``
    over one point's per-seed records."""
    utilities = [dict(record.utilities)[probe] for record in records]
    return (
        sum(utilities) / len(utilities),
        any(probe in record.penalised for record in records),
        tuple(record.state for record in records),
    )


# ----------------------------------------------------------------------
# The per-θ search
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Deviation:
    """One evaluated deviation point with its honest twin's utility."""

    gene: StrategyGene
    env: SearchEnv
    probe: int
    utility: float
    honest_utility: float
    burned: bool
    states: Tuple[str, ...]
    scenario: Scenario
    seeds: Tuple[int, ...]

    @property
    def margin(self) -> float:
        return self.utility - self.honest_utility

    @property
    def profitable(self) -> bool:
        return self.margin > PROFIT_TOLERANCE

    def describe(self) -> str:
        knobs = ", ".join(
            f"{key}={value}" for key, value in self.gene.to_dict().items()
        ) or "honest"
        return f"{knobs} @ {self.env.label()}"

    def repro_entry(self) -> Dict[str, Any]:
        """A ready-to-replay artifact (`repro run <file>`)."""
        return {
            "format": REPRO_FORMAT,
            "scenario": self.scenario.to_dict(),
            "seed": self.seeds[0],
            "search": {
                "gene": self.gene.to_dict(),
                "environment": self.env.label(),
                "probe": self.probe,
                "utility": self.utility,
                "honest_utility": self.honest_utility,
                "burned": self.burned,
            },
        }


@dataclass
class _Evaluator:
    """Batched, cached evaluation of deviation points against their
    honest twins.  Honest baselines are cached per (placement, env):
    every deviation sharing the roster and environment reuses them."""

    protocol: str
    theta: int
    n: int
    seeds: Tuple[int, ...]
    jobs: int
    evaluations: int = 0
    _baselines: Dict[str, float] = field(default_factory=dict)

    def evaluate(self, candidates: Sequence[StrategyGene]) -> List[Deviation]:
        """Evaluate each candidate gene in each of its environments."""
        floor = _quorum_floor(self.protocol, self.n)
        units: List[Tuple[StrategyGene, SearchEnv, Scenario]] = []
        baseline_points: Dict[str, Scenario] = {}
        for gene in candidates:
            cls = gene_class(gene)
            for env in environments(gene, floor):
                units.append((gene, env, build_point_scenario(
                    self.protocol, self.theta, gene, env, self.n,
                )))
                key = self._baseline_key(gene.coalition, cls, env)
                if key not in self._baselines and key not in baseline_points:
                    baseline_points[key] = build_point_scenario(
                        self.protocol, self.theta, StrategyGene(coalition=gene.coalition),
                        env, self.n, cls=cls,
                    )
        batch = [scenario for _, _, scenario in units] + list(baseline_points.values())
        records = run_jobs(
            [
                SweepJob(
                    index, scenario, seed,
                    params=bucket_params(scenario),
                    source="search", near_miss=True,
                )
                for index, (scenario, seed) in enumerate(product(batch, self.seeds))
            ],
            workers=self.jobs,
        )
        self.evaluations += len(batch)
        # A point's per-seed records are adjacent; its probe — the
        # lowest coalition id — is always a rational player.
        span = len(self.seeds)
        outcomes = [
            _probe_outcome(min(scenario.rational_ids), records[at * span : (at + 1) * span])
            for at, scenario in enumerate(batch)
        ]
        for key, (utility, _, _) in zip(baseline_points, outcomes[len(units):]):
            self._baselines[key] = utility
        deviations: List[Deviation] = []
        for (gene, env, scenario), (utility, burned, states) in zip(units, outcomes):
            key = self._baseline_key(gene.coalition, gene_class(gene), env)
            deviations.append(Deviation(
                gene=gene,
                env=env,
                probe=min(scenario.rational_ids),
                utility=utility,
                honest_utility=self._baselines[key],
                burned=burned,
                states=states,
                scenario=scenario,
                seeds=self.seeds,
            ))
        return deviations

    @staticmethod
    def _baseline_key(k: int, cls: str, env: SearchEnv) -> str:
        return f"{k}/{cls}/{env.label()}"


def _quorum_floor(protocol: str, n: int) -> Optional[int]:
    config = _base_config(protocol, n)
    window = config.admissible_quorum_window
    if len(window) == 0 or window.start == config.quorum_size:
        return None
    return window.start


def _candidate_moves(gene: StrategyGene) -> List[StrategyGene]:
    """All active one-knob neighbours of ``gene`` (caps re-checked by
    the caller against the concrete n)."""
    moves: List[StrategyGene] = []
    for knob, ladder in KNOB_LADDERS:
        current = getattr(gene, knob)
        for value in ladder:
            if value == current:
                continue
            try:
                candidate = replace(gene, **{knob: value})
            except ValueError:
                continue
            if gene_class(candidate) == "inactive":
                continue
            moves.append(candidate)
    return moves


@dataclass(frozen=True)
class ThetaResult:
    """The search verdict for one (protocol, θ)."""

    protocol: str
    theta: int
    best: Deviation
    evaluations: int
    wall_time: float

    @property
    def profitable(self) -> bool:
        return self.best.profitable


def best_response(
    protocol: str,
    theta: int,
    n: int = 9,
    seeds: Sequence[int] = (0,),
    jobs: int = 1,
    max_iters: int = 2,
    max_coalition: Optional[int] = None,
) -> ThetaResult:
    """Coordinate-descent best-response search for one (protocol, θ).

    For each admissible coalition size k (the outer loop — a coalition
    cannot be grown one member at a time by single-knob moves), descend
    over the knob ladders: evaluate every one-knob neighbour of the
    incumbent gene in every environment it unlocks, adopt the neighbour
    with the best margin over its honest twin, repeat until no move
    improves or ``max_iters`` passes elapse.  Returns the best
    deviation found across all k.
    """
    if protocol not in PROTOCOL_FACTORIES:
        raise ValueError(f"unknown protocol {protocol!r}")
    if int(theta) not in (1, 2, 3):
        raise ValueError("theta must be a rational type: 1, 2 or 3")
    started = time.perf_counter()
    config = _base_config(protocol, n)
    t0 = config.t0
    fork_cap = coalition_cap(n, t0, "fork")
    cap = fork_cap if max_coalition is None else min(max_coalition, fork_cap)
    evaluator = _Evaluator(
        protocol=protocol, theta=int(theta), n=n,
        seeds=tuple(seeds), jobs=jobs,
    )
    best: Optional[Deviation] = None
    for k in range(1, max(1, cap) + 1):
        incumbent = StrategyGene(coalition=k)
        incumbent_margin = 0.0  # the honest gene's margin over itself
        for _ in range(max_iters):
            moves = []
            for candidate in _candidate_moves(incumbent):
                cls = gene_class(candidate)
                if candidate.coalition > coalition_cap(n, t0, cls):
                    continue
                moves.append(candidate)
            if not moves:
                break
            evaluated = evaluator.evaluate(moves)
            for deviation in evaluated:
                if best is None or deviation.margin > best.margin:
                    best = deviation
            step = max(evaluated, key=lambda d: d.margin)
            if step.margin <= incumbent_margin + PROFIT_TOLERANCE:
                break
            incumbent, incumbent_margin = step.gene, step.margin
    if best is None:  # cap == 0 cannot happen (cap >= 1), but be safe
        honest = StrategyGene()
        scenario = build_point_scenario(protocol, int(theta), honest, SearchEnv(), n)
        best = Deviation(
            gene=honest, env=SearchEnv(), probe=0, utility=0.0,
            honest_utility=0.0, burned=False, states=(),
            scenario=scenario, seeds=tuple(seeds),
        )
    return ThetaResult(
        protocol=protocol,
        theta=int(theta),
        best=best,
        evaluations=evaluator.evaluations,
        wall_time=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# The equilibrium report (Table 2)
# ----------------------------------------------------------------------
@dataclass
class EquilibriumReport:
    """Per-θ best-response verdicts for one or more protocols."""

    n: int
    seeds: Tuple[int, ...]
    results: List[ThetaResult]

    @property
    def dsic(self) -> bool:
        """No θ found a profitable deviation (per protocol: AND over
        its rows; across protocols only meaningful per protocol)."""
        return not any(result.profitable for result in self.results)

    def profitable_results(self) -> List[ThetaResult]:
        return [result for result in self.results if result.profitable]

    def render(self) -> str:
        from repro.analysis.report import render_table

        rows = []
        for result in self.results:
            best = result.best
            rows.append([
                result.protocol,
                f"θ={result.theta}",
                best.describe(),
                round(best.utility, 3),
                round(best.honest_utility, 3),
                "yes" if best.burned else "no",
                "PROFITABLE" if result.profitable else "no",
                result.evaluations,
            ])
        return render_table(
            ["protocol", "type", "best deviation", "U_dev", "U_honest",
             "burned", "profitable", "runs"],
            rows,
            title=(
                f"best-response search (n={self.n}, seeds={list(self.seeds)}): "
                + ("equilibrium holds" if self.dsic else "DEVIATION FOUND")
            ),
        )

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "seeds": list(self.seeds),
            "dsic": self.dsic,
            "results": [
                {
                    "protocol": result.protocol,
                    "theta": result.theta,
                    "profitable": result.profitable,
                    "evaluations": result.evaluations,
                    "best": {
                        "gene": result.best.gene.to_dict(),
                        "environment": result.best.env.label(),
                        "utility": result.best.utility,
                        "honest_utility": result.best.honest_utility,
                        "margin": result.best.margin,
                        "burned": result.best.burned,
                        "states": list(result.best.states),
                    },
                }
                for result in self.results
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def search_equilibrium(
    protocols: Sequence[str],
    thetas: Sequence[int] = (1, 2, 3),
    n: int = 9,
    seeds: Sequence[int] = (0,),
    jobs: int = 1,
    max_iters: int = 2,
    max_coalition: Optional[int] = None,
) -> EquilibriumReport:
    """Run the per-θ best-response search for each protocol."""
    results = [
        best_response(
            protocol, theta, n=n, seeds=seeds, jobs=jobs,
            max_iters=max_iters, max_coalition=max_coalition,
        )
        for protocol in protocols
        for theta in thetas
    ]
    return EquilibriumReport(n=n, seeds=tuple(seeds), results=results)
