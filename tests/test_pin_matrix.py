"""Five-protocol byte-identity pins over the paths the golden records miss.

``benchmarks/golden_records.json`` pins pRFT on reliable links only.
This matrix pins all five protocols on five shapes that between them
drive every shared slot-lifecycle path: the static fixed-slot loop, the
retransmit / view-change / catch-up / crash-recovery paths (closed loop
over a lossy, duplicating, reordering link with an outage window), the
speculative slot window (Poisson traffic at ``pipeline_depth=3`` under
random delays, aggregate certificates on), the same window over a lossy
link (where slots commit out of order and finalizes are deferred), and
the equivocating-leader alternative (the ``fork`` attack, audited by
the oracle).

``benchmarks/pin_matrix.json`` holds one canonical-``RunRecord`` SHA-256
per cell plus a few counts that make a diverged cell readable.  A
refactor must leave every cell unchanged; a deliberate behaviour change
regenerates the file with ``PYTHONPATH=src python tests/test_pin_matrix.py``
and says why in CHANGES.md.

The same file pins the fuzzer's two contracts: trial identity — a
SHA-256 over the (scenario, seed) of ``generate_trial(0, i, profile)``
for ``i < 200``, per profile — and the shrinker's output on the
injected-violation trial, as the whole repro entry.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.fuzz import (
    PROFILES,
    generate_trial,
    injected_violation_trial,
    shrink,
    violated_checkers,
)
from repro.experiments.registry import Scenario, get_scenario
from repro.experiments.results import RunRecord

PIN_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "pin_matrix.json"
PROTOCOLS = ("prft", "pbft", "hotstuff", "polygraph", "trap")
SEED = 0


def _scenario(shape: str, protocol: str) -> Scenario:
    if shape == "static":
        return get_scenario("protocol-matrix").with_params(protocol=protocol, rounds=3)
    if shape == "faulty-closed":
        return Scenario(
            name="pin-faulty-closed", protocol=protocol, n=7, tolerance="bft",
            workload="closed", outstanding=8, duration=90.0, timeout=10.0,
            loss_rate=0.08, duplicate_rate=0.05, reorder_jitter=0.5,
            crash_spec=((1, 12.0, 45.0),), max_time=400.0,
        )
    if shape == "pipelined-aggregate":
        return Scenario(
            name="pin-pipelined-aggregate", protocol=protocol, n=7, tolerance="bft",
            workload="poisson", arrival_rate=2.0, duration=60.0, timeout=10.0,
            delay="synchronous", delta=2.0, pipeline_depth=3, aggregate_certs=True,
            max_time=400.0,
        )
    if shape == "pipelined-lossy":
        return Scenario(
            name="pin-pipelined-lossy", protocol=protocol, n=7, tolerance="bft",
            workload="poisson", arrival_rate=2.0, duration=80.0, timeout=10.0,
            loss_rate=0.15, duplicate_rate=0.05, reorder_jitter=1.0,
            pipeline_depth=3, aggregate_certs=True, max_time=400.0,
        )
    if shape == "fork-oracle":
        return get_scenario("fork").with_params(protocol=protocol, check_invariants=True)
    raise ValueError(shape)


SHAPES = ("static", "faulty-closed", "pipelined-aggregate", "pipelined-lossy", "fork-oracle")
CELLS = [(shape, protocol) for shape in SHAPES for protocol in PROTOCOLS]


def fingerprint(shape: str, protocol: str) -> dict:
    scenario = _scenario(shape, protocol)
    result = scenario.run(seed=SEED)
    record = RunRecord.from_result(scenario, SEED, result)
    canonical = json.dumps(record.canonical(), sort_keys=True)
    return {
        "record_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "messages": record.total_messages,
        "events": record.events,
        "final_blocks": record.final_blocks,
        "committed_txs": result.ctx.commit_log.committed_transactions,
        "burned": list(record.penalised),
        "trace_records": len(result.ctx.trace),
    }


@pytest.mark.parametrize("shape,protocol", CELLS, ids=[f"{s}-{p}" for s, p in CELLS])
def test_cell_matches_pin(shape, protocol):
    pinned = json.loads(PIN_PATH.read_text())[f"{shape}/{protocol}"]
    assert fingerprint(shape, protocol) == pinned


GENERATOR_TRIALS = 200


def generator_fingerprint(profile: str) -> str:
    digest = hashlib.sha256()
    for index in range(GENERATOR_TRIALS):
        trial = generate_trial(0, index, profile)
        digest.update(json.dumps(
            [trial.scenario.to_dict(), trial.seed], sort_keys=True
        ).encode())
    return digest.hexdigest()


def shrunk_injected_entry() -> dict:
    trial = injected_violation_trial(0)
    target = violated_checkers(trial.scenario, trial.seed)
    return shrink(trial.scenario, trial.seed, target=target).entry()


@pytest.mark.parametrize("profile", PROFILES)
def test_fuzz_generator_matches_pin(profile):
    pinned = json.loads(PIN_PATH.read_text())[f"fuzz-generator/{profile}"]
    assert generator_fingerprint(profile) == pinned


def test_fuzz_shrinker_matches_pin():
    pinned = json.loads(PIN_PATH.read_text())["fuzz-shrink/injected"]
    assert shrunk_injected_entry() == pinned


if __name__ == "__main__":
    pins = {f"{shape}/{protocol}": fingerprint(shape, protocol) for shape, protocol in CELLS}
    pins.update((f"fuzz-generator/{profile}", generator_fingerprint(profile)) for profile in PROFILES)
    pins["fuzz-shrink/injected"] = shrunk_injected_entry()
    PIN_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {PIN_PATH}")
