"""E15 — crypto fast path: verdict stamps, quorum memo and backend speedups.

Runs the same n=16 pRFT deployment three ways and prints the wall
times:

- **no-cache** — ``crypto_cache_size=0``, the reference path: every
  signature check re-serialises the signed tuple and re-derives the
  tag, as the seed implementation did;
- **cached** — the default: canonical bytes memoized per statement,
  the verdict stamped on the shared signed object (a later check of
  it, by the other n − 1 replicas or the oracle, reads the stamp) and
  each fully pinned justification's verdict memoized per deployment
  (stamp + quorum memo);
- **fast-sim** — the cached path with CRC tags instead of SHA-256
  (forgeable; only for sweeps that never exercise accountability).

Correctness gate: the cached and uncached runs must produce
byte-identical canonical :class:`RunRecord` JSON — the fast path may
only change how fast the identical execution is reached.  Performance
gate: the fast path must deliver ≥ 2× on this workload (relaxed to a
printed ratio under ``REPRO_BENCH_SMOKE=1`` or on boxes that opt out
with ``REPRO_BENCH_NO_SPEEDUP_ASSERT=1``).
"""

import json
import os
import time

from repro.analysis.report import render_table
from repro.experiments import get_scenario
from repro.experiments.results import RunRecord

from benchmarks.helpers import once, smoke_mode

N = 8 if smoke_mode() else 16
ROUNDS = 2 if smoke_mode() else 5
REPEATS = 1 if smoke_mode() else 3
SEED = 0


def _base_scenario():
    return get_scenario("honest").with_params(n=N, rounds=ROUNDS)


def _timed_record(scenario):
    """Best-of-REPEATS wall time plus the canonical record of the run."""
    best = float("inf")
    record = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = scenario.run(seed=SEED)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
        if record is None:
            record = RunRecord.from_result(scenario, seed=SEED, result=result)
        registry = result.ctx.registry
        counts = {"hits": registry.cache_hits, "misses": registry.cache_misses}
    return best, record, counts


def _experiment():
    base = _base_scenario()
    variants = {
        "no-cache": base.with_params(crypto_cache_size=0),
        "cached": base,
        "fast-sim": base.with_params(crypto_backend="fast-sim"),
    }
    return {name: _timed_record(scenario) for name, scenario in variants.items()}


def test_crypto_fastpath_speedup(benchmark):
    measured = once(benchmark, _experiment)

    times = {name: best for name, (best, _, _) in measured.items()}
    speedup = times["no-cache"] / times["cached"] if times["cached"] else float("inf")
    counts = measured["cached"][2]

    # The fast path must not change the execution: canonical records
    # (and hence their JSON serialisation) are byte-identical.
    canonical = {
        name: json.dumps(record.canonical(), sort_keys=True)
        for name, (_, record, _) in measured.items()
    }
    assert canonical["cached"] == canonical["no-cache"]

    rows = [
        ["workload", f"pRFT honest n={N}, rounds={ROUNDS}, seed={SEED}"],
        ["no-cache wall time (s)", times["no-cache"]],
        ["cached wall time (s)", times["cached"]],
        ["fast-sim wall time (s)", times["fast-sim"]],
        ["cache speedup", speedup],
        ["stamp hits / tag derivations", f"{counts['hits']} / {counts['misses']}"],
        ["records byte-identical", canonical["cached"] == canonical["no-cache"]],
    ]
    print()
    print(render_table(["quantity", "value"], rows, title="E15: crypto fast path"))

    strict = os.environ.get("REPRO_BENCH_NO_SPEEDUP_ASSERT") != "1" and not smoke_mode()
    if strict:
        assert speedup >= 2.0, (
            f"expected the verification fast path to deliver >=2x on n={N} pRFT, "
            f"got {speedup:.2f}x (set REPRO_BENCH_NO_SPEEDUP_ASSERT=1 on "
            f"shared/throttled machines)"
        )
