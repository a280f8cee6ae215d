"""E20 — bounded-memory soak: ≥10⁶ transactions through one Deployment.

The paper's throughput claims are asymptotic; this harness checks that
the *simulator* can actually carry a soak-scale run — a million Poisson
submissions per protocol through a single :class:`Deployment` — without
memory growing with the event count.  The whole bounded-memory path is
exercised at once: streaming latency quantiles (the P² sketch),
windowed trace/commit-log/ledger retention, round-state pruning, the
geo-latency ``RegionalDelay`` matrix, and retransmission backoff on an
otherwise-reliable network (retention makes the run long, not lossy).

Gates (``tracemalloc`` measures the Python-heap peak per run):

- every protocol pushes the full submission target through one
  deployment and honest chains agree on the final prefix;
- the heap peak stays under a fixed ceiling that does not scale with
  the transaction count;
- memory is sub-linear in the event count: a 10× larger pRFT run may
  cost at most half the 10× in peak heap.

The table is printed, not stored.  Smoke mode (``REPRO_BENCH_SMOKE=1``,
``make soak-smoke``) shrinks the target to 10⁵ transactions per
protocol; every gate still holds.
"""

import time
import tracemalloc
from typing import Dict

from repro.analysis.report import render_table
from repro.experiments import Scenario
from repro.ledger.validation import chains_agree

from benchmarks.helpers import once, smoke_mode

#: soak target per protocol; smoke keeps the same shape at a tenth the
#: scale (and the CI job keeps the same tracemalloc ceiling).
TXS = 100_000 if smoke_mode() else 1_000_000
RATE = 500.0  # tx per virtual-time unit, past the knee but drainable
N = 4

#: Python-heap peak allowed per run.  Deliberately flat across smoke
#: and full mode: the point of the retention path is that 10× the
#: transactions does NOT need 10× the memory.  Measured peaks are
#: 14–16 MiB at 10⁵ tx and 19–23 MiB at 10⁶, so the ceiling has
#: generous slack while still catching any return to O(events)
#: accumulation (an unbounded 10⁶-tx run needs several hundred MiB).
MEMORY_CEILING_MIB = 192.0

PROTOCOLS = ("prft", "pbft", "hotstuff", "polygraph", "trap")


def _soak_scenario(protocol: str, txs: int) -> Scenario:
    """One soak deployment: Poisson arrivals over a 2-region WAN with
    the full retention stack enabled.  The run is bounded at
    ``duration + 8 * timeout`` (``Scenario.effective_max_time``)."""
    duration = txs / RATE * 1.05  # 5% tail so the last arrivals drain
    return Scenario(
        name=f"soak/{protocol}", protocol=protocol, n=N, timeout=30.0,
        delay="regional", regions=2, delta=0.5, region_spread=3.0, region_jitter=0.2,
        workload="poisson", arrival_rate=RATE, duration=duration,
        pipeline_depth=4, max_block_txs=4096, coalesce_window=0.5,
        trace_window=256, commit_window=16_384, submission_window=1024,
        ledger_window=8, backlog_resolution=512,
        max_time=duration + 240.0, max_events=80_000_000,
    )


def _soak_run(protocol: str, txs: int) -> Dict[str, object]:
    scenario = _soak_scenario(protocol, txs)
    started = time.perf_counter()
    tracemalloc.start()
    try:
        result = scenario.run(seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    throughput = result.throughput
    return {
        "txs_target": txs,
        "submitted": throughput.submitted,
        "committed": throughput.committed,
        "blocks": throughput.blocks,
        "blocks_per_sec": round(throughput.blocks_per_sec, 4),
        "latency_p50": round(throughput.latency_p50, 3),
        "latency_p99": round(throughput.latency_p99, 3),
        "final_backlog": throughput.final_backlog,
        "events": result.ctx.engine.events_processed,
        "peak_mib": round(peak / 2**20, 2),
        "agreement": chains_agree(result.honest_chains(), final_only=True),
        "history_truncated": result.history_truncated,
        "wall_seconds": round(time.perf_counter() - started, 2),
    }


def _experiment():
    started = time.perf_counter()
    measurements: Dict[str, object] = {"txs": TXS, "rate": RATE, "n": N}

    runs: Dict[str, Dict[str, object]] = {}
    for protocol in PROTOCOLS:
        runs[protocol] = _soak_run(protocol, TXS)
    measurements["soak"] = runs

    # Sub-linearity probe: the same pRFT deployment at a tenth the
    # scale; the big run's peak must come in well under 10× this one.
    measurements["scaling_small"] = _soak_run("prft", TXS // 10)

    measurements["wall_seconds"] = round(time.perf_counter() - started, 2)
    return measurements


def test_soak(benchmark):
    measured = once(benchmark, _experiment)

    rows = []
    for protocol, info in measured["soak"].items():
        rows.append([
            protocol,
            f"tx={info['submitted']} peak={info['peak_mib']}MiB "
            f"p99={info['latency_p99']} bps={info['blocks_per_sec']} "
            f"wall={info['wall_seconds']}s",
        ])
    small = measured["scaling_small"]
    big = measured["soak"]["prft"]
    rows.append([
        "prft @ tx/10",
        f"tx={small['submitted']} peak={small['peak_mib']}MiB "
        f"events={small['events']}",
    ])
    rows.append(["wall time (s)", measured["wall_seconds"]])
    print()
    print(render_table(
        ["run", "result"],
        rows,
        title=f"E20: soak ({measured['txs']} tx/protocol)",
    ))

    # Correctness and memory gates — these hold in smoke mode too.
    for protocol, info in measured["soak"].items():
        assert info["submitted"] >= measured["txs"], (
            f"{protocol}: only {info['submitted']} of {measured['txs']} "
            f"submissions entered the deployment"
        )
        assert info["committed"] > 0, f"{protocol}: nothing committed"
        assert info["agreement"], (
            f"{protocol}: honest chains diverged during the soak"
        )
        assert info["history_truncated"], (
            f"{protocol}: retention windows never engaged — the run is "
            f"not exercising the bounded-memory path"
        )
        assert info["peak_mib"] < MEMORY_CEILING_MIB, (
            f"{protocol}: peak heap {info['peak_mib']} MiB breaches the "
            f"{MEMORY_CEILING_MIB} MiB soak ceiling"
        )

    # Sub-linear in event count: 10× the transactions may cost at most
    # half the 10× in peak heap (measured ratio is ~1.5×; 5× fails
    # only when some accumulator has gone back to O(events)).
    event_ratio = big["events"] / max(1, small["events"])
    peak_ratio = big["peak_mib"] / max(0.01, small["peak_mib"])
    assert event_ratio > 5.0, "scaling probe runs are too close in size"
    assert peak_ratio < event_ratio / 2.0, (
        f"peak heap grew {peak_ratio:.1f}× over a {event_ratio:.1f}× "
        f"event-count increase — memory is no longer sub-linear"
    )
