"""Which calls are spans, and how spans and counters become the
per-layer metrics declared in ``BENCHMARK.json``.

Layers are the repo's modules.  :func:`instrument` wraps their public
methods (plus the replicas' private timeout callbacks, the only place a
pBFT/HotStuff/Polygraph timeout can be seen from outside) for one
traced repeat; :class:`RunObserver` reads the counters a finished run
already exposes as public state; :func:`layer_metrics` turns both into
the declared names.  ``TARGETS`` records, for every layer metric, which
end-to-end metric it should move and on which workload — written down
before anything was measured, and checked by the self-test.
"""

from __future__ import annotations

import statistics
from collections import Counter
from typing import Any, Dict, List, Tuple

from repro.checks import default_checkers
from repro.core.pof import FraudDetector
from repro.core.replica import PRFTReplica
from repro.crypto.registry import KeyRegistry
from repro.experiments import results as results_module
from repro.experiments import sweep as sweep_module
from repro.experiments.results import RunRecord
from repro.ledger.chain import Chain
from repro.ledger.mempool import Mempool
from repro.net.faults import LinkPipeline
from repro.net.network import Network
from repro.protocols.base import BaseReplica
from repro.protocols.hotstuff import HotStuffReplica
from repro.protocols.pbft import PBFTReplica
from repro.protocols.polygraph import PolygraphReplica
from repro.protocols.runner import Deployment
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import CommitLog, MetricsCollector
from repro.sim.streaming import ThroughputAccumulator
from repro.sim.timers import TimerService
from repro.sim.trace import TraceRecorder
from repro.workloads.base import Workload

from spans import SpanRecorder

#: (layer, owner, attributes) — fine spans, aggregated per function.
FINE_SPANS: Tuple[Tuple[str, Any, Tuple[str, ...]], ...] = (
    ("sim.engine", SimulationEngine, ("run", "step", "schedule", "schedule_at")),
    ("sim.timers", TimerService, ("set_timer", "cancel", "cancel_all")),
    ("sim.trace", TraceRecorder,
     ("record", "events", "count", "last", "dropped", "truncated", "__iter__", "__len__")),
    ("sim.metrics", MetricsCollector, ("record_send", "record_drop", "record_duplicate")),
    ("sim.metrics", CommitLog, ("note",)),
    ("sim.streaming", ThroughputAccumulator, ("note_submit", "note_commit")),
    ("net.network", Network, ("send", "broadcast", "note_undeliverable")),
    ("net.faults", LinkPipeline, ("transmit",)),
    ("crypto.registry", KeyRegistry,
     ("verify", "verify_quorum", "verify_all", "verify_aggregate", "batch_canonicalize")),
    ("core.pof", FraudDetector, ("absorb", "absorb_all", "absorb_aggregate")),
    ("ledger.mempool", Mempool, ("submit", "submit_all", "select", "mark_included")),
    ("ledger.chain", Chain,
     ("append_tentative", "finalize", "prune_final_bodies", "rollback_tentative",
      "blocks", "final_blocks", "contains_transaction")),
    ("workloads", Workload, ("submit",)),
    ("protocols", BaseReplica, ("broadcast", "send_direct")),
    ("protocols", PRFTReplica, ("handle_payload", "_on_round_timeout")),
    ("protocols", PBFTReplica, ("handle_payload", "_on_timeout")),
    ("protocols", HotStuffReplica, ("handle_payload", "_on_timeout")),
    # TrapReplica inherits both from PolygraphReplica.
    ("protocols", PolygraphReplica, ("handle_payload", "_on_timeout")),
    ("analysis", results_module, ("check_robustness",)),
)

TRACE_READS = tuple(
    f"TraceRecorder.{attr}"
    for attr in ("events", "count", "last", "dropped", "truncated", "__iter__", "__len__")
)
VERIFY = ("KeyRegistry.verify", "KeyRegistry.verify_quorum", "KeyRegistry.verify_all")
AGG_VERIFY = ("KeyRegistry.verify_aggregate", "KeyRegistry.batch_canonicalize")
REPLICAS = ("PRFTReplica", "PBFTReplica", "HotStuffReplica", "PolygraphReplica")
HANDLERS = tuple(f"{cls}.handle_payload" for cls in REPLICAS)
TIMEOUTS = ("PRFTReplica._on_round_timeout",) + tuple(
    f"{cls}._on_timeout" for cls in REPLICAS[1:]
)


class RunObserver:
    """Counters read off each finished deployment's public state.

    They repeat exactly for one (code, seed), traced or not — the
    traced repeat must reproduce the untraced ``record_sha256`` — so
    reading them in the traced repeat costs the timed runs nothing.
    """

    def __init__(self) -> None:
        self.totals: Counter = Counter()
        self.committed = 0
        self.horizon = 0.0
        self.latency_p50: List[float] = []
        self.latency_p99: List[float] = []
        self.commit_gaps: List[float] = []

    def observe(self, result: Any) -> None:
        ctx, metrics, registry, trace = (
            result.ctx, result.metrics, result.ctx.registry, result.ctx.trace
        )
        detectors = [
            replica.detector for replica in result.replicas.values()
            if hasattr(replica, "detector")
        ]
        self.totals.update({
            "events": ctx.engine.events_processed,
            "trace_records": len(trace),
            "trace_retained": len(trace) - trace.dropped(),
            "msgs": metrics.total_messages,
            "bytes": metrics.total_bytes,
            "dropped": metrics.total_dropped,
            "duplicates": metrics.total_duplicates,
            "verify_hits": registry.cache_hits,
            "verify_misses": registry.cache_misses,
            "agg_hits": registry.agg_cache_hits,
            "agg_misses": registry.agg_cache_misses,
            "proofs": sum(len(detector.proofs()) for detector in detectors),
            "burns": len(ctx.collateral.burned_players()),
            "submits": ctx.workload.submitted_count,
            "commits": ctx.commit_log.committed_transactions,
            "view_changes": trace.count("view_change_committed"),
        })
        if result.throughput is not None and result.throughput.committed:
            self.committed += result.throughput.committed
            self.horizon += result.throughput.horizon
            self.latency_p50.append(result.throughput.latency_p50)
            self.latency_p99.append(result.throughput.latency_p99)
        times = sorted(ctx.commit_log.commit_times().values())
        if len(times) > 1:
            self.commit_gaps.append(max(b - a for a, b in zip(times, times[1:])))


def instrument(recorder: SpanRecorder, observer: RunObserver) -> None:
    """Install every wrapper; ``recorder.uninstall()`` removes them."""
    for layer, owner, attrs in FINE_SPANS:
        for attr in attrs:
            recorder.install(owner, attr, layer)
    for checker in default_checkers():
        recorder.install(type(checker), "check", "checks")
    recorder.install(Deployment, "__init__", "protocols.runner", coarse=True)
    recorder.install(
        Deployment, "execute", "protocols.runner", coarse=True, after=observer.observe
    )
    recorder.install(RunRecord, "from_result", "experiments", coarse=True)
    recorder.install(sweep_module, "run_job", "experiments.sweep", coarse=True)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    observer: RunObserver,
    untraced_run_s: float,
    traced_run_s: float,
) -> Dict[str, float]:
    """Every declared per-layer metric for one traced repeat.

    A metric that has no meaning on a workload (sweep cells on a
    single run, latency on a static-batch cell) reads 0: the contract
    wants every declared name on every workload.
    """
    own, calls, total = recorder.self_seconds, recorder.calls, recorder.total_seconds
    count = observer.totals
    verifies = count["verify_hits"] + count["verify_misses"]
    agg_verifies = count["agg_hits"] + count["agg_misses"]
    cells = sum(1 for entry in recorder.coarse if entry["name"] == "sweep.run_job")
    return {
        "sim.engine.events": count["events"],
        "sim.engine.self_s": own("sim.engine"),
        "sim.engine.events_per_s": _ratio(count["events"], untraced_run_s),
        "sim.timers.set": calls("sim.timers", "TimerService.set_timer"),
        "sim.trace.records": count["trace_records"],
        "sim.trace.record_self_s": own("sim.trace", "TraceRecorder.record"),
        "sim.trace.retained": count["trace_retained"],
        "sim.trace.read_self_s": own("sim.trace", *TRACE_READS),
        "sim.metrics.self_s": own("sim.metrics"),
        "sim.streaming.self_s": own("sim.streaming"),
        "sim.commit_rate": _ratio(observer.committed, observer.horizon),
        "sim.latency_p50": statistics.median(observer.latency_p50 or [0.0]),
        "sim.latency_p99": max(observer.latency_p99, default=0.0),
        "sim.max_commit_gap": max(observer.commit_gaps, default=0.0),
        "net.network.msgs": count["msgs"],
        "net.network.send_self_s": own("net.network"),
        "net.network.us_per_msg": _ratio(untraced_run_s * 1e6, count["msgs"]),
        "net.network.msgs_per_commit": _ratio(count["msgs"], count["commits"]),
        "net.network.bytes_per_commit": _ratio(count["bytes"], count["commits"]),
        "net.faults.transmit_self_s": own("net.faults"),
        "net.faults.dropped": count["dropped"],
        "net.faults.duplicates": count["duplicates"],
        "crypto.registry.verifies": verifies,
        "crypto.registry.verify_self_s": own("crypto.registry", *VERIFY),
        "crypto.registry.verifies_per_msg": _ratio(verifies, count["msgs"]),
        "crypto.registry.hit_rate": _ratio(count["verify_hits"], verifies),
        "crypto.registry.agg_verifies": agg_verifies,
        "crypto.registry.agg_verify_self_s": own("crypto.registry", *AGG_VERIFY),
        "crypto.registry.agg_hit_rate": _ratio(count["agg_hits"], agg_verifies),
        "core.pof.absorbs": calls("core.pof", "FraudDetector.absorb"),
        "core.pof.absorb_self_s": own("core.pof"),
        "core.pof.proofs": count["proofs"],
        "ledger.mempool.ops": calls(
            "ledger.mempool", "Mempool.submit", "Mempool.select", "Mempool.mark_included"
        ),
        "ledger.mempool.self_s": own("ledger.mempool"),
        "ledger.chain.self_s": own("ledger.chain"),
        "ledger.collateral.burns": count["burns"],
        "workloads.submits": count["submits"],
        "workloads.submit_self_s": own("workloads"),
        "protocols.handler.calls": calls("protocols", *HANDLERS),
        "protocols.handler.self_s": own("protocols", *HANDLERS),
        "protocols.base.broadcast_self_s": own(
            "protocols", "BaseReplica.broadcast", "BaseReplica.send_direct"
        ),
        "protocols.timeouts": calls("protocols", *TIMEOUTS),
        "protocols.view_changes": count["view_changes"],
        "protocols.runner.assemble_s": total("protocols.runner", "Deployment.__init__"),
        "protocols.runner.execute_self_s": own("protocols.runner", "Deployment.execute"),
        "checks.oracle_s": total("checks"),
        "analysis.robustness_s": total("analysis"),
        "experiments.record_s": total("experiments"),
        "experiments.sweep.cells_per_s": _ratio(cells, untraced_run_s),
        "perf.trace_overhead": _ratio(traced_run_s, untraced_run_s),
    }


#: layer metric -> ((end-to-end metric, workload where it should show), ...)
#: "all" = every workload.  Written before measuring; README carries
#: the same table with the "no change expected" workloads beside it.
_SINGLE = ("prft-closed-n16", "hotstuff-soak-n64", "pbft-faulty-n16")
TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sim.engine.events": (("run_s", "pbft-faulty-n16"),),
    "sim.engine.self_s": (("run_s", "pbft-faulty-n16"),),
    "sim.engine.events_per_s": (("run_s", "pbft-faulty-n16"),),
    "sim.timers.set": (("run_s", "pbft-faulty-n16"),),
    "sim.trace.records": (("run_s", "pbft-faulty-n16"),),
    "sim.trace.record_self_s": (("run_s", "pbft-faulty-n16"),),
    "sim.trace.retained": (
        ("peak_rss_mib", "prft-closed-n16"), ("peak_rss_mib", "pbft-faulty-n16"),
    ),
    "sim.trace.read_self_s": tuple(("post_s", w) for w in _SINGLE)
    + (("run_s", "catalog-sweep"),),
    "sim.metrics.self_s": (("run_s", "all"),),
    "sim.streaming.self_s": (
        ("run_s", "hotstuff-soak-n64"), ("peak_rss_mib", "hotstuff-soak-n64"),
    ),
    # Simulated behaviour: these move no host-time metric; they are
    # the guard that must stay bit-equal whenever run_s moves.
    "sim.commit_rate": (("run_s", "all"),),
    "sim.latency_p50": (("run_s", "all"),),
    "sim.latency_p99": (("run_s", "pbft-faulty-n16"),),
    "sim.max_commit_gap": (("run_s", "pbft-faulty-n16"),),
    "net.network.msgs": (("run_s", "all"),),
    "net.network.send_self_s": (("run_s", "all"),),
    "net.network.us_per_msg": (("run_s", "all"),),
    "net.network.msgs_per_commit": (("run_s", "all"),),
    "net.network.bytes_per_commit": (("run_s", "all"),),
    "net.faults.transmit_self_s": (("run_s", "pbft-faulty-n16"),),
    "net.faults.dropped": (("run_s", "pbft-faulty-n16"),),
    "net.faults.duplicates": (("run_s", "pbft-faulty-n16"),),
    "crypto.registry.verifies": (("run_s", "prft-closed-n16"), ("run_s", "catalog-sweep")),
    "crypto.registry.verify_self_s": (
        ("run_s", "prft-closed-n16"), ("run_s", "catalog-sweep"),
    ),
    "crypto.registry.verifies_per_msg": (
        ("run_s", "prft-closed-n16"), ("run_s", "catalog-sweep"),
    ),
    "crypto.registry.hit_rate": (("run_s", "prft-closed-n16"), ("run_s", "catalog-sweep")),
    "crypto.registry.agg_verifies": (("run_s", "hotstuff-soak-n64"),),
    "crypto.registry.agg_verify_self_s": (("run_s", "hotstuff-soak-n64"),),
    "crypto.registry.agg_hit_rate": (("run_s", "hotstuff-soak-n64"),),
    "core.pof.absorbs": (("run_s", "prft-closed-n16"),),
    "core.pof.absorb_self_s": (("run_s", "prft-closed-n16"),),
    "core.pof.proofs": (("run_s", "catalog-sweep"),),
    "ledger.mempool.ops": (("run_s", "hotstuff-soak-n64"),),
    "ledger.mempool.self_s": (("run_s", "hotstuff-soak-n64"),),
    "ledger.chain.self_s": (("run_s", "all"),),
    "ledger.collateral.burns": (("run_s", "catalog-sweep"),),
    "workloads.submits": (("run_s", "hotstuff-soak-n64"),),
    "workloads.submit_self_s": (("run_s", "hotstuff-soak-n64"),),
    "protocols.handler.calls": (("run_s", "all"),),
    "protocols.handler.self_s": (("run_s", "all"),),
    "protocols.base.broadcast_self_s": (("run_s", "all"),),
    "protocols.timeouts": (("run_s", "pbft-faulty-n16"),),
    "protocols.view_changes": (("run_s", "pbft-faulty-n16"),),
    "protocols.runner.assemble_s": (("run_s", "catalog-sweep"),),
    "protocols.runner.execute_self_s": (("run_s", "all"),),
    "checks.oracle_s": tuple(("post_s", w) for w in _SINGLE) + (("run_s", "catalog-sweep"),),
    "analysis.robustness_s": tuple(("post_s", w) for w in _SINGLE)
    + (("run_s", "catalog-sweep"),),
    "experiments.record_s": tuple(("post_s", w) for w in _SINGLE)
    + (("run_s", "catalog-sweep"),),
    "experiments.sweep.cells_per_s": (("run_s", "catalog-sweep"),),
    "perf.trace_overhead": (("run_s", "all"),),
}
