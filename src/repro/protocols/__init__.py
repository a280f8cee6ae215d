"""Consensus protocols: shared replica framework and baselines.

- :mod:`~repro.protocols.base` — the protocol-agnostic replica
  skeleton (configuration, context wiring, signing and broadcast
  helpers with strategy interception, and the one slot lifecycle all
  five protocols run on);
- :mod:`~repro.protocols.phases` — the phase-table driver: each of the
  five protocols is a wire vocabulary and a table of phases on it
  (HotStuff's relayed through the leader), the view change shared by
  the other four;
- :mod:`~repro.protocols.lifecycle` — the crash/recovery lifecycle
  (:class:`~repro.protocols.lifecycle.ReplicaStatus`,
  :class:`~repro.protocols.lifecycle.CrashSchedule`);
- :mod:`~repro.protocols.spec` — the composable typed run
  specifications (:class:`~repro.protocols.spec.RunSpec` and its
  network / crypto / fault / workload sub-specs);
- :mod:`~repro.protocols.runner` — executes a ``RunSpec``: builds a
  full simulated :class:`~repro.protocols.runner.Deployment` (engine,
  network, PKI, collateral, replicas, client workload) and runs it to
  a :class:`~repro.protocols.runner.RunResult`;
- :mod:`~repro.protocols.pbft` — pBFT (Castro-Liskov) baseline;
- :mod:`~repro.protocols.hotstuff` — HotStuff-style linear baseline;
- :mod:`~repro.protocols.polygraph` — Polygraph-style accountable BFT;
- :mod:`~repro.protocols.trap` — the TRAP baiting protocol skeleton.

The paper's own protocol, pRFT, lives in :mod:`repro.core`.
"""

from repro.protocols.base import BaseReplica, ProtocolConfig, ProtocolContext
from repro.protocols.lifecycle import CrashSchedule, CrashWindow, ReplicaStatus
from repro.protocols.runner import (
    CryptoSpec,
    Deployment,
    FaultSpec,
    NetworkSpec,
    RunResult,
    RunSpec,
    WorkloadSpec,
    build_context,
    run,
)

__all__ = [
    "BaseReplica",
    "CrashSchedule",
    "CrashWindow",
    "CryptoSpec",
    "Deployment",
    "FaultSpec",
    "NetworkSpec",
    "ProtocolConfig",
    "ProtocolContext",
    "ReplicaStatus",
    "RunResult",
    "RunSpec",
    "WorkloadSpec",
    "build_context",
    "run",
]
