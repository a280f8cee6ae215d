"""Network substrate: a link-layer pipeline under three synchrony models.

The paper (Section 3.3 and Appendix A.3) assumes reliable authenticated
channels — messages are never lost or tampered with, but may be
delayed — under one of three synchrony flavours:

- **synchronous**: every delay is bounded by a known Δ_sync;
- **asynchronous**: delays are finite but unbounded;
- **partially synchronous** (Dwork-Lynch-Stockmeyer): the network is
  asynchronous until an unknown Global Stabilization Time (GST), after
  which delays are bounded.

:class:`~repro.net.network.Network` is the message bus: every send is
timed by the deployment's :class:`~repro.net.faults.LinkPipeline` — the
configured :class:`~repro.net.delays.DelayModel`, the active
:class:`~repro.net.partition.PartitionSchedule` (messages across a
partition are deferred until the partition heals), and three optional
seeded faults (probabilistic drop, duplication, reorder-jitter) for the
adversarial-network scenarios.  With every fault knob at zero, channels
are the paper's reliable exactly-once baseline.
"""

from repro.net.delays import (
    AsynchronousDelay,
    DelayModel,
    FixedDelay,
    PartialSynchronyDelay,
    SynchronousDelay,
)
from repro.net.envelope import Envelope
from repro.net.faults import LinkPipeline
from repro.net.network import Network, UnknownRecipientError
from repro.net.partition import Partition, PartitionSchedule

__all__ = [
    "AsynchronousDelay",
    "DelayModel",
    "Envelope",
    "FixedDelay",
    "LinkPipeline",
    "Network",
    "PartialSynchronyDelay",
    "Partition",
    "PartitionSchedule",
    "SynchronousDelay",
    "UnknownRecipientError",
]
