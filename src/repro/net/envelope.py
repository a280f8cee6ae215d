"""The unit the network carries: a typed, size-accounted envelope."""

from __future__ import annotations

from typing import Any, NamedTuple


class Envelope(NamedTuple):
    """One message in flight.

    ``payload`` is a protocol message object; the network never
    inspects it (channels are tamper-proof).  ``message_type`` and
    ``size_bytes`` feed the metrics collector; ``round_number`` lets
    per-round accounting work without parsing payloads.  A
    ``NamedTuple`` because one is built per recipient of every
    broadcast: immutable like the frozen dataclass it replaced, a third
    of the cost to construct.
    """

    sender: int
    recipient: int
    payload: Any
    message_type: str
    size_bytes: int
    round_number: int = -1
