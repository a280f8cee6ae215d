"""HMAC-style simulated digital signatures.

A signature over a value is the SHA-256 of ``secret || canonical(value)``
tagged with the signer's id.  A party that does not hold the signer's
secret cannot produce a verifying tag (up to SHA-256 preimage
resistance), which is exactly the unforgeability property the paper's
accountability analysis needs: a Proof-of-Fraud is convincing because
only the deviating player could have signed the conflicting messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.backends import DEFAULT_BACKEND, get_backend
from repro.crypto.hashing import canonical_bytes
from repro.crypto.keys import KeyPair


@dataclass(frozen=True, order=True)
class Signature:
    """A signature tag attributable to ``signer``.

    ``Signature`` objects are hashable and ordered so they can be
    stored in quorum sets and serialised deterministically.
    """

    signer: int
    tag: str

    def canonical(self) -> Any:
        return ("sig", self.signer, self.tag)

    @property
    def size_bytes(self) -> int:
        """Size of one signature in the message-size accounting model.

        The paper reports message sizes as multiples of the security
        parameter κ; we charge κ = 32 bytes per signature.
        """
        return 32


def sign(keypair: KeyPair, value: Any = None, message: Optional[bytes] = None) -> Signature:
    """Sign ``value`` with ``keypair`` and return the signature.

    The tag derivation is delegated to the keypair's backend; the
    default ``hmac-sha256`` backend produces
    ``SHA-256(secret || '|' || canonical(value))``.  A caller that
    already holds ``canonical(value)`` passes it as ``message`` (and may
    omit ``value``), as for
    :meth:`~repro.crypto.registry.KeyRegistry.verify`.
    """
    if message is None:
        message = canonical_bytes(value)
    backend = get_backend(getattr(keypair, "backend", DEFAULT_BACKEND))
    return Signature(signer=keypair.player_id, tag=backend.tag(keypair.secret, message))

