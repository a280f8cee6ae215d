"""Simulated cryptographic substrate.

The paper assumes a PKI with unforgeable digital signatures (verified
against a trusted-setup key registry) and a collision-resistant hash
used to identify blocks.  This package provides a *simulation-grade*
realisation of those assumptions:

- :class:`~repro.crypto.keys.KeyPair` — a per-player signing key.
- :class:`~repro.crypto.registry.KeyRegistry` — the trusted setup of
  Section 3.3: every player's verification key, shared before the
  protocol starts.
- :class:`~repro.crypto.signatures.Signature` and
  :func:`~repro.crypto.signatures.sign` — HMAC-style signatures that
  are unforgeable for any party that does not hold the secret; the
  registry verifies them.
- :mod:`~repro.crypto.hashing` — canonical serialisation and hashing of
  protocol values (blocks, messages).

These primitives are deterministic and dependency-free, which keeps
simulation runs reproducible while preserving exactly the properties
the paper's analysis relies on: signatures attribute messages to
players, cannot be forged, and hashes bind block contents.

Performance: serialisation is memoized on frozen values, the registry
stamps a verified statement or certificate so later checks of the same
object read the stamp, and :mod:`~repro.crypto.backends` offers a
non-unforgeable ``fast-sim`` tag backend for sweeps that never
exercise accountability.
"""

from repro.crypto.aggregate import (
    AggregateQC,
    aggregate_statements,
    aggregate_tag,
    bitmap_of,
    ids_of,
)
from repro.crypto.backends import (
    CryptoBackend,
    DEFAULT_BACKEND,
    backend_names,
    get_backend,
)
from repro.crypto.hashing import digest_hex, hash_value
from repro.crypto.keys import KeyPair, generate_keypair
from repro.crypto.registry import DEFAULT_VERIFY_CACHE_SIZE, KeyRegistry
from repro.crypto.signatures import Signature, sign

__all__ = [
    "AggregateQC",
    "CryptoBackend",
    "DEFAULT_BACKEND",
    "DEFAULT_VERIFY_CACHE_SIZE",
    "KeyPair",
    "KeyRegistry",
    "Signature",
    "aggregate_statements",
    "aggregate_tag",
    "backend_names",
    "bitmap_of",
    "ids_of",
    "digest_hex",
    "generate_keypair",
    "get_backend",
    "hash_value",
    "sign",
]
