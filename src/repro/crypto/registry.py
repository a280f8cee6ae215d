"""Trusted-setup key registry (Section 3.3 of the paper).

Before the protocol starts, all players share their public keys via a
trusted broadcast.  The :class:`KeyRegistry` models the result: a map
from player id to verification material that every replica consults
when validating signed messages.  Invalid signatures are discarded at
the ``Recv`` boundary, exactly as the paper's protocol figure assumes.

The registry is also the deployment's verification fast path.  Every
replica of a run shares one registry, and quorum certificates make
each statement's signature checked by every replica — so the registry
keeps a bounded LRU cache keyed by ``(signer, tag, digest)``: once any
replica has checked a signature over a value, the other n − 1 checks
of the same triple are dictionary lookups.  Keying on the *tag* as
well as the digest is what keeps forgery detection exact: a forged tag
over an already-verified digest is a different key, misses the cache,
and is re-derived (and rejected) from the secret material.

One level up, :meth:`KeyRegistry.memoized_quorum` keeps the verdict of
a whole statement-set certificate, keyed by its content — as
:meth:`KeyRegistry.verify_aggregate` does for aggregate certificates —
so a justification broadcast to n receivers is checked member by
member once per deployment, not once per receiver.

Below both caches, the verdict is a property of the signed object.
Every receiver of a broadcast, and the post-run oracle, holds the
*same* frozen statement or certificate, so the first successful check
stamps it with the registry's :attr:`KeyRegistry.verified_mark` and
every later check of that object reads the stamp back — no
serialisation, no hashing, no cache lookup.  The object is frozen, so
the stamp cannot go stale; a forged or re-attributed copy is another
object, carries no stamp and takes the path above; the mark is an
inert ``object()`` private to one registry, so a stamp never vouches
for an object under another registry and adds no reference cycle.  A
stamp hit counts as a cache hit, and with the cache disabled
(``verify_cache_size=0``) nothing is stamped or read.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.crypto.aggregate import AggregateQC, aggregate_tag, statement_value
from repro.crypto.backends import CryptoBackend, DEFAULT_BACKEND, get_backend
from repro.crypto.hashing import canonical_bytes
from repro.crypto.keys import KeyPair, generate_keypair
from repro.crypto.signatures import Signature

DEFAULT_VERIFY_CACHE_SIZE = 1 << 16
"""Default bound on cached verification verdicts per registry."""

QUORUM_MEMO_PER_PLAYER = 8
"""Certificate verdicts kept per registered player.  A round puts 2n
distinct justifications in flight (one per Commit and per Reveal), so
this holds four rounds' worth — the deepest pipeline window; an older
certificate is simply re-checked through the per-signature cache."""


class KeyRegistry:
    """The shared PKI produced by the trusted setup.

    The registry keeps the *derivation* material needed to check tags.
    In a real deployment this would be a public key; here it is the
    secret itself, held by the registry only (players hold their own
    :class:`KeyPair`; adversaries never read the registry's internals,
    they can only call :meth:`verify`).
    """

    def __init__(
        self,
        seed: str = "default",
        backend: str = DEFAULT_BACKEND,
        verify_cache_size: int = DEFAULT_VERIFY_CACHE_SIZE,
    ) -> None:
        self._seed = seed
        self._backend = get_backend(backend)
        self._keys: Dict[int, KeyPair] = {}
        self._cache: "OrderedDict[Tuple[int, str, bytes], bool]" = OrderedDict()
        # Aggregate-certificate verdicts, keyed (bitmap, agg_tag, phase,
        # round, digest) — the pin determines the signed value, so the
        # key needs no serialisation; same exactness argument as the
        # per-signature cache — a forged tag or flipped bitmap bit is a
        # different key, misses, and is re-derived from the secrets.
        self._agg_cache: "OrderedDict[Tuple[int, str, str, int, str], bool]" = OrderedDict()
        # Statement-set certificate verdicts, keyed by the caller's
        # content key (pin + members, tags included).
        self._quorum_cache: "OrderedDict[Hashable, int]" = OrderedDict()
        self._cache_size = max(0, int(verify_cache_size))
        # What a signed object carries once it verified here (see the
        # module docstring); None turns the stamps off with the cache.
        self.verified_mark: Optional[object] = object() if self._cache_size else None
        self.cache_hits = 0
        self.cache_misses = 0
        self.agg_cache_hits = 0
        self.agg_cache_misses = 0
        self.quorum_cache_hits = 0
        self.quorum_cache_misses = 0

    @classmethod
    def trusted_setup(
        cls,
        player_ids: Iterable[int],
        seed: str = "default",
        backend: str = DEFAULT_BACKEND,
        verify_cache_size: int = DEFAULT_VERIFY_CACHE_SIZE,
    ) -> "KeyRegistry":
        """Run the trusted setup for ``player_ids`` and return the registry."""
        registry = cls(seed=seed, backend=backend, verify_cache_size=verify_cache_size)
        for player_id in player_ids:
            registry.register(player_id)
        return registry

    @property
    def backend(self) -> CryptoBackend:
        """The tag backend every key of this deployment signs with."""
        return self._backend

    def register(self, player_id: int) -> KeyPair:
        """Register ``player_id`` and return its key pair (given to the player)."""
        if player_id in self._keys:
            raise ValueError(f"player {player_id} already registered")
        keypair = generate_keypair(player_id, seed=self._seed, backend=self._backend.name)
        self._keys[player_id] = keypair
        return keypair

    def keypair_of(self, player_id: int) -> KeyPair:
        """Return the key pair of ``player_id`` (the player's own view)."""
        return self._keys[player_id]

    def known_players(self) -> List[int]:
        """Return the ids of all registered players, sorted."""
        return sorted(self._keys)

    def __contains__(self, player_id: int) -> bool:
        return player_id in self._keys

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    @property
    def cache_enabled(self) -> bool:
        """Whether verification verdicts are being cached."""
        return self._cache_size > 0

    def verify(
        self,
        signature: Signature,
        value: Any = None,
        message: Optional[bytes] = None,
        digest: Optional[bytes] = None,
    ) -> bool:
        """Check that ``signature`` is a valid signature on ``value``.

        Returns ``False`` for unknown signers or forged tags; protocol
        code treats such messages as if they were never received.

        ``message``/``digest`` let callers that memoize a value's
        canonical bytes (e.g. :class:`~repro.core.messages.SignedStatement`)
        skip re-serialisation; ``value`` may then be omitted entirely.
        With the cache disabled (``verify_cache_size=0``) every call
        takes the reference path — full re-serialisation (when a value
        is given) and tag re-derivation — which is what the fast-path
        benchmark and the determinism cross-check compare against.
        """
        keypair = self._keys.get(signature.signer)
        if keypair is None:
            return False
        if self._cache_size == 0:
            if value is not None or message is None:
                message = canonical_bytes(value)
            return signature.tag == self._backend.tag(keypair.secret, message)
        if message is None:
            message = canonical_bytes(value)
        if digest is None:
            digest = hashlib.sha256(message).digest()
        key = (signature.signer, signature.tag, digest)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        valid = signature.tag == self._backend.tag(keypair.secret, message)
        self._cache[key] = valid
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return valid

    def verify_quorum(self, signatures: Iterable[Signature], value: Any) -> bool:
        """Batch-verify many signatures over one shared ``value``.

        Quorum certificates are exactly this shape — τ signers over the
        same (phase, round, digest) — so the value is serialised and
        digested once for the whole batch; each signature then costs a
        cache lookup (or one tag derivation on first sight).  False if
        any signature fails.
        """
        message = canonical_bytes(value)
        digest = hashlib.sha256(message).digest()
        return all(
            self.verify(signature, value, message=message, digest=digest)
            for signature in signatures
        )

    def verify_all(self, signatures: Iterable[Signature], value: Any) -> bool:
        """Check every signature in ``signatures`` against ``value``."""
        return self.verify_quorum(signatures, value)

    def memoized_quorum(self, key: Hashable, derive: Callable[[], int]) -> int:
        """The verdict of a statement-set certificate, derived once.

        ``key`` must determine the verdict completely: callers pass the
        (phase, round, digest) pin together with the member statements
        *including their tags*, so a forged tag, a re-attributed
        signature or a different pin is a different key, misses, and
        runs ``derive`` — the full per-member check.  The verdict is
        whatever ``derive`` returns (the distinct-signer count, or a
        negative number for an invalid certificate); thresholds are the
        caller's to re-check on every call.  Bounded LRU of
        :data:`QUORUM_MEMO_PER_PLAYER` entries per registered player
        (never more than the verification cache's bound); with the
        cache disabled nothing is remembered.
        """
        if self._cache_size == 0:
            return derive()
        cached = self._quorum_cache.get(key)
        if cached is not None:
            self._quorum_cache.move_to_end(key)
            self.quorum_cache_hits += 1
            return cached
        self.quorum_cache_misses += 1
        verdict = derive()
        self._quorum_cache[key] = verdict
        if len(self._quorum_cache) > self._quorum_cache_size():
            self._quorum_cache.popitem(last=False)
        return verdict

    def _quorum_cache_size(self) -> int:
        return min(self._cache_size, QUORUM_MEMO_PER_PLAYER * len(self._keys))

    # ------------------------------------------------------------------
    # Aggregate certificates
    # ------------------------------------------------------------------
    def batch_canonicalize(self, value: Any) -> Tuple[bytes, bytes]:
        """Serialise ``value`` once for a whole certificate.

        Returns ``(message_bytes, sha256_digest)`` — the shared inputs
        every per-signer tag derivation and cache key of a certificate
        check needs, computed a single time for the batch.
        """
        message = canonical_bytes(value)
        return message, hashlib.sha256(message).digest()

    def verify_aggregate(self, aggregate: AggregateQC) -> bool:
        """Validate a whole aggregate certificate against its own pin.

        Re-derives each bitmap member's tag over the certificate's
        (phase, round, digest) value, canonicalised once, from the
        trusted-setup secrets, recombines them and compares against the
        certificate's aggregate tag.  Empty bitmaps and unknown signers
        fail outright.  A certificate that verified here before is
        answered from its stamp (see the module docstring), an equal
        copy from the verdict cache keyed ``(bitmap, agg_tag, pin)``;
        only a first sight builds the keypair list and serialises.
        """
        mark = self.verified_mark
        if mark is not None and aggregate.__dict__.get("_verified") is mark:
            self.agg_cache_hits += 1
            return True
        signers = aggregate.signers
        if not signers:
            return False
        phase, round_number, digest = aggregate.phase, aggregate.round_number, aggregate.digest
        key = (aggregate.signer_bitmap, aggregate.agg_tag, phase, round_number, digest)
        valid = self._agg_cache.get(key) if mark is not None else None
        if valid is not None:
            self._agg_cache.move_to_end(key)
            self.agg_cache_hits += 1
        else:
            keypairs = []
            for signer in signers:
                keypair = self._keys.get(signer)
                if keypair is None:
                    return False
                keypairs.append(keypair)
            message, _ = self.batch_canonicalize(statement_value(phase, round_number, digest))
            valid = aggregate.agg_tag == aggregate_tag(
                {kp.player_id: self._backend.tag(kp.secret, message) for kp in keypairs}
            )
            if mark is None:
                return valid
            self.agg_cache_misses += 1
            self._agg_cache[key] = valid
            if len(self._agg_cache) > self._cache_size:
                self._agg_cache.popitem(last=False)
        if valid:
            object.__setattr__(aggregate, "_verified", mark)
        return valid

    def aggregate_cache_info(self) -> Dict[str, int]:
        """Hit/miss counters and occupancy of the aggregate-verdict cache."""
        return {
            "hits": self.agg_cache_hits,
            "misses": self.agg_cache_misses,
            "size": len(self._agg_cache),
            "maxsize": self._cache_size,
        }

    def quorum_cache_info(self) -> Dict[str, int]:
        """Hit/miss counters and occupancy of the certificate-verdict memo."""
        return {
            "hits": self.quorum_cache_hits,
            "misses": self.quorum_cache_misses,
            "size": len(self._quorum_cache),
            "maxsize": self._quorum_cache_size(),
        }

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss counters and occupancy of the verification cache."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "size": len(self._cache),
            "maxsize": self._cache_size,
        }
