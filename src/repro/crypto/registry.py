"""Trusted-setup key registry (Section 3.3 of the paper).

Before the protocol starts, all players share their public keys via a
trusted broadcast.  The :class:`KeyRegistry` models the result: a map
from player id to verification material that every replica consults
when validating signed messages.  Invalid signatures are discarded at
the ``Recv`` boundary, exactly as the paper's protocol figure assumes.

The registry is also the deployment's verification fast path, and it
has one: the verdict is a property of the signed object.  Every
receiver of a broadcast, and the oracle's audit, holds the *same*
frozen statement or certificate, so the first successful check stamps
it with the registry's :attr:`KeyRegistry.verified_mark` and every
later check of that object reads the stamp back — no serialisation,
no hashing, no lookup.  Anything without the stamp has its tag derived
again from the trusted-setup secret.  The object is frozen, so the
stamp cannot go stale; only ``True`` verdicts are stamped, and a
forged, re-attributed or re-signed copy is another object, so its tag
is derived afresh (and a forgery rejected).  The mark is an inert
``object()`` private to one registry, so a stamp never vouches for an
object under another registry and adds no reference cycle.  A stamp
read counts as a cache hit, a derivation as a cache miss.

One level up, :meth:`KeyRegistry.memoized_quorum` keeps the verdict of
a whole statement-set certificate, keyed by its content, so a
justification broadcast to n receivers is checked member by member
once per deployment, not once per receiver.  With the cache disabled
(``verify_cache_size=0``) nothing is stamped, read or memoized: every
check re-serialises and re-derives, the reference path the fast-path
benchmark and the determinism cross-check compare against.
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
"""Default ``verify_cache_size``: any value > 0 turns the stamps on and
bounds the certificate memo (see :meth:`KeyRegistry.memoized_quorum`)."""

QUORUM_MEMO_PER_PLAYER = 8
"""Certificate verdicts kept per registered player.  A round puts 2n
distinct justifications in flight (one per Commit and per Reveal), so
this holds four rounds' worth — the deepest pipeline window; an older
certificate is simply re-checked through its members' stamps."""


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
        if type(verify_cache_size) is not int or verify_cache_size < 0:
            raise ValueError(
                f"verify_cache_size must be a non-negative int; got {verify_cache_size!r}"
            )
        self._seed = seed
        self._backend = get_backend(backend)
        self._keys: Dict[int, KeyPair] = {}
        # Statement-set certificate verdicts, keyed by the caller's
        # content key (pin + members, tags included).
        self._quorum_cache: "OrderedDict[Hashable, int]" = OrderedDict()
        self._cache_size = verify_cache_size
        # What a signed object carries once it verified here (see the
        # module docstring); None turns the stamps off with the cache.
        self.verified_mark: Optional[object] = object() if verify_cache_size else None
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
        """Whether verdicts are stamped and certificate verdicts memoized."""
        return self._cache_size > 0

    def verify(
        self, signature: Signature, value: Any = None, message: Optional[bytes] = None
    ) -> bool:
        """Check that ``signature`` is a valid signature on ``value``.

        Returns ``False`` for unknown signers or forged tags; protocol
        code treats such messages as if they were never received.  The
        tag is always derived from the trusted-setup secret (stamp
        reads happen in the callers that hold the signed object, e.g.
        :func:`~repro.core.messages.verify_statement`), and with the
        cache enabled each derivation counts as a cache miss.

        ``message`` lets callers that memoize a value's canonical bytes
        (e.g. :class:`~repro.core.messages.SignedStatement`) skip
        re-serialisation; ``value`` may then be omitted.  With the cache
        disabled a given ``value`` is always re-serialised — the
        reference path.
        """
        keypair = self._keys.get(signature.signer)
        if keypair is None:
            return False
        if self._cache_size == 0:
            if value is not None or message is None:
                message = canonical_bytes(value)
        else:
            if message is None:
                message = canonical_bytes(value)
            self.cache_misses += 1
        return signature.tag == self._backend.tag(keypair.secret, message)

    def verify_quorum(self, signatures: Iterable[Signature], value: Any) -> bool:
        """Batch-verify many signatures over one shared ``value``.

        Quorum certificates are exactly this shape — τ signers over the
        same (phase, round, digest) — so the value is serialised once
        for the whole batch and each signature costs one tag
        derivation.  False if any signature fails.
        """
        message = canonical_bytes(value)
        return all(self.verify(signature, value, message=message) for signature in signatures)

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
        (never more than ``verify_cache_size``); with the cache
        disabled nothing is remembered.
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

    def quorum_cache_info(self) -> Dict[str, int]:
        """Hit/miss counters and occupancy of the certificate-verdict memo."""
        return {
            "hits": self.quorum_cache_hits,
            "misses": self.quorum_cache_misses,
            "size": len(self._quorum_cache),
            "maxsize": self._quorum_cache_size(),
        }

    # ------------------------------------------------------------------
    # Aggregate certificates
    # ------------------------------------------------------------------
    def batch_canonicalize(self, value: Any) -> Tuple[bytes, bytes]:
        """Serialise ``value`` once for a whole certificate.

        Returns ``(message_bytes, sha256_digest)`` — the shared input
        every per-signer tag derivation of a certificate check needs,
        and its digest, computed a single time for the batch.
        """
        message = canonical_bytes(value)
        return message, hashlib.sha256(message).digest()

    def verify_aggregate(self, aggregate: AggregateQC) -> bool:
        """Validate a whole aggregate certificate against its own pin.

        A certificate stamped by an earlier check here is answered from
        the stamp (see the module docstring).  Otherwise each bitmap
        member's tag is re-derived from the trusted-setup secrets over
        the certificate's (phase, round, digest) value, canonicalised
        once, the tags are recombined and compared against the
        certificate's aggregate tag, and a valid certificate is
        stamped.  Empty bitmaps and unknown signers fail outright.
        """
        mark = self.verified_mark
        if mark is not None and aggregate.__dict__.get("_verified") is mark:
            self.agg_cache_hits += 1
            return True
        signers = aggregate.signers
        if not signers:
            return False
        keypairs = []
        for signer in signers:
            keypair = self._keys.get(signer)
            if keypair is None:
                return False
            keypairs.append(keypair)
        message, _ = self.batch_canonicalize(
            statement_value(aggregate.phase, aggregate.round_number, aggregate.digest)
        )
        valid = aggregate.agg_tag == aggregate_tag(
            {kp.player_id: self._backend.tag(kp.secret, message) for kp in keypairs}
        )
        if mark is not None:
            self.agg_cache_misses += 1
            if valid:
                object.__setattr__(aggregate, "_verified", mark)
        return valid
