"""The crypto layer's costs, asserted by counting.

Every receiver of a broadcast, and the oracle's audit of what a replica
keeps, checks the same frozen statement or aggregate certificate.  The design this pins is
that a signed value is serialised once, when it is signed, and that a
signed object is checked against the trusted setup once per deployment:
the verdict is stamped on the object and read back by everyone after.
Counted with ``sys.setprofile`` and wrappers, never by wall-clock.
"""

import collections
import sys

import pytest

from repro.checks import run_oracle
from repro.checks.invariants import QuorumAudit
from repro.crypto.backends import HmacSha256Backend
from repro.crypto.registry import QUORUM_MEMO_PER_PLAYER, KeyRegistry
from repro.experiments.registry import get_scenario

HONEST = get_scenario("honest").with_params(n=4, rounds=2)
SCENARIOS = {
    "prft": HONEST,
    "prft-aggregate": HONEST.with_params(aggregate_certs=True),
    "hotstuff-aggregate": HONEST.with_params(
        protocol="hotstuff", tolerance="bft", aggregate_certs=True
    ),
}


def _is_statement_value(value):
    return isinstance(value, tuple) and len(value) == 4 and value[0] == "prft"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_statement_value_is_serialised_once_per_signing(name):
    """``make_statement`` signs the bytes it serialised and keeps them
    as the statement's ``value_bytes``, so no signature check serialises
    a statement again.  ``expand_aggregate`` serialises its pin once for
    all the signers it re-signs, and a certificate's first check
    serialises its pin once (counted against its derivations below)."""
    made, serialised_by = 0, collections.Counter()

    def profiler(frame, event, arg):
        nonlocal made
        if event != "call":
            return
        called = frame.f_code.co_qualname
        if called == "make_statement":
            made += 1
        elif called == "canonical_bytes" and _is_statement_value(frame.f_locals["value"]):
            serialised_by[frame.f_back.f_code.co_qualname] += 1

    sys.setprofile(profiler)
    try:
        result = SCENARIOS[name].run(seed=0)
    finally:
        sys.setprofile(None)
    assert result.final_block_count() == 2
    signing_sites = {"make_statement", "expand_aggregate"}
    assert set(serialised_by) <= signing_sites | {"KeyRegistry.batch_canonicalize"}
    assert 0 < sum(serialised_by[site] for site in signing_sites) <= made
    if name == "prft":
        assert serialised_by == {"make_statement": made}


@pytest.mark.parametrize("name", ["prft-aggregate", "hotstuff-aggregate"])
def test_a_certificate_is_serialised_once_however_many_receivers_check_it(
    name, monkeypatch
):
    canonicalised = []
    real = KeyRegistry.batch_canonicalize

    def counting(registry, value):
        canonicalised.append(value)
        return real(registry, value)

    monkeypatch.setattr(KeyRegistry, "batch_canonicalize", counting)
    registry = SCENARIOS[name].run(seed=0).ctx.registry
    # receivers re-check every certificate
    assert registry.agg_cache_hits > registry.agg_cache_misses > 0
    assert len(canonicalised) == registry.agg_cache_misses


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_oracle_checks_signatures_without_the_trusted_setup(name, monkeypatch):
    """Everything the oracle audits was verified by a receiver on the
    same object before it was kept.  The quorum-certs fold judges each
    kept statement and aggregate during the run: it derives no tag and
    never reaches ``KeyRegistry.verify``, yet every check is counted.
    The checkers that run after the run derive none either."""
    derived = collections.Counter()  # (what, inside the fold) -> calls
    checks = collections.Counter()  # (fold method, hit or miss) -> count
    inside = []
    real_tag, real_verify = HmacSha256Backend.tag, KeyRegistry.verify

    def counting_tag(backend, secret, message):
        derived["tag", bool(inside)] += 1
        return real_tag(backend, secret, message)

    def counting_verify(registry, *args, **kwargs):
        derived["verify", bool(inside)] += 1
        return real_verify(registry, *args, **kwargs)

    def counted(method):
        real = getattr(QuorumAudit, method)

        def fold(audit, *args):
            registry = audit.registry
            hits = registry.cache_hits + registry.agg_cache_hits
            misses = registry.cache_misses + registry.agg_cache_misses
            inside.append(method)
            try:
                real(audit, *args)
            finally:
                inside.pop()
            checks[method, "hit"] += registry.cache_hits + registry.agg_cache_hits - hits
            checks[method, "miss"] += registry.cache_misses + registry.agg_cache_misses - misses

        return fold

    monkeypatch.setattr(HmacSha256Backend, "tag", counting_tag)
    monkeypatch.setattr(KeyRegistry, "verify", counting_verify)
    for method in ("statement", "aggregate"):
        monkeypatch.setattr(QuorumAudit, method, counted(method))
    scenario = SCENARIOS[name]
    result = scenario.run(seed=0)
    assert (derived["tag", True], derived["verify", True]) == (0, 0)
    assert checks["statement", "hit"] > 0  # the fold did check statements
    assert checks["aggregate", "hit"] > 0 or name != "hotstuff-aggregate"
    assert checks["statement", "miss"] == checks["aggregate", "miss"] == 0

    registry = result.ctx.registry
    derived.clear()
    misses = (registry.cache_misses, registry.agg_cache_misses)
    report = run_oracle(result, scenario, 0)
    assert report.ok, report.violated_names
    assert sum(derived.values()) == 0
    assert (registry.cache_misses, registry.agg_cache_misses) == misses


def test_the_registry_keeps_no_per_check_state():
    """Verdicts live on the signed objects, so what the registry holds
    is bounded by the roster — its keys and the certificate memo — not
    by the number of tags it derived."""
    n = 5
    scenario = get_scenario("lossy-honest").with_params(protocol="pbft", n=n)
    registry = scenario.run(seed=0).ctx.registry
    assert registry.cache_misses > QUORUM_MEMO_PER_PLAYER * n
    held = sum(
        len(value) for value in vars(registry).values() if isinstance(value, (dict, list, set))
    )
    assert held <= n + QUORUM_MEMO_PER_PLAYER * n
