"""The crypto layer's costs, asserted by counting.

Every receiver of a broadcast, and the post-run oracle, checks the same
frozen statement or aggregate certificate.  The design this pins is
that a signed value is serialised once, when it is signed, and that a
signed object is checked against the trusted setup once per deployment:
the verdict is stamped on the object and read back by everyone after.
Counted with ``sys.setprofile`` and wrappers, never by wall-clock.
"""

import collections
import sys

import pytest

from repro.checks import run_oracle
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
    """Everything the oracle audits was verified by a receiver during
    the run, on the same object: the audit derives no tag and never
    reaches ``KeyRegistry.verify``, yet every check is still counted."""
    scenario = SCENARIOS[name]
    result = scenario.run(seed=0)
    registry = result.ctx.registry
    before = (registry.cache_hits, registry.cache_misses, registry.agg_cache_misses)
    tags, verifies = [], []
    real_tag, real_verify = type(registry.backend).tag, KeyRegistry.verify

    def counting_tag(backend, secret, message):
        tags.append(message)
        return real_tag(backend, secret, message)

    def counting_verify(registry, *args, **kwargs):
        verifies.append(args)
        return real_verify(registry, *args, **kwargs)

    monkeypatch.setattr(type(registry.backend), "tag", counting_tag)
    monkeypatch.setattr(KeyRegistry, "verify", counting_verify)
    report = run_oracle(result, scenario, 0)
    assert report.ok, report.violated_names
    assert (len(tags), len(verifies)) == (0, 0)
    assert registry.cache_hits > before[0]  # the audit did check statements
    assert (registry.cache_misses, registry.agg_cache_misses) == before[1:]


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
