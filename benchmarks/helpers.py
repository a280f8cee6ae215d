"""Shared knobs for the benchmark studies.

The paper's claims are rows of ``benchmarks/claims.py`` (evaluated by
``tests/test_claims.py``), and so is every deterministic virtual-time
number (throughput, the saturation knee, big committees); the
``bench_*.py`` files here are the studies whose numbers are wall-clock
or memory — sweep scaling, the crypto fast path, the soak and the
adversary search.  Run them with
``pytest benchmarks/ --benchmark-only -s`` to see their tables.

``make bench-smoke`` (and the CI bench-smoke job) runs every study
once with timing disabled and exports ``REPRO_BENCH_SMOKE=1``; studies
that expose a size knob shrink to tiny-n configurations and relax
their wall-clock assertions, so the smoke pass only checks that every
study still runs end to end.
"""

import os


def once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


def smoke_mode() -> bool:
    """True when running under ``make bench-smoke`` / the smoke CI job."""
    return os.environ.get("REPRO_BENCH_SMOKE") == "1"
