"""Trace-oracle invariant checking.

The checks layer turns the paper's trace-level guarantees — agreement
and validity under RFT(t, k) (Theorems 4-5), accountability of
deviators via Proofs-of-Fraud and collateral burn exactly for provable
fraud (Definition 6, Claim 1) — into machine-checkable invariants over
any finished :class:`~repro.protocols.runner.RunResult`.

Two modules::

    invariants — the checker library (one class per invariant)
    oracle     — applicability expectations, the oracle runner, reports

The oracle is protocol-agnostic: it consumes only the public artifacts
of a run (honest chains, the trace, the collateral registry, fraud
proofs held by honest replicas, quorum evidence as a replica stores
it) plus the declarative scenario that produced it.
``Scenario.check_invariants`` (a sweep axis like any other) threads it
through ``Scenario.run``, every sweep worker and the CLI; the
deterministic scenario fuzzer (:mod:`repro.experiments.fuzz`) drives it
across thousands of generated deployments.
"""

from repro.checks.invariants import (
    CHECKER_PAPER_REFS,
    InvariantChecker,
    Violation,
    default_checkers,
)
from repro.checks.oracle import (
    CheckVerdict,
    Expectations,
    OracleReport,
    derive_expectations,
    run_oracle,
)

__all__ = [
    "CHECKER_PAPER_REFS",
    "InvariantChecker",
    "Violation",
    "default_checkers",
    "CheckVerdict",
    "Expectations",
    "OracleReport",
    "derive_expectations",
    "run_oracle",
]
