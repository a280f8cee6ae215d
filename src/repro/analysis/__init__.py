"""Checkers and reports: the paper's definitions, made executable.

- :mod:`~repro.analysis.robustness` — Definition 1's (t,k)-robustness
  ((t,k)-validity, agreement, c-strict ordering, eventual liveness)
  and Definition 2/3's censorship resistance, evaluated over a
  :class:`~repro.protocols.runner.RunResult`;
- :mod:`~repro.analysis.accountability` — Definition 6: every guilty
  verdict is backed by a verifying Proof-of-Fraud, and no honest
  player is ever accused;
- :mod:`~repro.analysis.complexity` — per-round message counts and
  byte sizes with fitted growth exponents (the Figure-3 table);
- :mod:`~repro.analysis.report` — plain-text table rendering used by
  the claim rows and benchmark studies to print paper-shaped output.
"""

from repro.analysis.accountability import AccountabilityReport, check_accountability
from repro.analysis.complexity import ComplexityMeasurement, measure_complexity
from repro.analysis.report import render_table
from repro.analysis.robustness import RobustnessReport, check_robustness

__all__ = [
    "AccountabilityReport",
    "ComplexityMeasurement",
    "RobustnessReport",
    "check_accountability",
    "check_robustness",
    "measure_complexity",
    "render_table",
]
