"""Behaviour must not depend on ``PYTHONHASHSEED``.

Canonical records never showed it, but burn order, the ``fresh`` flags
and which conflicting pair became a ``FraudProof`` used to follow the
iteration order of a ``frozenset`` of statements.  Two interpreters
under different hash seeds run the scenarios that burn the most (plus
two continuous-workload ones) through ``tools/differential.py``'s own
projection and must agree on every section — record, full trace,
chains, proofs, per-type traffic.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = (
    "fork",
    "mixed-collusion",
    "thm5-collusion",
    "closed-loop-prft",
    "poisson-crash-churn",
)


def _sections(hash_seed: str, out: Path) -> dict:
    argv = [sys.executable, str(ROOT / "tools" / "differential.py"),
            "--dump", str(out), "--fuzz", "0"]
    for name in SCENARIOS:
        argv += ["--only", f"catalog/{name}"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    subprocess.run(argv, env=env, check=True, timeout=300)
    return json.loads(out.read_text())


def test_runs_agree_across_hash_seeds(tmp_path):
    first = _sections("1", tmp_path / "seed1.json")
    second = _sections("2", tmp_path / "seed2.json")
    assert sorted(first) == sorted(f"catalog/{name}" for name in SCENARIOS)
    assert any("burn" in line for line in first["catalog/fork"]["trace"])
    for cell, sections in first.items():
        for section, lines in sections.items():
            assert lines == second[cell][section], f"{cell}: {section} differs"
