"""Behavioural differential between two source trees.

    python tools/differential.py BASE_TREE CHANGE_TREE [--fuzz N]

Runs one fixed set of cells against each tree's ``src/`` (one child
process per tree, ``PYTHONHASHSEED=0``) and compares, cell by cell and
section by section, everything a refactor must not move:

- ``record``   — the canonical ``RunRecord``;
- ``trace``    — every trace event, in record order (kinds, order,
  burn order included);
- ``chains``   — each replica's chain: digest and status of every block;
- ``proofs``   — each replica's constructed fraud proofs;
- ``messages`` — per-message-type send count and bytes.

The cells: every catalog scenario; every ``benchmarks/pin_matrix.json``
shape × the five protocols; the attacked-run set (pRFT's four fork
scenarios plus the Polygraph and TRAP forks, each × ``crypto_cache_size``
∈ {0, default} × aggregate certificates off/on); and N generated fuzz
trials (even indices from the ``safe`` profile, odd from ``wild``).

Exit 0 when every cell agrees; exit 1 naming the first differing cell
and section, with the first differing line of that section from a
re-run of the one cell on both trees.  ``make differential BASE=<rev>``
wraps this with the ``git worktree`` mechanics of ``perf-compare``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SECTIONS = ("record", "trace", "chains", "proofs", "messages")
ATTACKED = (
    ("fork", "prft"),
    ("thm5-collusion", "prft"),
    ("lossy-prft-fork", "prft"),
    ("partition-fork", "prft"),
    ("fork", "polygraph"),
    ("fork", "trap"),
)


# ----------------------------------------------------------------------
# Child side: runs with one tree's src/ on PYTHONPATH.
# ----------------------------------------------------------------------
def _pin_shapes() -> Any:
    """``tests/test_pin_matrix.py`` of *this* checkout: the shape
    definitions are data, the ``repro`` they build on is the child's."""
    spec = importlib.util.spec_from_file_location(
        "pin_shapes", ROOT / "tests" / "test_pin_matrix.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cells(fuzz: int) -> Iterator[Tuple[str, Any, int]]:
    """(name, scenario, seed) for every cell, in a fixed order."""
    from repro.experiments.fuzz import generate_trial
    from repro.experiments.registry import get_scenario, scenario_catalog

    for name, scenario in scenario_catalog().items():
        yield f"catalog/{name}", scenario, 0
    pins = _pin_shapes()
    for shape, protocol in pins.CELLS:
        yield f"pin/{shape}/{protocol}", pins._scenario(shape, protocol), pins.SEED
    for name, protocol in ATTACKED:
        base = get_scenario(name).with_params(protocol=protocol)
        for cache in (0, None):
            for aggregate in (False, True):
                overrides = {"aggregate_certs": aggregate}
                if cache is not None:
                    overrides["crypto_cache_size"] = cache
                label = "default" if cache is None else cache
                yield (
                    f"attacked/{name}/{protocol}/cache={label}/aggregate={int(aggregate)}",
                    base.with_params(**overrides),
                    0,
                )
    for index in range(fuzz):
        profile = ("safe", "wild")[index % 2]
        trial = generate_trial(0, index, profile)
        yield f"fuzz/{profile}/{index}", trial.scenario, trial.seed


def sections(scenario: Any, seed: int) -> Dict[str, List[str]]:
    """One run, projected onto the compared sections (lines of text)."""
    from repro.experiments.results import RunRecord

    result = scenario.run(seed=seed)
    record = RunRecord.from_result(scenario, seed, result).canonical()
    replicas = sorted(result.replicas.items())
    proofs = []
    for pid, replica in replicas:
        detector = getattr(replica, "detector", None)  # accountable protocols only
        if detector is not None:
            for accused, proof in sorted(detector.proofs().items()):
                proofs.append(f"{pid} {accused} {proof.canonical()!r}")
    return {
        "record": [f"{key} {json.dumps(value, sort_keys=True)}" for key, value in sorted(record.items())],
        "trace": [
            f"{event.time!r} {event.kind} {event.player} {json.dumps(event.detail, default=repr)}"
            for event in result.trace.events()
        ],
        "chains": [
            f"{pid} {height} {block.digest} {block.digest in final}"
            for pid, replica in replicas
            for final in [{b.digest for b in replica.chain.final_blocks()}]
            for height, block in enumerate(replica.chain.blocks())
        ],
        "proofs": proofs,
        "messages": [
            f"{kind} {count} {size}"
            for kind, (count, size) in sorted(result.metrics.by_type().items())
        ],
    }


def dump(fuzz: int, only: str, out: str) -> None:
    """Write {cell: {section: sha256}} — or, for one cell, its lines."""
    table: Dict[str, Any] = {}
    for name, scenario, seed in cells(fuzz):
        if only and name != only:
            continue
        found = sections(scenario, seed)
        table[name] = found if only else {
            section: hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for section, lines in found.items()
        }
    Path(out).write_text(json.dumps(table))


# ----------------------------------------------------------------------
# Parent side: one child per tree, then the comparison.
# ----------------------------------------------------------------------
def _spawn(tree: Path, fuzz: int, only: str, out: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--dump", str(out),
         "--fuzz", str(fuzz), "--only", only],
        env=env,
    )


def _dump_both(trees: List[Path], fuzz: int, only: str, tmp: Path) -> List[Dict[str, Any]]:
    outs = [tmp / f"{side}{'-cell' if only else ''}.json" for side in ("base", "change")]
    children = [_spawn(tree, fuzz, only, out) for tree, out in zip(trees, outs)]
    if any([child.wait() for child in children]):
        raise SystemExit("differential: a child run failed")
    return [json.loads(out.read_text()) for out in outs]


def compare(base_tree: Path, change_tree: Path, fuzz: int) -> int:
    trees = [base_tree, change_tree]
    with tempfile.TemporaryDirectory() as scratch:
        tmp = Path(scratch)
        base, change = _dump_both(trees, fuzz, "", tmp)
        if list(base) != list(change):
            print("differential: the two trees ran different cell sets")
            return 1
        for name in base:
            for section in SECTIONS:
                if base[name][section] == change[name][section]:
                    continue
                print(f"differential: {name} differs in section '{section}'")
                old, new = (table[name][section] for table in _dump_both(trees, fuzz, name, tmp))
                for index in range(max(len(old), len(new))):
                    before = old[index] if index < len(old) else "<end>"
                    after = new[index] if index < len(new) else "<end>"
                    if before != after:
                        print(f"  line {index}:\n    base:   {before[:400]}\n    change: {after[:400]}")
                        break
                return 1
        print(f"differential: {len(base)} cells x {len(SECTIONS)} sections identical")
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="BASE_TREE CHANGE_TREE")
    parser.add_argument("--fuzz", type=int, default=200, help="generated fuzz trials")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    parser.add_argument("--only", default="", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        dump(args.fuzz, args.only, args.dump)
        return 0
    if len(args.trees) != 2:
        parser.error("need BASE_TREE and CHANGE_TREE")
    return compare(args.trees[0].resolve(), args.trees[1].resolve(), args.fuzz)


if __name__ == "__main__":
    sys.exit(main())
