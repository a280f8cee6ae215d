"""Behavioural differential between two source trees.

    python tools/differential.py BASE_TREE CHANGE_TREE [--fuzz N]

Runs one fixed set of cells against each tree's ``src/`` (one child
process per tree and hash seed) and compares, cell by cell and section
by section, everything a refactor must not move:

- ``record``   — the canonical ``RunRecord``;
- ``trace``    — every trace event, in record order (kinds, order,
  burn order included), network traffic too: each cell runs with
  ``trace_traffic`` set on a tree that has the field;
- ``chains``   — each replica's chain: digest and status of every block;
- ``proofs``   — each replica's constructed fraud proofs;
- ``messages`` — per-message-type send count and bytes.

The cells: every catalog scenario; every ``benchmarks/pin_matrix.json``
shape × the five protocols; the attacked-run set (pRFT's four fork
scenarios plus the ``fork`` entry against each other protocol, each ×
``crypto_cache_size`` ∈ {0, default} × aggregate certificates off/on);
and N generated fuzz trials (even indices from the ``safe`` profile,
odd from ``wild``).

Both trees run under ``PYTHONHASHSEED=0`` for the BASE-vs-CHANGE
comparison, then again under ``PYTHONHASHSEED=1``: a tree whose two
runs disagree leaks set/dict hash order into its behaviour.  CHANGE
disagreeing with itself fails; BASE doing so is only reported (that bug
is the parent's).

Exit 0 when every cell agrees; exit 1 after naming *every* differing
(cell, section) pair, each with the first differing line of that
section from a re-run of the differing cells.  ``make differential
BASE=<rev>`` wraps this with the ``git archive`` extraction of
``perf-compare``.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    ("fork", "pbft"),
    ("fork", "hotstuff"),
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

    # The trace section compares traffic too; a tree whose trace keeps
    # every event has no field to ask for it with.
    if any(field.name == "trace_traffic" for field in dataclasses.fields(scenario)):
        scenario = scenario.with_params(trace_traffic=True)
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


def dump(fuzz: int, only: List[str], out: str) -> None:
    """Write {cell: {section: sha256}} — or, for the ``only`` cells,
    their lines."""
    table: Dict[str, Any] = {}
    for name, scenario, seed in cells(fuzz):
        if only and name not in only:
            continue
        found = sections(scenario, seed)
        table[name] = found if only else {
            section: hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for section, lines in found.items()
        }
    Path(out).write_text(json.dumps(table))


# ----------------------------------------------------------------------
# Parent side: one child per (tree, hash seed), then the comparisons.
# ----------------------------------------------------------------------
Run = Tuple[str, Path, str]  # (label, tree, PYTHONHASHSEED)


def _dump_pair(runs: List[Run], fuzz: int, only: List[str], tmp: Path) -> List[Dict[str, Any]]:
    """The two runs' tables, from two concurrent children."""
    outs = [tmp / f"{label}-{hash_seed}-{len(only)}.json" for label, _, hash_seed in runs]
    children = [
        subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--dump", str(out),
             "--fuzz", str(fuzz), *(arg for name in only for arg in ("--only", name))],
            env=dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=hash_seed),
        )
        for (_, tree, hash_seed), out in zip(runs, outs)
    ]
    if any([child.wait() for child in children]):
        raise SystemExit("differential: a child run failed")
    return [json.loads(out.read_text()) for out in outs]


def _report(left: Run, right: Run, tables: Dict[Run, Any], fuzz: int, tmp: Path) -> int:
    """Print every (cell, section) on which the two runs differ, with
    its first differing line; return how many there are."""
    names = [f"{label}@{hash_seed}" for label, _, hash_seed in (left, right)]
    old, new = tables[left], tables[right]
    differing = [
        (name, section) for name in old for section in SECTIONS
        if old[name][section] != new[name][section]
    ]
    if differing:
        old, new = _dump_pair([left, right], fuzz, sorted({name for name, _ in differing}), tmp)
    for name, section in differing:
        print(f"differential: {name} differs in section '{section}' ({names[0]} vs {names[1]})")
        before, after = old[name][section], new[name][section]
        for index in range(max(len(before), len(after))):
            was = before[index] if index < len(before) else "<end>"
            now = after[index] if index < len(after) else "<end>"
            if was != now:
                print(f"  line {index}:\n    {names[0]}: {was[:400]}\n    {names[1]}: {now[:400]}")
                break
    return len(differing)


def compare(base_tree: Path, change_tree: Path, fuzz: int) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        tmp = Path(scratch)
        base, change = ("base", base_tree, "0"), ("change", change_tree, "0")
        base_reseeded, change_reseeded = ("base", base_tree, "1"), ("change", change_tree, "1")
        tables: Dict[Run, Any] = {}
        for pair in ([base, change], [base_reseeded, change_reseeded]):
            tables.update(zip(pair, _dump_pair(pair, fuzz, [], tmp)))
        if list(tables[base]) != list(tables[change]):
            print("differential: the two trees ran different cell sets")
            return 1
        moved = _report(base, change, tables, fuzz, tmp)
        leaked = _report(change, change_reseeded, tables, fuzz, tmp)
        inherited = _report(base, base_reseeded, tables, fuzz, tmp)
        if inherited:
            print(f"differential: BASE disagrees with itself across hash seeds on "
                  f"{inherited} (cell, section) pairs (reported, not fatal)")
        if leaked:
            print(f"differential: CHANGE disagrees with itself across hash seeds on "
                  f"{leaked} (cell, section) pairs: hash order leaks into behaviour")
        if moved:
            print(f"differential: BASE and CHANGE differ on {moved} (cell, section) pairs")
        if moved or leaked:
            return 1
        print(f"differential: {len(tables[base])} cells x {len(SECTIONS)} sections identical, "
              f"and CHANGE agrees with itself across hash seeds")
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="BASE_TREE CHANGE_TREE")
    parser.add_argument("--fuzz", type=int, default=200, help="generated fuzz trials")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    parser.add_argument("--only", action="append", default=[], help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        dump(args.fuzz, args.only, args.dump)
        return 0
    if len(args.trees) != 2:
        parser.error("need BASE_TREE and CHANGE_TREE")
    return compare(args.trees[0].resolve(), args.trees[1].resolve(), args.fuzz)


if __name__ == "__main__":
    sys.exit(main())
