"""Tests of the benchmark itself (not collected by tier-1):

    PYTHONPATH=src python -m pytest perf -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run as harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """A clock the test advances by hand, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def make_target(clock):
    class Registry:
        def verify(self, ok=True):
            clock.advance(1.0)
            if not ok:
                raise ValueError("forged")
            return True

        def verify_quorum(self, count):
            clock.advance(0.5)
            return all(self.verify() for _ in range(count))

        def handle_payload(self, depth):
            clock.advance(2.0)
            if depth:
                self.handle_payload(depth - 1)

        def audit(self, ok=True):
            return self.verify(ok)

        @classmethod
        def build(cls):
            clock.advance(4.0)
            return cls()

    return Registry


# ----------------------------------------------------------------------
# spans.py
# ----------------------------------------------------------------------
def test_nested_spans_split_self_from_children(clock):
    recorder, Registry = SpanRecorder(clock), make_target(clock)
    recorder.install(Registry, "verify", "crypto")
    recorder.install(Registry, "verify_quorum", "crypto")
    Registry().verify_quorum(3)
    quorum = recorder.fine[("crypto", "Registry.verify_quorum", None)]
    verify = recorder.fine[("crypto", "Registry.verify", "crypto")]
    assert quorum == [1, 3.5, 0.5]  # count, total, self = total - children
    assert verify == [3, 3.0, 3.0]
    assert recorder.self_seconds("crypto") == 3.5
    # Inclusive time counts the outermost span only, not verify again.
    assert recorder.total_seconds("crypto") == 3.5
    assert recorder.calls("crypto", "Registry.verify") == 3


def test_recursive_span_counts_each_second_once(clock):
    recorder, Registry = SpanRecorder(clock), make_target(clock)
    recorder.install(Registry, "handle_payload", "protocols")
    Registry().handle_payload(2)
    assert recorder.calls("protocols") == 3
    assert recorder.self_seconds("protocols") == 6.0
    assert recorder.total_seconds("protocols") == 6.0


def test_parent_layer_is_the_span_that_caused_it(clock):
    recorder, Registry = SpanRecorder(clock), make_target(clock)
    recorder.install(Registry, "verify", "crypto")
    recorder.install(Registry, "audit", "checks", coarse=True)
    Registry().audit()
    assert ("crypto", "Registry.verify", "checks") in recorder.fine
    (audit,) = recorder.coarse
    assert (audit["name"], audit["parent"], audit["self"]) == ("Registry.audit", None, 0.0)
    assert audit["end"] - audit["start"] == 1.0


def test_exception_closes_the_span_and_propagates(clock):
    recorder, Registry = SpanRecorder(clock), make_target(clock)
    recorder.install(Registry, "verify", "crypto")
    recorder.install(Registry, "audit", "checks", coarse=True)
    with pytest.raises(ValueError):
        Registry().audit(ok=False)
    assert recorder._stack == []
    assert recorder.fine[("crypto", "Registry.verify", "checks")] == [1, 1.0, 1.0]
    assert recorder.coarse[0]["self"] == 0.0


def test_after_hook_sees_the_result_outside_the_span(clock):
    recorder, Registry = SpanRecorder(clock), make_target(clock)
    seen = []

    def after(result):
        clock.advance(10.0)
        seen.append(result)

    recorder.install(Registry, "build", "runner", coarse=True, after=after)
    built = Registry.build()
    assert seen == [built] and isinstance(built, Registry)
    assert recorder.total_seconds("runner") == 4.0


def test_uninstall_restores_every_attribute(clock):
    recorder, Registry = SpanRecorder(clock), make_target(clock)
    before = dict(vars(Registry))
    for attr in ("verify", "verify_quorum", "handle_payload", "build"):
        recorder.install(Registry, attr, "x")
    assert all(vars(Registry)[attr] is not before[attr] for attr in ("verify", "build"))
    recorder.uninstall()
    assert dict(vars(Registry)) == before


def test_install_refuses_inherited_and_non_function_attributes(clock):
    recorder, Registry = SpanRecorder(clock), make_target(clock)

    class Child(Registry):
        size = property(lambda self: 1)

    with pytest.raises(AttributeError):
        recorder.install(Child, "verify", "x")
    with pytest.raises(TypeError):
        recorder.install(Child, "size", "x")


def test_instrument_wraps_the_real_layers_and_leaves_no_trace():
    owners = {owner for _, owner, _ in layers.FINE_SPANS}
    before = {owner: dict(vars(owner)) for owner in owners}
    recorder = SpanRecorder()
    layers.instrument(recorder, layers.RunObserver())
    from repro.crypto.registry import KeyRegistry
    from repro.protocols.trap import TrapReplica

    assert hasattr(KeyRegistry.verify, "__wrapped__")
    # Inherited, so wrapped exactly once through PolygraphReplica.
    assert "handle_payload" not in vars(TrapReplica)
    recorder.uninstall()
    assert all(dict(vars(owner)) == before[owner] for owner in owners)
    assert not hasattr(KeyRegistry.verify, "__wrapped__")


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def stats(*values):
    return harness.summarise(list(values))


@pytest.mark.parametrize("a, b, expected", [
    ((1.00, 1.01, 1.02, 1.01, 1.00), (1.02, 1.03, 1.02, 1.04, 1.03), "same"),
    ((1.00, 1.01, 1.02, 1.01, 1.00), (1.20, 1.21, 1.22, 1.21, 1.20), "worse"),
    ((1.00, 1.01, 1.02, 1.01, 1.00), (0.80, 0.81, 0.82, 0.81, 0.80), "better"),
    ((1.00, 1.01, 1.02, 1.01, 1.00), (0.97, 0.98, 0.99, 0.98, 0.97), "better"),
    ((1.00, 1.30, 0.80, 1.25, 0.90), (1.10, 1.40, 0.85, 1.20, 0.95), "unresolved"),
])
def test_verdicts(a, b, expected):
    assert compare.verdict(stats(*a), stats(*b), "lower", 0.10)[1] == expected


def test_verdict_respects_direction():
    a, b = stats(10.0, 10.1, 10.2), stats(8.0, 8.1, 8.2)
    assert compare.verdict(a, b, "higher", 0.10)[1] == "worse"
    assert compare.verdict(b, a, "higher", 0.10)[1] == "better"


def _out_file(sha="abc", run_s=(1.0, 1.01, 1.02), failed=0):
    row = {
        "seed": 0, "record_sha256": sha, "sim_commit_rate": 1.5,
        "ops": 100, "ops_failed": failed,
        "end_to_end": {
            m["name"]: stats(*([2.0] * 3 if m["name"] != "run_s" else run_s))
            for m in CONTRACT["end_to_end"]
        },
    }
    return {"workloads": {"prft-closed-n16": row}}


def test_compare_fails_on_changed_behaviour_regression_or_more_failures():
    base = _out_file()
    assert compare.compare(base, _out_file(), CONTRACT) == []
    assert "record_sha256 changed" in compare.compare(base, _out_file(sha="xyz"), CONTRACT)[0]
    assert "run_s worse" in compare.compare(base, _out_file(run_s=(1.3, 1.31, 1.32)), CONTRACT)[0]
    assert "fails more" in compare.compare(base, _out_file(failed=1), CONTRACT)[0]


# ----------------------------------------------------------------------
# The BENCHMARK.json contract
# ----------------------------------------------------------------------
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_contract_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["perf"] and CONTRACT["command"][-1] == "perf/run.py"
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert len(CONTRACT["workloads"]) == 4
    # The issue listed eight end-to-end metrics; the contract gates each
    # one across seeds on every workload, which the four sim_* metrics
    # cannot meet (README "What the contract changed"): they are
    # declared per-layer as sim.* and compared exactly by compare.py.
    assert [m["name"] for m in CONTRACT["end_to_end"]] == [
        "setup_s", "run_s", "post_s", "peak_rss_mib"
    ]
    assert len(CONTRACT["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_contract_matches_the_code():
    declared = {w["name"]: w["why"] for w in CONTRACT["workloads"]}
    assert declared == {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert [m["name"] for m in CONTRACT["per_layer"]] == list(layers.TARGETS)


def test_every_layer_metric_targets_a_real_metric_on_a_real_workload():
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    known = set(workloads.WORKLOADS) | {"all"}
    for name, targets in layers.TARGETS.items():
        assert targets, name
        for metric, workload in targets:
            assert metric in end_to_end, (name, metric)
            assert workload in known, (name, workload)


def _result_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


def test_a_tenth_scale_run_emits_every_declared_name(tmp_path):
    out = tmp_path / "out.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--repeats", "1", "--scale", "0.1",
         "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = _result_lines(done.stdout)
    assert len(lines) == 4
    declared = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    for line in lines:
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
        for metric in CONTRACT["end_to_end"]:
            assert line["metrics"][metric["name"]]["value"] > 0
    payload = json.loads(out.read_text())
    assert set(payload["workloads"]) == set(workloads.WORKLOADS)
    assert {"git_commit", "python", "nproc", "seed", "scale", "calib_s"} <= set(
        payload["provenance"]
    )
    # A/A on its own output: nothing is worse than itself.
    assert compare.compare(payload, payload, CONTRACT) == []


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "catalog-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert _result_lines(done.stdout) == []
