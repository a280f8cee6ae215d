"""Structural contract of the slot skeleton.

``BaseReplica`` owns the slot lifecycle; the concrete replicas define
only their protocol pieces.  The frozen host-time benchmark (``perf/``)
wraps ``handle_payload`` and the timeout callback *on each concrete
class* and refuses names that are merely inherited, and its timeout
spans only fire if the slot timer looks the callback up on the
instance — so both facts are pinned here, in tier-1, rather than found
out in the benchmark pipeline.
"""

import ast
import sys
from pathlib import Path

import pytest

from repro.core.replica import PRFTReplica
from repro.experiments.registry import get_scenario
from repro.protocols.base import BaseReplica
from repro.protocols.hotstuff import HotStuffReplica
from repro.protocols.pbft import PBFTReplica
from repro.protocols.polygraph import PolygraphReplica
from repro.protocols.trap import TrapReplica

ROOT = Path(__file__).resolve().parent.parent
CONCRETE = (PRFTReplica, PBFTReplica, HotStuffReplica, PolygraphReplica)
LIFECYCLE = (
    "start",
    "current_leader",
    "_init_volatile_state",
    "_start_round",
    "_open_pipelined_round",
    "_arm_round_timer",
    "_advance",
    "round_state",
)


@pytest.fixture(scope="module")
def fine_spans():
    """``perf/layers.py::FINE_SPANS``, read from the frozen benchmark."""
    sys.path.insert(0, str(ROOT / "perf"))
    try:
        import layers
    finally:
        sys.path.remove(str(ROOT / "perf"))
    return layers.FINE_SPANS


@pytest.mark.parametrize("name", LIFECYCLE)
def test_lifecycle_is_defined_once_on_the_base(name):
    assert name in vars(BaseReplica)
    for cls in CONCRETE + (TrapReplica,):
        assert name not in vars(cls), f"{cls.__name__} redefines {name}"
    definitions = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    assert len(definitions) == 1, definitions


def test_benchmark_wrap_list_names_are_own_attributes(fine_spans):
    wrapped = {
        owner: attrs for _, owner, attrs in fine_spans
        if isinstance(owner, type) and issubclass(owner, BaseReplica)
    }
    assert set(CONCRETE) <= set(wrapped)
    for owner, attrs in wrapped.items():
        for attr in attrs:
            assert attr in vars(owner), f"{owner.__name__}.{attr} is not its own"
    for cls in CONCRETE:
        assert "handle_payload" in wrapped[cls]
        assert any("timeout" in attr for attr in wrapped[cls])


def test_trap_is_only_the_punish_delta():
    own = {name for name, value in vars(TrapReplica).items() if callable(value)}
    assert own == {"_punish"}


@pytest.mark.parametrize(
    "protocol,cls,callback",
    [
        ("prft", PRFTReplica, "_on_round_timeout"),
        ("pbft", PBFTReplica, "_on_timeout"),
        ("hotstuff", HotStuffReplica, "_on_timeout"),
        ("polygraph", PolygraphReplica, "_on_timeout"),
    ],
)
def test_slot_timer_reaches_a_wrapped_class_callback(monkeypatch, protocol, cls, callback):
    """A wrapper installed on the class after replicas exist (what
    ``perf/spans.py::install`` does) must see every timer firing."""
    fired = []
    original = vars(cls)[callback]

    def wrapper(self, round_number):
        fired.append(round_number)
        return original(self, round_number)

    monkeypatch.setattr(cls, callback, wrapper)
    result = get_scenario("liveness").with_params(protocol=protocol).run(seed=0)
    assert fired
    if protocol == "prft":
        assert len(fired) == result.ctx.trace.count("timeout")
