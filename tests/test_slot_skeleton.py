"""Structural contract of the slot skeleton, the wire layer and the
phase-table driver.

``BaseReplica`` owns the slot lifecycle; the concrete replicas define
only their protocol pieces.  The frozen host-time benchmark (``perf/``)
wraps ``handle_payload`` and the timeout callback *on each concrete
class* and refuses names that are merely inherited, and its timeout
spans only fire if the slot timer looks the callback up on the
instance — so both facts are pinned here, in tier-1, rather than found
out in the benchmark pipeline.

The second half pins that each mechanism exists once: what a message
says about itself lives on the wire base, an envelope is described in
one place, the receive-boundary check, the fraud detector and the
sign-once gate each have one home, the phase-table driver gives all
five protocols one quorum loop and one retransmission loop, and pRFT
and the pBFT family share one view change.
"""

import ast
from pathlib import Path

import pytest

from repro.core.replica import PRFTReplica
from repro.experiments.registry import get_scenario
from repro.protocols.base import BaseReplica
from repro.protocols.hotstuff import (
    HotStuffReplica, HsCertificateMessage, HsNewView, HsProposal, HsVote,
)
from repro.protocols.pbft import PBFTReplica
from repro.protocols.phases import PhaseTableReplica, ViewChangeReplica
from repro.protocols.polygraph import PolygraphReplica
from repro.protocols.trap import TrapReplica

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
#: Where messages and replicas are written.
REPLICA_CODE = sorted(
    [SRC / "core" / "replica.py", *(SRC / "protocols").glob("*.py")]
)
WIRE_CODE = sorted([*(SRC / "core").glob("*.py"), *(SRC / "protocols").glob("*.py")])
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
def fine_spans(perf_layers):
    """``perf/layers.py::FINE_SPANS``, read from the frozen benchmark."""
    return perf_layers.FINE_SPANS


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


# ----------------------------------------------------------------------
# One wire layer, one phase table
# ----------------------------------------------------------------------
def _scoped(path):
    """(node, enclosing class name, enclosing function name) for every
    node of the module at ``path``."""
    found = []

    def visit(node, cls, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((child, cls, func))
                visit(child, cls, child.name)
            else:
                found.append((child, cls, func))
                visit(child, cls, func)

    visit(ast.parse(path.read_text()), None, None)
    return found


def _calls(path, name):
    """(class, function) scopes of every call to ``name`` in ``path``."""
    return [
        (cls, func)
        for node, cls, func in _scoped(path)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    ]


def test_messages_describe_themselves_on_the_wire_base():
    """``size_bytes`` / ``round_number`` / ``digest`` are computed on
    the wire base; besides it only the three things a message is made
    of size or place themselves."""
    owners = {
        (path.name, cls, node.name)
        for path in WIRE_CODE
        for node, cls, _ in _scoped(path)
        if isinstance(node, ast.FunctionDef)
        and node.name in ("size_bytes", "round_number", "digest")
    }
    assert owners == {
        ("messages.py", "WireMessage", "size_bytes"),
        ("messages.py", "WireMessage", "round_number"),
        ("messages.py", "WireMessage", "digest"),
        ("messages.py", "SignedStatement", "size_bytes"),
        ("hotstuff.py", "QuorumCertificate", "size_bytes"),
        # Evidence, not a message: a proof is its two statements.
        ("pof.py", "FraudProof", "size_bytes"),
        ("pof.py", "FraudProof", "round_number"),
    }


def test_an_envelope_is_described_in_one_place():
    """No caller spells a message's type, size or round, or builds an
    ``Envelope``: replicas hand ``Network.broadcast`` a plan, and the
    only ``Envelope(`` calls and ``message_type=`` keywords are the
    network layer's own."""
    outside_net = [path for path in sorted(SRC.rglob("*.py")) if path.parent.name != "net"]
    for path in outside_net:
        assert _calls(path, "Envelope") == [], path.name
        assert not any(
            isinstance(node, ast.keyword) and node.arg == "message_type"
            for node, _, _ in _scoped(path)
        ), path.name
    assert _calls(SRC / "net" / "network.py", "Envelope") == [("Network", "broadcast")]
    assert ("BaseReplica", "_send_plan") in _calls(SRC / "protocols" / "base.py", "broadcast")


def test_receive_boundary_check_has_one_home():
    sites = {
        (path.name, cls, func)
        for path in REPLICA_CODE
        for cls, func in _calls(path, "verify_statement")
    }
    assert sites == {
        ("base.py", "BaseReplica", "_valid"),
        # A forwarded certificate's leader attestation names its own signer.
        ("hotstuff.py", "HotStuffReplica", "_attested"),
    }
    for name in ("_valid_statement", "_justification_valid"):
        assert not any(hasattr(cls, name) for cls in CONCRETE + (TrapReplica,))


def test_fraud_detector_and_sign_once_gate_have_one_home():
    constructed = [
        (path.name, cls, func)
        for path in sorted(SRC.rglob("*.py"))
        for cls, func in _calls(path, "FraudDetector")
    ]
    assert constructed == [("base.py", "AccountableMixin", "__init__")]
    double_votes = sorted(
        (path.name, func)
        for path in REPLICA_CODE
        for cls, func in _calls(path, "double_votes")
    )
    # The driver's gate (HotStuff's votes included), and pRFT's
    # fabricated vote against a lone proposal.
    assert double_votes == [("phases.py", "_may_sign"), ("replica.py", "_on_proposal")]
    for cls in (PRFTReplica, PolygraphReplica, TrapReplica):
        own = set(vars(cls))
        assert not own & {"_absorb", "_absorb_justification", "detector", "__init__"}
    assert "_punish" not in vars(PRFTReplica) and "_punish" not in vars(PolygraphReplica)


def test_every_protocol_has_one_quorum_loop_and_one_retransmission():
    family = (PRFTReplica, PBFTReplica, HotStuffReplica, PolygraphReplica, TrapReplica)
    for cls in family:
        assert issubclass(cls, PhaseTableReplica)
        assert "_retransmit_round" not in vars(cls)
        for gone in ("_on_vote", "_on_reveal", "_on_prepare", "_on_commit", "_on_phase"):
            assert gone not in vars(cls), f"{cls.__name__}.{gone}"
        phase_handlers = {cls._HANDLERS[row.wire] for row in cls.PHASES}
        assert phase_handlers == {"_on_phase"}
    definitions = [
        path.name
        for path in sorted(SRC.rglob("*.py"))
        for node, _, _ in _scoped(path)
        if isinstance(node, ast.FunctionDef) and node.name == "_retransmit_round"
    ]
    # The abstract hook and the driver's.
    assert definitions == ["base.py", "phases.py"]


def test_hotstuff_is_relay_rows_without_a_view_change():
    assert all(row.relay for row in HotStuffReplica.PHASES)
    assert not any(row.relay for cls in (PRFTReplica, PBFTReplica, PolygraphReplica)
                   for row in cls.PHASES)
    for gone in ("_propose", "_send_to_leader", "_on_proposal", "_vote"):
        assert gone not in vars(HotStuffReplica), gone
    # The handler table is the driver's, built from the vocabulary.
    assert HotStuffReplica._HANDLERS == {
        HsProposal: "_on_proposal", HsVote: "_on_phase",
        HsCertificateMessage: "_on_certificate", HsNewView: "_on_newview",
    }
    # HotStuff paces rounds by timeout: none of the view change is its.
    assert not issubclass(HotStuffReplica, ViewChangeReplica)
    assert "_on_view_change" not in HotStuffReplica._HANDLERS.values()
    for cls in (PRFTReplica, PBFTReplica, PolygraphReplica, TrapReplica):
        assert issubclass(cls, ViewChangeReplica)


def test_the_view_change_is_written_once():
    """The view-change vote, its n − t0 quorum and the catch-up are the
    driver's; pRFT only says what its vote signs and carries, what a
    quorum does (its CommitView step) and what proves a left round."""
    defined = {
        name: [
            (path.name, cls)
            for path in sorted(SRC.rglob("*.py"))
            for node, cls, _ in _scoped(path)
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        for name in ("_send_view_change", "_on_view_change", "_view_change_quorum")
    }
    for name, sites in defined.items():
        assert sites == [("phases.py", "ViewChangeReplica")], (name, sites)
    for name in (
        "_send_view_change", "_on_view_change", "_initiate_view_change",
        "_view_change_quorum", "_offer_catch_up",
    ):
        assert name not in vars(PRFTReplica), name
    for cls in (PBFTReplica, PolygraphReplica, TrapReplica):
        own = set(vars(cls))
        assert not own & {"_on_view_change_quorum", "_offer_catch_up", "_view_change_digest"}

    def ident(node):
        return getattr(node, "id", getattr(node, "attr", None))

    n_minus_t0 = [
        (path.name, cls, func)
        for path in sorted(SRC.rglob("*.py"))
        for node, cls, func in _scoped(path)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
        and ident(node.left) == "n" and ident(node.right) == "t0"
        and cls != "ProtocolConfig"  # τ's default and Claim 1's window
    ]
    assert n_minus_t0 == [("phases.py", "ViewChangeReplica", "_view_change_quorum")]
