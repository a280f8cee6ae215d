"""One declaration per axis: guards on the three places an axis appears.

A run axis is a ``Scenario`` field.  The CLI flag table names the field
a flag overrides, one fold hands the field to the frozen sub-spec that
owns (and range-checks) it, and the trace recorder has one storage
mode.  These tests fail when a second declaration creeps back in.
"""

import dataclasses
import re
import typing

import pytest

from repro.cli import RUN_FLAGS, main
from repro.experiments.registry import Scenario
from repro.protocols.spec import CryptoSpec, NetworkSpec, ProductionSpec, RetentionSpec
from repro.sim.trace import TraceRecorder

SCENARIO_TYPES = typing.get_type_hints(Scenario)

RUN_OPTIONS = {
    "--protocol", "-n", "--rounds", "--rational", "--byzantine", "--timeout",
    "--gst", "--seed", "--loss-rate", "--duplicate-rate", "--reorder-jitter",
    "--crash", "--workload", "--rate", "--outstanding", "--burst", "--duration",
    "--pipeline-depth", "--block-txs", "--coalesce-window", "--regions",
    "--region-spread", "--region-jitter", "--trace-window", "--commit-window",
    "--submission-window", "--ledger-window", "--backlog-resolution",
    "--aggregate-certs", "--check",
}


def _accepted_types(hint) -> set:
    """The runtime types a field annotated ``hint`` takes (None aside)."""
    if typing.get_origin(hint) is typing.Union:
        return set().union(*(_accepted_types(arg) for arg in typing.get_args(hint)))
    return {typing.get_origin(hint) or hint} - {type(None)}


class TestFlagTable:
    @pytest.mark.parametrize("option,field,kwargs", RUN_FLAGS, ids=[f[0] for f in RUN_FLAGS])
    def test_flag_names_a_field_of_a_type_it_accepts(self, option, field, kwargs):
        assert field in SCENARIO_TYPES
        if kwargs.get("action") == "store_true":
            produced = bool
        elif kwargs.get("action") == "append":
            produced = tuple  # with_params folds the collected list
        else:
            produced = kwargs.get("type", str)
        assert produced in _accepted_types(SCENARIO_TYPES[field])

    def test_no_field_has_two_flags(self):
        fields = [field for _, field, _ in RUN_FLAGS]
        assert len(fields) == len(set(fields))

    def test_run_options_are_the_thirty_pinned(self, capsys):
        assert len(RUN_OPTIONS) == 30
        assert {option for option, _, _ in RUN_FLAGS} | {"--seed"} == RUN_OPTIONS
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        listed = set(re.findall(r"(?<![\w-])(-n|--[a-z][a-z-]*)", capsys.readouterr().out))
        assert listed - {"--help"} == RUN_OPTIONS


class TestOneFold:
    """Every value-typed sub-spec field is fed by exactly one Scenario
    field: perturb each Scenario axis in turn and see what moves."""

    BASE = Scenario(name="fold", n=7, workload="static", duration=50.0, max_time=400.0)
    #: an off-default value per Scenario field that feeds a sub-spec.
    PERTURBED = {
        "loss_rate": 0.25, "duplicate_rate": 0.5, "reorder_jitter": 0.75,
        "crypto_backend": "fast-sim", "crypto_cache_size": 7, "aggregate_certs": True,
        "pipeline_depth": 3, "max_block_txs": 11, "coalesce_window": 1.5,
        "trace_window": 13, "commit_window": 17, "submission_window": 19,
        "ledger_window": 23, "backlog_resolution": 29, "trace_traffic": True,
        "tx_count": 31, "arrival_rate": 3.5, "outstanding": 6,
        "burst_schedule": ((1.0, 2),),
    }
    WORKLOAD_FEEDS = {  # kind → (WorkloadSpec field, Scenario field)
        "static": ("count", "tx_count"), "poisson": ("rate", "arrival_rate"),
        "closed": ("outstanding", "outstanding"), "burst": ("bursts", "burst_schedule"),
    }

    #: live objects built per seed, not value-typed axes.
    LIVE = {"delay_model", "partitions", "transactions"}

    @classmethod
    def _moved(cls, before, after) -> set:
        return {
            f.name for f in dataclasses.fields(before)
            if f.name not in cls.LIVE and getattr(before, f.name) != getattr(after, f.name)
        }

    def _feeders(self, sub_spec: str, base: Scenario) -> dict:
        """sub-spec field → the Scenario fields that move it."""
        reference = getattr(base.build_run_spec(0), sub_spec)
        feeders: dict = {}
        for field, value in self.PERTURBED.items():
            if field == "tx_count" and base.workload != "static":
                continue  # refused outright on a continuous workload
            changed = getattr(base.with_params(**{field: value}).build_run_spec(0), sub_spec)
            for moved in self._moved(reference, changed):
                feeders.setdefault(moved, []).append(field)
        return feeders

    @pytest.mark.parametrize("sub_spec,owner", [
        ("network", NetworkSpec), ("crypto", CryptoSpec),
        ("production", ProductionSpec), ("retention", RetentionSpec),
    ])
    def test_each_spec_field_has_exactly_one_feeder(self, sub_spec, owner):
        feeders = self._feeders(sub_spec, self.BASE)
        value_typed = {f.name for f in dataclasses.fields(owner)} - self.LIVE
        assert set(feeders) == value_typed
        assert all(len(fields) == 1 for fields in feeders.values()), feeders

    @pytest.mark.parametrize("kind", sorted(WORKLOAD_FEEDS))
    def test_workload_axes(self, kind):
        extra = {"burst_schedule": ((2.0, 3),)} if kind == "burst" else {}
        base = self.BASE.with_params(workload=kind, **extra)
        spec = base.build_run_spec(0).workload
        assert spec.kind == kind
        spec_field, field = self.WORKLOAD_FEEDS[kind]
        # only the selected kind's axis is folded, from its one field
        assert self._feeders("workload", base) == {spec_field: [field]}

    def test_axis_fields_are_unchanged(self):
        assert len(dataclasses.fields(Scenario)) == 55
        assert set(self.PERTURBED) <= set(SCENARIO_TYPES)


class TestOneTraceStorageMode:
    KINDS = ("send", "deliver", "final", "send", "timeout", "deliver", "send")

    @staticmethod
    def _fed(window):
        trace = TraceRecorder(window=window)
        for step in range(70):
            kind = TestOneTraceStorageMode.KINDS[step % 7]
            trace.record(float(step // 3), kind, player=step % 4, step=step)
        return trace

    def test_unbounded_is_the_window_that_never_fills(self):
        unbounded, roomy = self._fed(None), self._fed(70)
        assert [e.detail["step"] for e in unbounded] == list(range(70))
        assert list(unbounded) == list(roomy) == unbounded.events() == roomy.events()
        for kind in ("send", "deliver", "final", "timeout", "absent"):
            assert unbounded.events(kind) == roomy.events(kind)
            assert all(e.kind == kind for e in unbounded.events(kind))
            assert unbounded.count(kind) == roomy.count(kind) == len(unbounded.events(kind))
            assert unbounded.last(kind) == roomy.last(kind)
        assert unbounded.events(("final", "timeout")) == [
            e for e in unbounded if e.kind in ("final", "timeout")
        ]
        for player in range(4):
            assert unbounded.events(player=player) == roomy.events(player=player)
            assert unbounded.events("send", player=player) == roomy.events("send", player=player)
        assert len(unbounded) == len(roomy) == 70
        assert unbounded.dropped() == roomy.dropped() == 0
        assert not unbounded.truncated() and not roomy.truncated()
