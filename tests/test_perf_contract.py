"""The frozen benchmark's view of ``src/``, checked in tier-1.

``perf/`` and ``BENCHMARK.json`` are the driver's contract: they wrap
named attributes of ``src/`` classes from outside and read counters off
a finished run's public state, and no ordinary PR may edit them.  A
refactor that renames, moves or re-types one of those names is only
found out by ``pytest perf`` / ``make perf-smoke`` — outside the tier-1
command — or by the benchmark pipeline itself.  These tests import
``perf/layers.py`` and ``perf/spans.py`` by path (``conftest.perf_layers``,
editing neither) and fail here instead.
"""

import inspect
import json
from pathlib import Path

from repro.experiments.registry import get_scenario

ROOT = Path(__file__).resolve().parent.parent


def test_every_fine_span_is_a_function_its_owner_defines(perf_layers):
    for _, owner, attrs in perf_layers.FINE_SPANS:
        for attr in attrs:
            assert attr in vars(owner), f"{owner.__name__} does not define {attr}"
            target = vars(owner)[attr]
            if isinstance(target, classmethod):
                target = target.__func__
            assert inspect.isfunction(target), f"{owner.__name__}.{attr} is {type(target)}"


def test_a_traced_run_feeds_every_declared_layer_metric(perf_layers):
    layers, SpanRecorder = perf_layers, perf_layers.SpanRecorder
    owners = {owner for _, owner, _ in layers.FINE_SPANS}
    before = {owner: dict(vars(owner)) for owner in owners}
    recorder, observer = SpanRecorder(), layers.RunObserver()
    layers.instrument(recorder, observer)
    try:
        # ``Deployment.execute`` is wrapped with ``after=observer.observe``.
        result = get_scenario("honest").with_params(n=4, rounds=1).run()
    finally:
        recorder.uninstall()
    assert all(dict(vars(owner)) == before[owner] for owner in owners)

    assert observer.totals["events"] == result.ctx.engine.events_processed > 0
    assert observer.totals["msgs"] == result.metrics.total_messages > 0
    assert observer.totals["trace_records"] == len(result.ctx.trace)
    # The one fan-out is the benchmark's ``Network.broadcast`` span: one
    # per replica broadcast, every envelope through ``send`` inside it.
    assert recorder.calls("net.network", "Network.broadcast") > 0
    assert recorder.calls("net.network", "Network.send") == result.metrics.total_messages
    assert recorder.calls("net.faults", "LinkPipeline.transmit") == result.metrics.total_messages

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = layers.layer_metrics(recorder, observer, 1.0, 1.0)
    assert list(metrics) == [metric["name"] for metric in declared]
