"""``tools/perf_pairs.py``'s verdicts, on hand-made pair reports.

``make perf-compare`` fails a change on a ``worse`` end-to-end metric
only when ten pairs confirm it: CHANGE's median worse than BASE's by
more than the metric's ``BENCHMARK.json`` bound.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", ROOT / "tools" / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reports(base, change):
    return {
        side: [{"setup_s": value, "record_sha256": "0" * 64} for value in values]
        for side, values in (("base", base), ("change", change))
    }


METRIC = [m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
          if m["name"] == "setup_s"]


def test_a_median_worse_by_more_than_the_bound_is_confirmed():
    bound = METRIC[0]["bound"]
    base = [1.0, 0.9, 1.1, 1.0]
    lines, worse = perf_pairs().table("w", reports(base, [1.0 + bound + 0.05] * 4), METRIC)
    assert worse == ["w setup_s"]
    assert lines[-1].endswith("yes")


def test_one_slow_pair_or_a_loss_inside_the_bound_is_not():
    bound = METRIC[0]["bound"]
    base = [1.0, 0.9, 1.1, 1.0]
    one_slow = [1.0, 0.9, 1.1, 1.0 + 3 * bound]
    inside = [1.0 + bound / 2] * 4
    for change in (one_slow, inside):
        lines, worse = perf_pairs().table("w", reports(base, change), METRIC)
        assert worse == [] and lines[-1].endswith("no")
