"""One repeat of one workload, in a fresh process.

``run.py`` starts this once per repeat so that every repeat pays its
own imports, catalog registration and cold caches, and so that
``ru_maxrss`` is the repeat's own.  Prints one JSON object on stdout.

With ``--untraced-run-s`` the repeat is *traced*: the span wrappers of
:mod:`layers` are installed around the same three phases, and the
per-layer metrics are computed against the given untraced ``run_s``.
"""

import time

_START = time.perf_counter()  # setup_s starts at the first statement

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--untraced-run-s", type=float, default=None)
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    recorder = observer = None
    if args.untraced_run_s is not None:
        import layers
        from spans import SpanRecorder

        recorder, observer = SpanRecorder(), layers.RunObserver()
        layers.instrument(recorder, observer)

    prepared = workload.prepare(args.scale, args.seed)
    ready = time.perf_counter()
    outcome = workload.run(prepared, args.seed)
    ran = time.perf_counter()
    # A traced repeat audits once, so span counts are those of one pass.
    report = workload.post(
        prepared, outcome, args.seed,
        repetitions=1 if recorder is not None else workload.post_repetitions,
    )
    report.update(
        setup_s=ready - _START,
        run_s=ran - ready,
        # Linux reports ru_maxrss in KiB.
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if recorder is not None:
        recorder.uninstall()
        report["per_layer"] = layers.layer_metrics(
            recorder, observer, args.untraced_run_s, report["run_s"]
        )
        report["spans"] = recorder.export()
    report["definition"] = workload.definition(args.scale)
    json.dump(report, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
