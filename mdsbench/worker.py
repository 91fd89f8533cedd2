"""One benchmark repetition: build and run one simulation, print a JSON line.

Run by ``run.py`` in a fresh interpreter per repetition, so the import and
build it times are cold and its peak RSS is its own::

    PYTHONPATH=src python3 mdsbench/worker.py --workload scaling --seed 42

``--traced`` installs the per-layer span wrappers (``tracing.py``) before
the build and removes them after the run; ``--spans PATH`` writes the
span aggregates and kept spans there as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import tracing
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--tiny", action="store_true",
                        help="a seconds-long version of the workload")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro.api as api
    imported = time.perf_counter()

    workload = workloads.WORKLOADS[args.workload]
    config = (workload.tiny if args.tiny else workload.config)(api, args.seed)
    recorder = tracing.SpanRecorder() if args.traced else None
    installed = tracing.install(recorder) if recorder is not None else []
    try:
        build_start = time.perf_counter()
        sim = api.build_simulation(config)
        built = time.perf_counter()
        if recorder is not None:
            # the wrappers must be in place before the build, which starts
            # the generators, but the per-layer split is of the run alone
            recorder.reset()
        sim.run_to(config.run_until_s)
        ran = time.perf_counter()
    finally:
        tracing.uninstall(installed)
    summary = sim.summary()

    result = {
        "import_s": imported - start,
        "build_s": built - build_start,
        "run_s": ran - built,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "fingerprint": workloads.fingerprint(summary),
        "backends": workloads.backends(summary),
        "sim": workloads.measure(sim, summary),
    }
    if recorder is not None:
        result["layers_self_s"] = recorder.layer_self_s()
        result["authority_calls"] = sum(
            int(calls) for name, (calls, _t, _s) in recorder.totals.items()
            if name.endswith(".authority_of_ino"))
        result["cluster_submits"] = recorder.calls("MdsCluster.submit")
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fp:
                json.dump(recorder.dump(), fp)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
