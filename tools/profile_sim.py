#!/usr/bin/env python3
"""Profile a standard simulation run (cProfile) or time it stably.

"No optimization without measuring": this drives the same simulation the
scaling experiments use under cProfile and prints the hottest functions,
so changes to the kernel or the MDS serving path can be judged on data.

Kernel micro-optimisations are judged on *stable* numbers, not one noisy
run: ``--repeat N`` times the run N times (profiler off — cProfile skews
per-call costs) and reports min and median wall time.  ``--parallel`` /
``--serial`` instead drive a ``--seeds``-wide sweep through
``repro.parallel.run_many`` in the chosen mode, timing the whole sweep.

``--breakdown`` buckets the profiled time by subsystem (cProfile module
prefixes): the event *kernel* (``repro.sim``), the metadata *model*
(cache/namespace/mds/partition/model/proxy), and *observability*
(obs/metrics/trace) — the quickest way to see which layer the next
wall-second should come from.

Usage:
    python tools/profile_sim.py [--scale 0.5] [--strategy DynamicSubtree]
    python tools/profile_sim.py --sort tottime --limit 40
    python tools/profile_sim.py --repeat 5
    python tools/profile_sim.py --parallel --seeds 8 --repeat 3
    python tools/profile_sim.py --breakdown
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import statistics
import sys
import time

from repro.api import (run_many, require_ok, run_steady_state,
                       scaling_config)


def _sweep_once(configs, mode):
    t = time.perf_counter()
    results = require_ok(run_many(configs, mode=mode))
    wall = time.perf_counter() - t
    return wall, sum(r.total_ops for r in results)


def _single_once(config):
    t = time.perf_counter()
    result = run_steady_state(config)
    wall = time.perf_counter() - t
    return wall, result.total_ops


#: subsystem buckets for --breakdown, matched against profiled filenames
#: (first match wins; anything unmatched lands in "other")
BREAKDOWN_BUCKETS = (
    ("kernel", ("repro/sim/",)),
    ("model", ("repro/cache/", "repro/namespace/", "repro/mds/",
               "repro/partition/", "repro/model/", "repro/proxy/")),
    ("observability", ("repro/obs/", "repro/metrics/", "repro/trace/")),
)


def _bucket_of(filename: str) -> str:
    norm = filename.replace(os.sep, "/")
    for bucket, prefixes in BREAKDOWN_BUCKETS:
        if any(prefix in norm for prefix in prefixes):
            return bucket
    return "other"


def _print_breakdown(profiler, wall: float) -> None:
    """Fold per-function exclusive (tottime) costs into subsystem buckets.

    Exclusive time is used because it sums to the profiled total;
    cumulative time would double-count every cross-subsystem call.
    """
    stats = pstats.Stats(profiler)
    buckets: dict = {}
    calls: dict = {}
    for (filename, _lineno, _func), entry in stats.stats.items():
        _cc, nc, tt, _ct, _callers = entry
        bucket = _bucket_of(filename)
        buckets[bucket] = buckets.get(bucket, 0.0) + tt
        calls[bucket] = calls.get(bucket, 0) + nc
    total = sum(buckets.values()) or 1.0
    print(f"\nsubsystem breakdown ({wall:.1f}s wall, exclusive time):")
    print(f"{'subsystem':<16}{'time_s':>10}{'share':>9}{'calls':>14}")
    order = [name for name, _ in BREAKDOWN_BUCKETS] + ["other"]
    for bucket in order:
        if bucket not in buckets:
            continue
        tt = buckets[bucket]
        print(f"{bucket:<16}{tt:>10.3f}{tt / total:>8.1%}"
              f"{calls[bucket]:>14}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--strategy", default="DynamicSubtree")
    parser.add_argument("--n-mds", type=int, default=6)
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"])
    parser.add_argument("--limit", type=int, default=25)
    parser.add_argument("--dump", metavar="FILE",
                        help="also write raw stats for snakeviz etc.")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="time N runs (profiler off) and report "
                             "min/median wall time")
    parser.add_argument("--seeds", type=int, default=4,
                        help="sweep width for --parallel/--serial")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--parallel", action="store_true",
                      help="time a --seeds-wide sweep via run_many "
                           "(process pool)")
    mode.add_argument("--serial", action="store_true",
                      help="time the same sweep forced serial in-process")
    parser.add_argument("--breakdown", action="store_true",
                        help="profile one run and report time bucketed "
                             "by subsystem (kernel/model/observability) "
                             "instead of the flat function listing")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.breakdown and (args.parallel or args.serial or args.repeat > 1):
        parser.error("--breakdown profiles a single run; drop "
                     "--parallel/--serial/--repeat")

    config = scaling_config(args.strategy, args.n_mds, args.scale)

    if args.parallel or args.serial:
        sweep_mode = "parallel" if args.parallel else "serial"
        configs = [scaling_config(args.strategy, args.n_mds, args.scale,
                                  seed=42 + 7 * s)
                   for s in range(args.seeds)]
        walls = []
        ops = 0
        for i in range(args.repeat):
            wall, ops = _sweep_once(configs, sweep_mode)
            walls.append(wall)
            print(f"  sweep run {i + 1}/{args.repeat}: {wall:.2f}s")
        _report(walls, ops, f"{len(configs)}-config sweep ({sweep_mode})")
        return 0

    if args.repeat > 1:
        walls = []
        ops = 0
        for i in range(args.repeat):
            wall, ops = _single_once(config)
            walls.append(wall)
            print(f"  run {i + 1}/{args.repeat}: {wall:.2f}s")
        _report(walls, ops, "single run")
        return 0

    profiler = cProfile.Profile()
    wall = time.time()
    profiler.enable()
    result = run_steady_state(config)
    profiler.disable()
    wall = time.time() - wall

    print(f"simulated {result.total_ops} ops "
          f"({result.mean_node_throughput:.0f} ops/s/MDS) "
          f"in {wall:.1f}s wall "
          f"-> {result.total_ops / wall:.0f} simulated ops per wall-second\n")
    if args.breakdown:
        _print_breakdown(profiler, wall)
        if args.dump:
            pstats.Stats(profiler).dump_stats(args.dump)
            print(f"raw profile written to {args.dump}")
        return 0
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"raw profile written to {args.dump}")
    return 0


def _report(walls, total_ops, label) -> None:
    best = min(walls)
    med = statistics.median(walls)
    print(f"{label}: {total_ops} simulated ops")
    print(f"  wall time  min {best:.2f}s   median {med:.2f}s "
          f"({len(walls)} repeats)")
    print(f"  throughput min-wall {total_ops / best:.0f} ops/wall-s   "
          f"median-wall {total_ops / med:.0f} ops/wall-s")


if __name__ == "__main__":
    raise SystemExit(main())
