#!/usr/bin/env python3
"""Benchmark the parallel sweep executor and write ``BENCH_parallel.json``.

Runs a Fig. 2-style scaling sweep (strategies × cluster sizes × seeds)
twice — forced serial, then through the process pool — verifies the two
produce identical results, and times one standalone simulation for the
single-run simulated-ops/sec number the kernel optimisations are judged
on.  Everything lands in a JSON report:

* ``sweep.serial_s`` / ``sweep.parallel_s`` / ``sweep.speedup`` — sweep
  wall-clock in each mode (speedup > 1 means the pool won; expect ~min(
  workers, tasks)× on an otherwise-idle multi-core host, and ~1× or below
  on a single core, where the pool can only add overhead).
* ``single_run.sim_ops_per_wall_s`` — simulated ops per wall-second of one
  in-process run (best of ``--repeat``), the kernel-hot-path regression
  number.
* ``identical_results`` — hard determinism check: the serial and parallel
  sweeps compared field-by-field.

Usage:
    PYTHONPATH=src python tools/bench_sweep.py [--quick] [--out PATH]
    PYTHONPATH=src python tools/bench_sweep.py --scale 0.3 --seeds 2
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_common  # noqa: E402  (tools-dir import)

from repro.api import (require_ok, run_many, run_steady_state,  # noqa: E402
                       scaling_config)
from repro.experiments.figures import _sizes_for  # noqa: E402
from repro.partition import strategy_names  # noqa: E402


def build_configs(scale: float, seeds: int, quick: bool):
    if quick:
        strategies = ["DynamicSubtree", "StaticSubtree"]
        sizes = [4]
    else:
        strategies = strategy_names()
        sizes = _sizes_for(scale)
    return [scaling_config(name, n_mds, scale, seed=42 + 7 * s)
            for name in strategies for n_mds in sizes
            for s in range(seeds)]


def time_sweep(configs, mode: str):
    t = time.perf_counter()
    results = require_ok(run_many(configs, mode=mode))
    return time.perf_counter() - t, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for CI (2 strategies × 1 size)")
    parser.add_argument("--scale", type=float, default=None,
                        help="experiment scale (default: 0.2 quick, 0.3 full)")
    parser.add_argument("--seeds", type=int, default=2)
    parser.add_argument("--repeat", type=int, default=3,
                        help="repeats for the single-run timing (min wins)")
    parser.add_argument("--out", default="BENCH_parallel.json")
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else \
        (0.2 if args.quick else 0.3)
    configs = build_configs(scale, args.seeds, args.quick)
    cpus = os.cpu_count() or 1
    print(f"sweep: {len(configs)} configs at scale {scale} "
          f"({cpus} CPUs available)")

    serial_s, serial_results = time_sweep(configs, "serial")
    print(f"  serial   {serial_s:.2f}s")
    # On a single-CPU host the process pool can only add overhead (the
    # auto resolve_mode stays serial there for the same reason), so
    # benchmarking it would just record a meaningless slowdown.  The
    # verdict is re-evaluated from the *current* host every run — a
    # report produced on a 1-CPU box must not pin later multi-core runs
    # to its stale conclusion.
    parallel_viable = cpus > 1
    prior = bench_common.load_prior_report(args.out)
    prior_viable = (prior or {}).get("sweep", {}).get("parallel_viable")
    if prior_viable is not None and prior_viable != parallel_viable:
        prior_cpus = (prior or {}).get("cpu_count")
        print(f"  note: prior report recorded parallel_viable="
              f"{prior_viable} on {prior_cpus} CPU(s); re-evaluated as "
              f"{parallel_viable} on this {cpus}-CPU host")
    if parallel_viable:
        parallel_s, parallel_results = time_sweep(configs, "parallel")
        print(f"  parallel {parallel_s:.2f}s")
        identical = serial_results == parallel_results
        speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
        print(f"  speedup {speedup:.2f}x   identical results: {identical}")
    else:
        parallel_s = None
        identical = True
        speedup = None
        print("  1 CPU: parallel sweep skipped (pool would only add "
              "overhead); recording parallel_viable=false")

    single_cfg = configs[0]
    walls = []
    for _ in range(max(1, args.repeat)):
        t = time.perf_counter()
        single = run_steady_state(single_cfg)
        walls.append(time.perf_counter() - t)
    best = min(walls)
    print(f"single run: {single.total_ops} ops in {best:.2f}s (best of "
          f"{len(walls)}) -> {single.total_ops / best:.0f} sim-ops/wall-s")

    report = {
        "benchmark": "parallel sweep executor + kernel hot path",
        "quick": args.quick,
        "scale": scale,
        **bench_common.host_fields(),
        "sweep": {
            "n_configs": len(configs),
            "total_sim_ops": sum(r.total_ops for r in serial_results),
            "serial_s": round(serial_s, 3),
            "parallel_viable": parallel_viable,
            "parallel_s": round(parallel_s, 3) if parallel_s is not None
            else None,
            "speedup": round(speedup, 3) if speedup is not None else None,
        },
        "single_run": {
            "total_ops": single.total_ops,
            "wall_s": round(best, 3),
            "sim_ops_per_wall_s": round(single.total_ops / best, 1),
            "repeats": len(walls),
        },
        "identical_results": identical,
    }
    bench_common.write_report(args.out, report)
    if not identical:
        print("ERROR: serial and parallel sweeps diverged")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
