"""The repository benchmark: one workload, end to end or per layer.

Run from the repository root::

    python3 mdsbench/run.py --workload scaling --seed 42 --seconds 30 --trace 0

Each repetition is one simulation in a fresh interpreter (``worker.py``),
run one at a time with every ``REPRO_*`` variable unset, so the stack is
the default one: reference kernel and model, fast lane on, no shards, no
process pool.

``--trace 0`` repeats the workload until ``--seconds`` have passed (at
least three times) and reports the end-to-end metrics as medians over
the repetitions.  ``--trace 1`` runs the workload once plain and once
with the per-layer span wrappers of ``tracing.py`` and reports the
per-layer metrics; the spans go to ``.bench_out/``.

Every run checks the simulated output: all repetitions, and the traced
run, must give the same summary fingerprint and resolve the same
backends, and at the default seed the fingerprint must match
``goldens.json``.  The last line of the output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
GOLDENS = HERE / "goldens.json"
SPAN_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

#: repetitions per --trace 0 run, whatever --seconds says
MIN_REPS = 3
MAX_REPS = 40
#: one repetition that takes longer than this has hung
REP_TIMEOUT_S = 150

#: name -> unit, in report order
END_TO_END = {
    "sim_ops_per_wall_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sim.events_per_op": "events/op",
    "sim.fast_resumes_per_op": "resumes/op",
    "sim.pool_reuse_rate": "ratio",
    "sim.self_s": "s",
    "clients.self_s": "s",
    "clients.ops_issued": "count",
    "mds.self_s": "s",
    "mds.forwards_per_op": "forwards/op",
    "mds.queue_delay_p99_ms": "ms",
    "mds.dist_memo_hit_rate": "ratio",
    "mds.popularity_self_s": "s",
    "mds.balancer_self_s": "s",
    "mds.migrations": "count",
    "mds.entries_migrated": "count",
    "mds.replications_pushed": "count",
    "mds.dropped_ops": "count",
    "cache.hit_rate": "ratio",
    "cache.evictions_per_op": "evictions/op",
    "cache.prefetches_per_op": "prefetches/op",
    "cache.self_s": "s",
    "namespace.memo_hit_rate": "ratio",
    "namespace.memo_invalidations_per_op": "invalidations/op",
    "namespace.self_s": "s",
    "partition.authority_calls_per_op": "calls/op",
    "partition.self_s": "s",
    "storage.disk_reads_per_op": "reads/op",
    "storage.journal_appends_per_op": "appends/op",
    "storage.disk_busy_s": "s",
    "storage.self_s": "s",
    "proxy.absorbed_share": "ratio",
    "proxy.coalesced": "count",
    "proxy.retries": "count",
    "proxy.self_s": "s",
    "obs.self_s": "s",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> Dict[str, str]:
    """The environment every repetition runs in: no REPRO_* gates, and
    the checkout's own sources first on the import path."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_rep(args, *, traced: bool = False) -> Optional[dict]:
    """One repetition in a fresh interpreter; ``None`` if it failed."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    if traced:
        SPAN_DIR.mkdir(exist_ok=True)
        spans = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        cmd += ["--traced", "--spans", str(spans)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {REP_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"repetition failed (exit {proc.returncode}):\n{proc.stderr}",
              file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def warm_up() -> None:
    """Compile the sources once, so no repetition pays for bytecode."""
    subprocess.run([sys.executable, "-c", "import repro.api"],
                   env=child_env(), cwd=ROOT, check=True,
                   capture_output=True, timeout=REP_TIMEOUT_S)


def measure_reps(args) -> List[Optional[dict]]:
    reps: List[Optional[dict]] = []
    started = time.perf_counter()
    walls: List[float] = []
    while len(reps) < MAX_REPS:
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS and (
                elapsed + statistics.median(walls) > args.seconds):
            break
        rep = run_rep(args)
        reps.append(rep)
        if rep is None:
            break  # a crash fails the run; more repetitions add nothing
        walls.append(rep["wall_s"])
    return reps


def check(args, reps: List[Optional[dict]]) -> List[str]:
    """Every problem with the simulated output (empty when correct)."""
    problems = []
    if any(rep is None for rep in reps):
        problems.append("a repetition crashed")
    done = [rep for rep in reps if rep is not None]
    prints = {rep["fingerprint"] for rep in done}
    if len(prints) > 1:
        problems.append(f"repetitions disagree: {sorted(prints)}")
    stacks = {json.dumps(rep["backends"], sort_keys=True) for rep in done}
    if len(stacks) > 1:
        problems.append(f"repetitions resolved different backends: "
                        f"{sorted(stacks)}")
    if args.seed == workloads.DEFAULT_SEED and not args.tiny and done:
        golden = json.loads(GOLDENS.read_text())[args.workload]
        if done[0]["fingerprint"] != golden:
            problems.append(f"fingerprint {done[0]['fingerprint']} != "
                            f"golden {golden}")
    for rep in done:
        if rep["sim"]["total_ops"] < 1:
            problems.append("no simulated op completed")
    return problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(reps: List[dict]) -> Dict[str, tuple]:
    """name -> (value, base) for the end-to-end metrics."""
    n = len(reps)
    return {
        "sim_ops_per_wall_s": (
            statistics.median(r["sim"]["total_ops"] / r["run_s"]
                              for r in reps), f"median of {n} runs"),
        "setup_s": (statistics.median(r["import_s"] + r["build_s"]
                                      for r in reps), f"median of {n} runs"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        f"median of {n} runs"),
    }


def simulated(rep: dict) -> Dict[str, tuple]:
    """The simulated results: identical on every run at one seed."""
    sim = rep["sim"]
    return {
        "failed_share": (_ratio(sim["sim_failed"], sim["attempted"]),
                         "ratio", f"{sim['sim_failed']} errored or shed / "
                                  f"{sim['attempted']} attempted"),
        "sim_mds_throughput_ops_s": (sim["mds_throughput_ops_s"], "ops/s",
                                     "per MDS, measure window"),
        "sim_latency_p50_ms": (sim["latency_p50_ms"], "ms",
                               f"{sim['latency_count']} samples"),
        "sim_latency_p99_ms": (sim["latency_p99_ms"], "ms",
                               f"{sim['latency_count']} samples"),
        "sim_goodput_ops_s": (sim["goodput_ops_s"], "ops/s",
                              "within SLO" if sim["offered"] else
                              "successful completions, no SLO"),
    }


def per_layer(plain: dict, traced: dict) -> Dict[str, tuple]:
    """name -> (value, base) for the per-layer metrics."""
    sim = traced["sim"]
    ops = sim["total_ops"]
    per_op = f"/ {ops} ops"
    selfs = traced["layers_self_s"]
    proxy = sim["proxy"]
    lookups = sim["cache_hits"] + sim["cache_misses"]
    dist = sim["dist_memo_hits"] + sim["dist_memo_misses"]
    memo = sim["ns_memo_hits"] + sim["ns_memo_misses"]
    issued = sim["offered"] or traced["cluster_submits"]
    traced_s = "traced run"
    return {
        "sim.events_per_op": (_ratio(sim["events_scheduled"], ops),
                              f"{sim['events_scheduled']} events {per_op}"),
        "sim.fast_resumes_per_op": (_ratio(sim["fast_resumes"], ops),
                                    f"{sim['fast_resumes']} {per_op}"),
        "sim.pool_reuse_rate": (sim["pool_reuse_rate"], "pool hits / takes"),
        "sim.self_s": (selfs["sim"], traced_s),
        "clients.self_s": (selfs["clients"], traced_s),
        "clients.ops_issued": (issued, "requests clients submitted"),
        "mds.self_s": (selfs["mds"], traced_s),
        "mds.forwards_per_op": (_ratio(sim["forwards"], ops),
                                f"{sim['forwards']} {per_op}"),
        "mds.queue_delay_p99_ms": (sim["queue_delay_p99_ms"],
                                   f"{sim['queue_delay_count']} samples"),
        "mds.dist_memo_hit_rate": (_ratio(sim["dist_memo_hits"], dist),
                                   f"{sim['dist_memo_hits']} / {dist}"),
        "mds.popularity_self_s": (selfs["mds.popularity"], traced_s),
        "mds.balancer_self_s": (selfs["mds.balancer"], traced_s),
        "mds.migrations": (sim["migrations"], "subtrees moved"),
        "mds.entries_migrated": (sim["entries_migrated"], "cache entries"),
        "mds.replications_pushed": (sim["replications_pushed"],
                                    "replica broadcasts"),
        "mds.dropped_ops": (sim["dropped"], f"of {sim['attempted']}"),
        "cache.hit_rate": (sim["hit_rate"], f"of {lookups} lookups"),
        "cache.evictions_per_op": (_ratio(sim["evictions"], ops),
                                   f"{sim['evictions']} {per_op}"),
        "cache.prefetches_per_op": (_ratio(sim["prefetches"], ops),
                                    f"{sim['prefetches']} {per_op}"),
        "cache.self_s": (selfs["cache"], traced_s),
        "namespace.memo_hit_rate": (_ratio(sim["ns_memo_hits"], memo),
                                    f"{sim['ns_memo_hits']} / {memo}"),
        "namespace.memo_invalidations_per_op": (
            _ratio(sim["ns_memo_invalidations"], ops),
            f"{sim['ns_memo_invalidations']} {per_op}"),
        "namespace.self_s": (selfs["namespace"], traced_s),
        "partition.authority_calls_per_op": (
            _ratio(traced["authority_calls"], ops),
            f"{traced['authority_calls']} {per_op}"),
        "partition.self_s": (selfs["partition"], traced_s),
        "storage.disk_reads_per_op": (_ratio(sim["disk_reads"], ops),
                                      f"{sim['disk_reads']} {per_op}"),
        "storage.journal_appends_per_op": (
            _ratio(sim["journal_appends"], ops),
            f"{sim['journal_appends']} {per_op}"),
        "storage.disk_busy_s": (sim["disk_busy_s"], "simulated, all devices"),
        "storage.self_s": (selfs["storage"], traced_s),
        "proxy.absorbed_share": (
            _ratio(proxy.get("absorbed", 0), proxy.get("requests", 0)),
            f"{proxy.get('absorbed', 0)} / {proxy.get('requests', 0)}"),
        "proxy.coalesced": (proxy.get("coalesced", 0), "requests"),
        "proxy.retries": (proxy.get("retries", 0), "requests"),
        "proxy.self_s": (selfs["proxy"], traced_s),
        "obs.self_s": (selfs["obs"], traced_s),
        "setup.import_s": (plain["import_s"], "plain run"),
        "setup.build_s": (plain["build_s"], "plain run"),
        "trace.overhead_s": (traced["run_s"] - plain["run_s"],
                             f"{traced['run_s']:.3f} - {plain['run_s']:.3f}"),
    }


def provenance(reps: List[Optional[dict]]) -> dict:
    done = [rep for rep in reps if rep is not None]
    return {"backends": done[0]["backends"] if done else None,
            "nproc": os.cpu_count(), "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long workload sizes (for tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    warm_up()

    if args.trace:
        reps = [run_rep(args), run_rep(args, traced=True)]
        names = PER_LAYER
    else:
        reps = measure_reps(args)
        names = END_TO_END
    problems = check(args, reps)
    done = [rep for rep in reps if rep is not None]
    correct = not problems

    # every request of a run that crashed or failed a check is failed
    per_rep = done[0]["sim"]["attempted"] if done else 1
    attempted = per_rep * len(reps)
    failed = attempted if not correct else 0
    metrics: Dict[str, tuple] = {}
    if correct:
        metrics = (per_layer(*reps) if args.trace else end_to_end(reps))

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: {len(done)}/{len(reps)} runs ok")
    print("provenance " + json.dumps(provenance(reps), sort_keys=True))
    if done:
        print(f"fingerprint {done[0]['fingerprint']}")
        results = simulated(done[0])
        if not correct:
            results["failed_share"] = (1.0, "ratio", "a check failed")
        for name, (value, unit, base) in results.items():
            print(f"  {name:36s} {value:14.6g} {unit:16s} {base}")
    for name, (value, base) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {names[name]:16s} {base}")
    if done and not args.trace:
        print("per run, ops/wall-s: " + " ".join(
            f"{r['sim']['total_ops'] / r['run_s']:.0f}" for r in done))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": names[name]}
                    for name, (value, _base) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
