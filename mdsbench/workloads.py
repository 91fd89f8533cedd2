"""The benchmark's workloads, and what is read off a finished run.

Nothing here imports ``repro`` at module level: the worker times
``import repro.api`` itself, so the package is handed in as ``api``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, NamedTuple

#: the seed the recorded golden fingerprints were taken at
DEFAULT_SEED = 42


class Workload(NamedTuple):
    """One named workload: its config at full and at tiny size."""

    config: Callable[[Any, int], Any]
    tiny: Callable[[Any, int], Any]


def _scaling(api, seed: int):
    # Fig. 2 point: 8 MDS, closed loop, read-heavy SCALING_MIX
    return api.scaling_config("DynamicSubtree", 8, 0.5, seed=seed)


def _scaling_tiny(api, seed: int):
    return api.scaling_config("DynamicSubtree", 4, 0.1, seed=seed,
                              warmup_s=0.2, duration_s=1.0)


def _shift(api, seed: int):
    # Fig. 5/6 workload shift; half the clients move at t = 5 s
    return api.shift_config("DynamicSubtree", 0.5, seed=seed)


def _shift_tiny(api, seed: int):
    return api.shift_config(
        "DynamicSubtree", 0.1, seed=seed, duration_s=2.0,
        workload_args={"shift_time_s": 0.5, "migrate_fraction": 0.5})


def _overload(api, seed: int):
    # open loop at 1.25x capacity, admission control, proxy tier
    return api.overload_config(1.25, proxy=True, scale=0.5, seed=seed)


def _overload_tiny(api, seed: int):
    return api.overload_config(1.25, proxy=True, scale=0.1, seed=seed,
                               warmup_s=0.1, duration_s=1.0)


WORKLOADS: Dict[str, Workload] = {
    "scaling": Workload(_scaling, _scaling_tiny),
    "shift": Workload(_shift, _shift_tiny),
    "overload": Workload(_overload, _overload_tiny),
}


def fingerprint(summary) -> str:
    """Digest of everything the run computed.

    ``repr(ClusterSummary)`` leaves out the overload and proxy counters,
    so they are added explicitly; the kernel counters are left out, as
    they describe how the run executed, not what it computed.
    """
    extra = (summary.offered_ops, summary.dropped_ops,
             summary.slo_violations, summary.goodput_ops_per_s,
             sorted((summary.proxy or {}).items()))
    text = f"{summary!r}|{extra!r}"
    return hashlib.sha256(text.encode()).hexdigest()


def backends(summary) -> Dict[str, Any]:
    """The resolved kernel, model and fast-lane backends of a run."""
    kernel = summary.kernel or {}
    return {"kernel": kernel.get("kernel_backend"),
            "model": kernel.get("model_backend"),
            "fastlane": kernel.get("fastlane")}


def _merged_p99_ms(histograms) -> float:
    merged = None
    for hist in histograms:
        merged = hist.copy() if merged is None else merged.merge(hist)
    return merged.quantile(0.99) * 1e3 if merged is not None else 0.0


def measure(sim, summary) -> Dict[str, Any]:
    """Simulated results and the program's own work counters."""
    cluster = sim.cluster
    nodes = cluster.nodes
    stats = cluster.node_stats()
    kernel = summary.kernel or {}
    open_loop = summary.offered_ops > 0
    # closed-loop clients have one request in flight at a time and
    # complete every request they are answered on; an open-loop source
    # offers requests whether or not earlier ones were answered
    attempted = summary.offered_ops if open_loop else summary.total_ops
    run_s = sim.env.now
    if open_loop:
        goodput = summary.goodput_ops_per_s
    else:
        # no SLO in a closed loop: every successful completion counts
        goodput = (summary.total_ops - summary.errors) / run_s
    ns_memo = sim.ns.resolution_memo
    ns_memo = ns_memo.stats() if ns_memo is not None else {}
    dist_memo = cluster._dist_memo
    dist_memo = dist_memo.stats() if dist_memo is not None else {}
    osds = cluster.object_store.osds
    devices = list(osds) + [node.journal.device for node in nodes]
    return {
        "total_ops": summary.total_ops,
        "attempted": attempted,
        "errors": summary.errors,
        "dropped": summary.dropped_ops,
        "offered": summary.offered_ops,
        "sim_failed": summary.errors + summary.dropped_ops,
        "mds_throughput_ops_s": summary.throughput_ops_per_s,
        "latency_count": summary.latency.count,
        "latency_p50_ms": summary.latency.p50_s * 1e3,
        "latency_p99_ms": summary.latency.p99_s * 1e3,
        "goodput_ops_s": goodput,
        "events_scheduled": kernel.get("events_scheduled", 0),
        "fast_resumes": kernel.get("fast_resumes", 0),
        "pool_reuse_rate": kernel.get("pool_reuse_rate", 0.0),
        "served": summary.total_served,
        "forwards": summary.total_forwards,
        "queue_delay_p99_ms": _merged_p99_ms(s.queue_delay for s in stats),
        "queue_delay_count": sum(s.queue_delay.count for s in stats),
        "dist_memo_hits": dist_memo.get("hits", 0),
        "dist_memo_misses": dist_memo.get("misses", 0),
        "migrations": sum(s.migrations_out for s in stats),
        "entries_migrated": sum(s.entries_migrated for s in stats),
        "replications_pushed": sum(s.replications_pushed for s in stats),
        "cache_hits": sum(s.cache_hits for s in stats),
        "cache_misses": sum(s.cache_misses for s in stats),
        "hit_rate": summary.hit_rate,
        "evictions": sum(node.cache.counters.evictions for node in nodes),
        "prefetches": sum(s.prefetches for s in stats),
        "ns_memo_hits": ns_memo.get("hits", 0),
        "ns_memo_misses": ns_memo.get("misses", 0),
        "ns_memo_invalidations": ns_memo.get("invalidations", 0),
        "disk_reads": sum(d.stats.reads for d in osds),
        "journal_appends": sum(node.journal.stats.appends for node in nodes),
        "disk_busy_s": sum(d.stats.busy_s for d in devices),
        "proxy": dict(summary.proxy or {}),
    }
