"""Run simulations and extract the measurements the figures need."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ._build import Simulation, build_simulation
from .config import ExperimentConfig


@dataclass
class SteadyStateResult:
    """Aggregates over the post-warmup measurement window."""

    config: ExperimentConfig
    mean_node_throughput: float       # ops/sec per MDS (Fig. 2 y-axis)
    node_throughputs: List[float]
    hit_rate: float                   # cluster-wide (Fig. 4 y-axis)
    prefix_fraction: float            # mean over nodes (Fig. 3 y-axis)
    forward_fraction: float
    total_ops: int
    client_mean_latency_s: float
    errors: int
    total_metadata: int
    # client-observed latency percentiles (streaming histograms, all ops)
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    latency_p99_s: float = 0.0
    # overload accounting (zero for classic closed-loop runs)
    offered_ops: int = 0
    dropped_ops: int = 0
    slo_violations: int = 0
    goodput_ops_per_s: float = 0.0


def run_steady_state(config: ExperimentConfig) -> SteadyStateResult:
    """Build, warm up, measure."""
    sim = build_simulation(config)
    t0, t1 = config.measure_window
    sim.run_to(t1)
    summary = sim.summary(window=(t0, t1))
    return SteadyStateResult(
        config=config,
        mean_node_throughput=summary.throughput_ops_per_s,
        node_throughputs=summary.node_throughputs,
        hit_rate=summary.hit_rate,
        prefix_fraction=summary.prefix_fraction,
        forward_fraction=summary.forward_fraction,
        total_ops=summary.total_ops,
        client_mean_latency_s=summary.mean_latency_s,
        errors=summary.errors,
        total_metadata=summary.total_metadata,
        latency_p50_s=summary.latency_p50_s,
        latency_p95_s=summary.latency_p95_s,
        latency_p99_s=summary.latency_p99_s,
        offered_ops=summary.offered_ops,
        dropped_ops=summary.dropped_ops,
        slo_violations=summary.slo_violations,
        goodput_ops_per_s=summary.goodput_ops_per_s,
    )


@dataclass
class TimelineResult:
    """Per-interval series over a whole run (Figs. 5, 6, 7)."""

    config: ExperimentConfig
    #: (t, min, mean, max) per-node throughput per sampling interval
    throughput_series: List[Tuple[float, float, float, float]] = field(
        default_factory=list)
    #: (t, fraction of requests forwarded) per interval
    forward_series: List[Tuple[float, float]] = field(default_factory=list)
    #: (t, cluster replies/sec, cluster forwards/sec) per interval
    rate_series: List[Tuple[float, float, float]] = field(
        default_factory=list)
    final_hit_rate: float = 0.0


def run_timeline(config: ExperimentConfig,
                 sample_interval_s: float = 1.0) -> TimelineResult:
    """Run to completion, sampling per-interval rates."""
    sim = build_simulation(config)
    bucket = config.params.stats_bucket_s
    ratio = sample_interval_s / bucket
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError(
            f"sample interval {sample_interval_s} must be a multiple of the "
            f"stats bucket width {bucket} (SimParams.stats_bucket_s)")
    result = TimelineResult(config=config)
    t = 0.0
    end = config.run_until_s
    while t < end:
        t_next = min(end, t + sample_interval_s)
        sim.run_to(t_next)
        rates = sim.cluster.node_throughputs(t, t_next)
        replies = sum(s.served_by_time.count_in(t, t_next)
                      for s in sim.cluster.node_stats())
        forwards = sum(s.forwards_by_time.count_in(t, t_next)
                       for s in sim.cluster.node_stats())
        width = t_next - t
        mid = (t + t_next) / 2
        result.throughput_series.append(
            (mid, min(rates), sum(rates) / len(rates), max(rates)))
        total = replies + forwards
        result.forward_series.append(
            (mid, forwards / total if total else 0.0))
        result.rate_series.append((mid, replies / width, forwards / width))
        t = t_next
    result.final_hit_rate = sim.cluster.cluster_hit_rate()
    return result
