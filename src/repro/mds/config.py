"""Simulation parameters.

One dataclass gathers every timing constant and cluster knob so experiment
configs are explicit and self-documenting.  Defaults are chosen so that a
cache-hot MDS peaks at a few thousand ops/s — the scale of the paper's
Figures 2 and 5 — with disk transactions three to four decimal orders
slower than CPU handling, as the paper assumes ("orders of magnitude
slower", §4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class SimParams:
    """All tunables for an MDS-cluster simulation."""

    # -- service times (seconds) ------------------------------------------
    cpu_op_s: float = 0.0003         # CPU to process one metadata op
    cpu_forward_s: float = 0.00005   # CPU to receive-and-forward a request
    #: per-node CPU speed multipliers for heterogeneous clusters (§4.3:
    #: "different nodes may be bound by different resource constraints");
    #: None = homogeneous.  Length must cover the cluster when set.
    node_speed_factors: "Optional[tuple]" = None
    net_hop_s: float = 0.0002        # one network traversal
    disk_read_s: float = 0.008       # one OSD read transaction (2004-era avg)
    disk_write_s: float = 0.006      # one OSD write transaction
    journal_write_s: float = 0.0005  # sequential append (NVRAM-maskable)

    # -- per-node resources --------------------------------------------------
    cache_capacity: int = 2000       # inode slots per MDS
    journal_capacity: int = 2000     # journal entries per MDS
    writeback_flush_s: float = 0.25  # tier-2 writeback batching window
    workers_per_node: int = 4        # concurrent request handlers per MDS
    osds_per_mds: int = 2            # shared OSD pool scales with cluster
    #: admission control: bound on requests outstanding at one node
    #: (in flight to it + queued + in service).  Arrivals beyond the bound
    #: are shed at dispatch with an overload error reply (the client sees
    #: an explicit drop, not unbounded queueing).  None = unbounded inbox,
    #: the pre-admission-control behaviour, event-for-event.
    inbox_capacity: Optional[int] = None

    # -- prefetch placement (§4.5) --------------------------------------------
    # True inserts prefetched siblings at the cold end of the LRU (the
    # paper's most conservative reading of "near the tail"); False treats
    # them as normal insertions.  Under heavy cache pressure cold-end
    # insertion evicts prefetched entries before first use, forfeiting the
    # directory-grain amortization — see the prefetch ablation bench.
    prefetch_cold_insert: bool = False

    # -- traffic control (§4.4) ----------------------------------------------
    traffic_control: bool = True
    popularity_halflife_s: float = 1.0   # decay of access counters
    replicate_threshold: float = 300.0   # decayed counter value to replicate
    unreplicate_threshold: float = 30.0  # fall below -> consolidate

    # -- load balancing (§4.3) -------------------------------------------------
    balance_interval_s: float = 2.0      # heartbeat / rebalance period
    balance_threshold: float = 0.25      # trigger if load > (1+θ)·mean
    balance_miss_weight: float = 2.0     # weight of miss rate in load metric
    balance_queue_weight: float = 25.0   # weight of request backlog; a
                                         # saturated node completes *less*,
                                         # so demand must count too
    migration_fixed_s: float = 0.010     # double-commit handshake cost
    migration_per_entry_s: float = 0.00002  # per cached entry transferred
    max_migrations_per_round: int = 4

    # -- Lazy Hybrid background propagation (§3.1.3) ---------------------------
    # Updates owed by dir-chmod/rename are normally applied on next access;
    # a positive rate also drains them in the background ("one network trip
    # per affected file").  If updates are created faster than this rate
    # the backlog diverges — the paper's stated precondition.
    lh_drain_rate_per_s: float = 0.0

    # -- dirfrag (§4.3) --------------------------------------------------------
    dirfrag_enabled: bool = False
    dirfrag_size_threshold: int = 10_000     # entries before hashing a dir
    dirfrag_unfrag_size: int = 2_000         # shrink below -> consolidate

    # -- measurement --------------------------------------------------------
    stats_bucket_s: float = 0.1   # width of per-node rate buckets; timeline
                                  # sampling intervals must be multiples

    # -- safety limits -----------------------------------------------------
    max_forward_hops: int = 8

    def validate(self) -> "SimParams":
        """Sanity-check the parameter set; returns self for chaining.

        Catches the configuration mistakes that would otherwise surface as
        baffling simulation behaviour (negative latencies, zero-capacity
        resources, inverted traffic-control thresholds).
        """
        non_negative = ("cpu_op_s", "cpu_forward_s", "net_hop_s",
                        "disk_read_s", "disk_write_s", "journal_write_s",
                        "migration_fixed_s", "migration_per_entry_s",
                        "lh_drain_rate_per_s")
        for field_name in non_negative:
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")
        positive = ("cache_capacity", "journal_capacity",
                    "workers_per_node", "osds_per_mds",
                    "popularity_halflife_s", "balance_interval_s",
                    "stats_bucket_s", "writeback_flush_s")
        for field_name in positive:
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.unreplicate_threshold > self.replicate_threshold:
            raise ValueError(
                "unreplicate_threshold must not exceed replicate_threshold "
                "(items would oscillate between hot and cold)")
        if self.dirfrag_unfrag_size >= self.dirfrag_size_threshold:
            raise ValueError(
                "dirfrag_unfrag_size must be below dirfrag_size_threshold")
        if self.max_forward_hops < 1:
            raise ValueError("max_forward_hops must be >= 1")
        if self.inbox_capacity is not None and self.inbox_capacity < 1:
            raise ValueError("inbox_capacity must be >= 1 when set")
        if self.node_speed_factors is not None:
            for i in range(len(self.node_speed_factors)):
                self.speed_of(i)  # raises on non-positive entries
        return self

    def speed_of(self, node_id: int) -> float:
        """CPU speed multiplier of one node (1.0 when homogeneous)."""
        if self.node_speed_factors is None:
            return 1.0
        if node_id >= len(self.node_speed_factors):
            raise IndexError(
                f"node_speed_factors has no entry for node {node_id}")
        factor = self.node_speed_factors[node_id]
        if factor <= 0:
            raise ValueError(f"speed factor must be positive, got {factor}")
        return factor

    def scaled_cache(self, fraction: float, total_metadata: int) -> "SimParams":
        """Copy with cache sized as a fraction of the namespace (Fig. 4)."""
        capacity = max(8, int(fraction * total_metadata))
        return replace(self, cache_capacity=capacity,
                       journal_capacity=capacity)


DEFAULT_PARAMS = SimParams()
