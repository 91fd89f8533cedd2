"""The simulated client: a closed loop of think time and metadata requests.

Each client keeps one request outstanding (closed-loop), with exponential
think times between requests, so cluster throughput emerges from service
capacity rather than being injected.  Clients route requests themselves:
hash strategies let them compute the authority; subtree strategies leave
them to their :class:`~repro.clients.location.LocationCache` (deepest known
prefix), learning from the distribution info replies carry (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from sys import getrefcount
from typing import Any, Generator, List, Optional, Protocol

from ..mds import MdsCluster, MdsReply, MdsRequest
from ..mds.messages import OpType
from ..namespace.path import Path
from ..sim import Environment, Event
from .location import LocationCache


@dataclass
class ClientStats:
    """Per-client activity record."""

    ops_completed: int = 0
    errors: int = 0
    forwards_seen: int = 0
    total_latency_s: float = 0.0
    latencies: List[float] = field(default_factory=list)

    @property
    def mean_latency_s(self) -> float:
        return (self.total_latency_s / self.ops_completed
                if self.ops_completed else 0.0)


class Workload(Protocol):
    """What a workload generator must provide."""

    def next_op(self, client: "Client") -> Optional[MdsRequest]:
        """The client's next request, or ``None`` to idle one think period."""

    def next_delay(self, client: "Client") -> float:
        """Think time before the next request."""


class Client:
    """One simulated file-system client."""

    def __init__(self, env: Environment, client_id: int, cluster: MdsCluster,
                 workload: Workload, rng, uid: Optional[int] = None) -> None:
        self.env = env
        self.client_id = client_id
        self.cluster = cluster
        self.workload = workload
        self.rng = rng
        self.uid = uid if uid is not None else client_id
        self.locations = LocationCache()
        self.stats = ClientStats()
        self.last_opened = None      # path of the most recent OPEN
        self.last_opened_ino = None  # its handle (passed back on CLOSE)
        self.scratch: dict = {}      # per-client workload state
        #: recycled request object (fast lane): a closed-loop client has at
        #: most one request in flight, so one spare slot absorbs the entire
        #: steady-state MdsRequest churn
        self._spare: Optional[MdsRequest] = None

    def start(self) -> None:
        self.env.process(self.run())

    def make_request(self, op: OpType, path: Path, *,
                     dst_path: Optional[Path] = None,
                     mode: Optional[int] = None,
                     size: Optional[int] = None,
                     ino: Optional[int] = None,
                     dir_hint: bool = False) -> MdsRequest:
        """Build the client's next request, reusing the spare slot if set.

        Workloads should construct requests through this so the per-op
        ``MdsRequest`` allocation disappears in steady state; a fresh object
        is returned whenever no recycled one is available.
        """
        spare = self._spare
        if spare is not None:
            self._spare = None
            spare.op = op
            spare.path = path
            spare.client_id = self.client_id
            spare.uid = self.uid
            spare.dst_path = dst_path
            spare.mode = mode
            spare.size = size
            spare.ino = ino
            spare.done = None
            spare.submitted_at = 0.0
            spare.hops = 0
            spare.enqueued_at = 0.0
            spare.trace = None
            spare.dir_hint = dir_hint
            return spare
        return MdsRequest(op=op, path=path, client_id=self.client_id,
                          uid=self.uid, dst_path=dst_path, mode=mode,
                          size=size, ino=ino, dir_hint=dir_hint)

    def run(self) -> Generator[Event, Any, None]:
        env = self.env
        workload = self.workload
        cluster = self.cluster
        recycle = env.fastlane
        while True:
            delay = workload.next_delay(self)
            if delay > 0:
                yield env.timeout(delay)
            request = workload.next_op(self)
            if request is None:
                continue
            request.client_id = self.client_id
            request.uid = self.uid
            tracer = cluster.tracer
            if tracer is not None and tracer.enabled:
                request.trace = tracer.maybe_trace(
                    request.op, request.path, self.client_id, env.now)
            dest = self._destination(request)
            reply: MdsReply = yield cluster.submit(dest, request)
            self._absorb(request, reply)
            if recycle:
                request.done = None  # free the completion event for pooling
                if self._spare is None and getrefcount(request) == 2:
                    # only this frame still sees the object: safe to reuse
                    self._spare = request

    # ------------------------------------------------------------------
    def _destination(self, request: MdsRequest) -> int:
        computed = self.cluster.strategy.client_locate(
            request.path, dir_hint=request.dir_hint)
        if computed is not None:
            return computed
        return self.locations.choose_destination(
            request.path, self.rng, self.cluster.n_mds)

    def _absorb(self, request: MdsRequest, reply: MdsReply) -> None:
        self.stats.ops_completed += 1
        self.stats.total_latency_s += reply.latency_s
        self.stats.latencies.append(reply.latency_s)
        self.stats.forwards_seen += reply.forwarded
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.record_latency(request.op, reply.latency_s)
            if request.trace is not None:
                tracer.finish(request.trace, now=self.env.now, ok=reply.ok)
        if not reply.ok:
            self.stats.errors += 1
            # stale knowledge may have misrouted us; drop the deepest hint
            prefix, _loc = self.locations.deepest_known(request.path)
            self.locations.forget(prefix)
            return
        self.locations.learn_all(reply.locations)
        if request.op is OpType.OPEN:
            self.last_opened = request.path
            self.last_opened_ino = reply.target_ino
