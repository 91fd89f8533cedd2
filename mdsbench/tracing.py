"""Per-layer wall-time tracing, installed from outside the program.

The traced run wraps the public entry points of each ``repro.*`` layer
(see :data:`TARGETS`) with timing shims, so the per-layer split needs no
change under ``src/``.  Every wrapped call, and every resume of a wrapped
generator function, is one span.  A span's *self time* is its duration
minus the time covered by the spans it encloses; a layer's self time is
the sum over the spans of that layer.

Spans are aggregated per name as they close (calls, total, self).  The
first :data:`SAMPLE_LIMIT` spans are also kept whole — id, parent id,
name, start, end and the id of the ``MdsRequest`` the call carried — and
written out with the aggregates when the run ends.

Usage::

    recorder = SpanRecorder()
    installed = install(recorder)
    try:
        ...  # build and run the simulation
    finally:
        uninstall(installed)
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: spans kept whole (the rest are only aggregated)
SAMPLE_LIMIT = 20000

PUBLIC = "public"            # every public function the class defines
GENERATORS = "generators"    # every generator function the class defines

#: (layer, module, class, methods, include subclasses).  ``methods`` is
#: :data:`PUBLIC`, :data:`GENERATORS` or a tuple of names (a tuple may
#: mix in :data:`GENERATORS`).  Only functions in a class's own
#: ``__dict__`` are wrapped, so an inherited method is wrapped once, on
#: the class that defines it.
TARGETS: Tuple[Tuple[str, str, str, Any, bool], ...] = (
    ("sim", "repro.sim.engine", "Environment", ("run",), False),
    ("mds", "repro.mds.cluster", "MdsCluster", ("submit",), False),
    ("mds", "repro.mds.node", "MdsNode", GENERATORS, False),
    ("mds.popularity", "repro.mds.popularity", "PopularityMap", PUBLIC,
     False),
    ("mds.balancer", "repro.mds.loadbalance", "LoadBalancer", PUBLIC, False),
    ("clients", "repro.clients.client", "Client", (GENERATORS, "_absorb"),
     False),
    ("clients", "repro.clients.openloop", "OpenLoopSource",
     (GENERATORS, "_complete"), False),
    ("clients", "repro.clients.general", "GeneralWorkload", ("next_op",),
     True),
    ("clients", "repro.clients.openloop", "OpenLoopWorkload", ("next_op",),
     False),
    ("cache", "repro.cache.lru", "MetadataCache", PUBLIC, False),
    ("namespace", "repro.namespace.tree", "Namespace", PUBLIC, False),
    ("partition", "repro.partition.base", "Strategy", PUBLIC, True),
    ("storage", "repro.storage.disk", "DiskDevice", PUBLIC, False),
    ("storage", "repro.storage.journal", "Journal", PUBLIC, False),
    ("proxy", "repro.proxy.tier", "ProxyTier", ("submit",), False),
    ("proxy", "repro.proxy.tier", "ProxyNode", GENERATORS, False),
    ("obs", "repro.obs.tracer", "Tracer", PUBLIC, False),
    ("obs", "repro.metrics.histogram", "LatencyHistogram", ("record",),
     False),
)


LAYERS = ("sim", "clients", "mds", "mds.popularity", "mds.balancer",
          "cache", "namespace", "partition", "storage", "proxy", "obs")


class SpanRecorder:
    """Span stack plus per-name aggregates for one traced run."""

    def __init__(self, sample_limit: int = SAMPLE_LIMIT) -> None:
        #: open spans, innermost last: [start, child_s, span_id, layer]
        self.stack: List[list] = []
        #: span name -> [calls, total_s, self_s]
        self.totals: Dict[str, List[float]] = {}
        #: span name -> layer
        self.layer_of: Dict[str, str] = {}
        #: (span_id, parent_id, name, start, end, request_id)
        self.sample: List[tuple] = []
        self.sample_limit = sample_limit
        #: the class whose instances name a span's request (set by install)
        self.request_type: Optional[type] = None
        self._ids = itertools.count(1)

    def slot(self, name: str, layer: str) -> List[float]:
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0.0, 0.0]
            self.layer_of[name] = layer
        return agg

    def reset(self) -> None:
        """Forget every closed span, e.g. those of the build phase."""
        self.totals.clear()
        self.layer_of.clear()
        self.sample.clear()

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_calls, _total, self_s) in self.totals.items():
            out[self.layer_of[name]] += self_s
        return out

    def calls(self, name: str) -> int:
        agg = self.totals.get(name)
        return int(agg[0]) if agg is not None else 0

    def dump(self) -> dict:
        """Aggregates and the kept spans, JSON-ready."""
        return {
            "layers": self.layer_self_s(),
            "names": {name: {"layer": self.layer_of[name], "calls": int(c),
                             "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.totals.items())},
            "spans": [dict(zip(("id", "parent", "name", "start", "end",
                                "request"), span))
                      for span in self.sample],
        }


def _request_id(request_type: Optional[type], args) -> Optional[str]:
    for arg in args:
        if isinstance(arg, request_type):
            return f"{arg.client_id}@{arg.submitted_at!r}"
    return None


def _timed(recorder: SpanRecorder, name: str, layer: str,
           run: Callable, arg, request_args: tuple,
           request: Optional[str] = None) -> Any:
    """Run ``run(arg)`` as one span (the shared body of every shim).

    The span's request id is ``request`` when given, else taken from the
    first ``MdsRequest`` in ``request_args``.
    """
    stack = recorder.stack
    if stack:
        parent = stack[-1]
        parent_id = parent[2]
        if layer == "mds.popularity" and parent[3] == "proxy":
            # each proxy keeps a popularity map too: that is proxy time
            name = f"proxy:{name}"
            layer = "proxy"
    else:
        parent = None
        parent_id = 0
    frame = [time.perf_counter(), 0.0, next(recorder._ids), layer]
    stack.append(frame)
    try:
        return run(arg)
    finally:
        end = time.perf_counter()
        stack.pop()
        duration = end - frame[0]
        if parent is not None:
            parent[1] += duration
        agg = recorder.slot(name, layer)
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[1]
        sample = recorder.sample
        if len(sample) < recorder.sample_limit:
            if request is None:
                request = _request_id(recorder.request_type, request_args)
            sample.append((frame[2], parent_id, name, frame[0], end,
                           request))


class _TimedGenerator:
    """Generator proxy timing each resume of the wrapped generator.

    It keeps the id of the request the generator was started with, not
    the request object, so the traced run holds no extra references (the
    program recycles requests once nothing else refers to them).
    """

    def __init__(self, gen, recorder: SpanRecorder, name: str, layer: str,
                 request: Optional[str]) -> None:
        self._gen = gen
        self._recorder = recorder
        self._name = name
        self._layer = layer
        self._request = request
        #: processes are named after their generator
        self.__name__ = getattr(gen, "__name__", name)

    def _step(self, run: Callable, arg: Any) -> Any:
        return _timed(self._recorder, self._name, self._layer, run, arg,
                      (), self._request)

    def __iter__(self) -> "_TimedGenerator":
        return self

    def __next__(self) -> Any:
        return self._step(self._gen.send, None)

    def send(self, value: Any) -> Any:
        return self._step(self._gen.send, value)

    def throw(self, *exc: Any) -> Any:
        return self._step(lambda e: self._gen.throw(*e), exc)

    def close(self) -> None:
        self._gen.close()


def _wrap(recorder: SpanRecorder, name: str, layer: str,
          fn: Callable) -> Callable:
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def start(*args, **kwargs):
            request = None
            if len(recorder.sample) < recorder.sample_limit:
                request = _request_id(recorder.request_type, args)
            return _TimedGenerator(fn(*args, **kwargs), recorder, name,
                                   layer, request)
        return start

    @functools.wraps(fn)
    def call(*args, **kwargs):
        return _timed(recorder, name, layer,
                      lambda _: fn(*args, **kwargs), None, args)
    return call


def _classes(cls: type, with_subclasses: bool) -> List[type]:
    found = [cls]
    if with_subclasses:
        for sub in cls.__subclasses__():
            found.extend(c for c in _classes(sub, True) if c not in found)
    return found


def _selected(cls: type, methods: Any) -> List[str]:
    own = cls.__dict__
    names = []
    wanted = (methods,) if isinstance(methods, str) else methods
    for key, value in own.items():
        if not inspect.isfunction(value):
            continue
        if ((PUBLIC in wanted and not key.startswith("_"))
                or (GENERATORS in wanted
                    and inspect.isgeneratorfunction(value))
                or key in wanted):
            names.append(key)
    return sorted(names)


def targets() -> List[Tuple[type, str, str]]:
    """Every (class, method name, layer) :func:`install` wraps."""
    out = []
    for layer, module, cls_name, methods, with_subclasses in TARGETS:
        base = getattr(importlib.import_module(module), cls_name)
        for cls in _classes(base, with_subclasses):
            out.extend((cls, name, layer) for name in _selected(cls, methods))
    return out


Installed = List[Tuple[type, str, Any]]


def install(recorder: SpanRecorder) -> Installed:
    """Wrap every target; returns what :func:`uninstall` restores."""
    recorder.request_type = getattr(
        importlib.import_module("repro.mds.messages"), "MdsRequest")
    installed: Installed = []
    for cls, name, layer in targets():
        original = cls.__dict__[name]
        span_name = f"{cls.__name__}.{name}"
        installed.append((cls, name, original))
        setattr(cls, name, _wrap(recorder, span_name, layer, original))
    return installed


def uninstall(installed: Installed) -> None:
    """Put back every original the matching :func:`install` replaced."""
    for cls, name, original in reversed(installed):
        setattr(cls, name, original)
