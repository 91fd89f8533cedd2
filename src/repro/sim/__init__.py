"""Discrete-event simulation kernel (substrate S1 in DESIGN.md).

A small, deterministic, dependency-free simpy-like kernel:

* :class:`Environment` — event calendar and clock.
* :class:`Event` / :class:`Timeout` — triggerable conditions.
* :class:`Process` — generator-coroutine processes that ``yield`` events;
  :func:`start_inline` starts one without boot or completion events.
* :class:`Resource` / :class:`Store` — FIFO servers and blocking buffers.
* :class:`RngStreams` — named reproducible random streams.
"""

from .engine import Environment, Event, Timeout, NORMAL, URGENT
from .errors import EventAlreadyTriggered, ProcessCrashed, SimulationError
from .process import Interrupt, Process, start_inline
from .resources import Request, Resource, Store
from .rng import RngStreams, derive_seed

__all__ = [
    "Environment",
    "Event",
    "EventAlreadyTriggered",
    "Interrupt",
    "NORMAL",
    "Process",
    "ProcessCrashed",
    "Request",
    "Resource",
    "RngStreams",
    "SimulationError",
    "Store",
    "Timeout",
    "URGENT",
    "derive_seed",
    "start_inline",
]
