"""The popularity suite on the compiled model backend.

``test_popularity`` builds its counters through the module globals
``DecayCounter`` and ``PopularityMap``.  Its tests are imported here and
collected a second time; the module-scoped autouse fixture swaps those
globals for the ``repro.model._cmodel`` classes while this module runs
(the pattern of ``tests/cache/conftest.py``), so the identical assertions
hold on both backends; the one known difference is marked as a strict
xfail below.  The replay case compares the two backends directly.
Everything here skips when the extension is not built.
"""

import random

import pytest

from repro.model.backend import compiled_model_viable, make_popularity_map
from tests.mds import test_popularity as suite
from tests.mds.test_popularity import *  # noqa: F401,F403 (re-collected)


@pytest.fixture(scope="module", autouse=True)
def compiled_popularity():
    if not compiled_model_viable():
        pytest.skip("compiled model extension not built")
    from repro.model import _cmodel
    original = suite.DecayCounter, suite.PopularityMap
    suite.DecayCounter = _cmodel.DecayCounter
    suite.PopularityMap = _cmodel.PopularityMap
    yield
    suite.DecayCounter, suite.PopularityMap = original


@pytest.mark.xfail(raises=TypeError, strict=True,
                   reason="the compiled PopularityMap.prune takes `now` "
                          "only positionally; the reference also accepts "
                          "prune(now=...)")
def test_map_prune_drops_cold_counters():
    suite.test_map_prune_drops_cold_counters()


def _replay(model: str) -> str:
    """A fixed ``add_chain``/``add``/``prune`` sequence, with a few
    timestamps stepping backwards; returns the ``repr`` of every prune
    count and of every counter read at the end.  The half-life is not a
    power of two, so a reordered decay expression rounds differently."""
    pop = make_popularity_map(0.3, model=model)
    rng = random.Random(7)
    reads = []
    now = 0.0
    for step in range(3000):
        now += rng.random() * 0.02
        at = now - 0.01 if step % 17 == 0 else now
        chain = [1] + [rng.randrange(2, 200)
                       for _ in range(rng.randrange(1, 6))]
        pop.add_chain(chain, at)
        pop.add(rng.randrange(200, 400), at, rng.random() * 3.0)
        if step % 100 == 99:
            reads.append(pop.prune(now, floor=0.05))
    reads.extend(pop.read(ino, now + 0.25) for ino in range(400))
    reads.append(len(pop))
    return repr(reads)


def test_replay_leaves_identical_counters_on_both_backends():
    assert _replay("reference") == _replay("compiled")
