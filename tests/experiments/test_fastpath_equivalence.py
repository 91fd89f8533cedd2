"""The request-path fast lane must be invisible to results.

``REPRO_FASTPATH=0`` (reference walks, no memo, no authority cache) and
``REPRO_FASTPATH=1`` must produce bit-identical summaries for the same
seed: the fast lane is pure memoisation, never a behaviour change.  The
switch is read at wiring time, so each mode gets its own build.
"""

import hashlib

import pytest

from repro._fastpath import FASTPATH_ENV, fastpath_enabled
from repro.api import build_simulation, overload_config, scaling_config


def _summary_for(monkeypatch, fastpath: bool):
    monkeypatch.setenv(FASTPATH_ENV, "1" if fastpath else "0")
    assert fastpath_enabled() is fastpath
    cfg = scaling_config("DynamicSubtree", 4, 0.1, seed=42)
    sim = build_simulation(cfg)
    sim.run_to(cfg.run_until_s)
    return sim


def test_fixed_seed_summaries_identical(monkeypatch):
    off = _summary_for(monkeypatch, False)
    on = _summary_for(monkeypatch, True)
    assert repr(off.summary()) == repr(on.summary())


def test_fastpath_wiring_follows_env(monkeypatch):
    off = _summary_for(monkeypatch, False)
    assert off.cluster.ns.resolution_memo is None
    on = _summary_for(monkeypatch, True)
    memo = on.cluster.ns.resolution_memo
    assert memo is not None
    assert memo.hits > 0  # the run actually exercised the fast lane
    memo.verify_invariants()


@pytest.mark.parametrize("token,expected", [
    ("0", False), ("off", False), ("FALSE", False), ("no", False),
    ("1", True), ("on", True), ("anything", True),
])
def test_fastpath_env_tokens(monkeypatch, token, expected):
    monkeypatch.setenv(FASTPATH_ENV, token)
    assert fastpath_enabled() is expected


def test_fastpath_defaults_on(monkeypatch):
    monkeypatch.delenv(FASTPATH_ENV, raising=False)
    assert fastpath_enabled() is True


def test_kernel_counters_prove_event_elision(monkeypatch):
    """The fast lane's win is visible in the kernel counters: fewer
    calendar events for the same simulated work, with every elision
    accounted as a fast resume and the freelists actually reused."""
    off = _summary_for(monkeypatch, False).env.kernel_stats()
    on = _summary_for(monkeypatch, True).env.kernel_stats()
    assert off["fastlane"] is False and on["fastlane"] is True
    assert off["fast_resumes"] == 0
    assert on["fast_resumes"] > 0
    assert on["events_scheduled"] < off["events_scheduled"]
    assert on["pool_reuse_rate"] > 0.5


def test_summary_carries_kernel_counters_outside_equivalence(monkeypatch):
    """``summary().kernel`` exposes the counters, but stays out of the
    repr/equality contract — the modes differ there by design."""
    off = _summary_for(monkeypatch, False).summary()
    on = _summary_for(monkeypatch, True).summary()
    assert on.kernel is not None and off.kernel is not None
    assert on.kernel["fast_resumes"] > 0
    assert on.kernel != off.kernel
    assert "kernel" not in repr(on)
    assert repr(off) == repr(on)



# -- the admission-control + proxy path ------------------------------------

#: summary digests of the tiny overload run (open loop at 1.25x capacity,
#: admission control, proxy tier), recorded before the proxy tier started
#: its per-request bodies inline and delivered replies in one calendar
#: entry: neither change may move a result
OVERLOAD_DIGESTS = {
    1: "3c1749110f3078d6c65bf7f432d95881c4d2f33b4e067a53522eba8e4c708b75",
    2: "2e046bf29a59c441216a3b8e9339776b645ddb6bf5b44cce98e873ab6d98f06e",
    3: "54ce70d004ebb7d0a6e18c6ff35ac9c63b42008cb17c16e5a820384a2e05db2b",
}


def _overload_run(monkeypatch, fastpath: bool, seed: int):
    monkeypatch.setenv(FASTPATH_ENV, "1" if fastpath else "0")
    cfg = overload_config(1.25, proxy=True, scale=0.1, warmup_s=0.1,
                          duration_s=1.0, seed=seed)
    sim = build_simulation(cfg)
    sim.run_to(cfg.run_until_s)
    return sim


def _digest(summary) -> str:
    # repr(summary) leaves out the open-loop and proxy counters
    extra = (summary.offered_ops, summary.dropped_ops,
             summary.slo_violations, summary.goodput_ops_per_s,
             sorted((summary.proxy or {}).items()))
    return hashlib.sha256(f"{summary!r}|{extra!r}".encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(OVERLOAD_DIGESTS))
def test_overload_proxy_summaries_identical_and_pinned(monkeypatch, seed):
    off = _overload_run(monkeypatch, False, seed).summary()
    on = _overload_run(monkeypatch, True, seed).summary()
    assert repr(off) == repr(on)
    assert off.proxy == on.proxy
    assert on.proxy["requests"] > 0 and on.proxy["invalidations"] > 0
    assert _digest(off) == _digest(on) == OVERLOAD_DIGESTS[seed]


# -- work counters ------------------------------------------------------------
# Calendar entries per completed op are deterministic for a fixed seed, so
# they are pinned exactly: a per-request boot, completion or timer entry
# coming back on the proxy path adds ~1.6 entries per op.

#: tiny overload run, seed 42: events_scheduled / total_ops
OVERLOAD_EVENTS_PER_OP = 33868 / 3571
#: tiny scaling run, seed 42 (its request path has no proxy)
SCALING_EVENTS_PER_OP = 7373 / 1767


def _events_per_op(sim) -> float:
    return sim.env.kernel_stats()["events_scheduled"] / sim.summary().total_ops


def test_overload_events_per_op_bounded(monkeypatch):
    sim = _overload_run(monkeypatch, True, 42)
    assert _events_per_op(sim) <= OVERLOAD_EVENTS_PER_OP


def test_scaling_events_per_op_unchanged(monkeypatch):
    monkeypatch.setenv(FASTPATH_ENV, "1")
    cfg = scaling_config("DynamicSubtree", 4, 0.1, seed=42, warmup_s=0.2,
                         duration_s=1.0)
    sim = build_simulation(cfg)
    sim.run_to(cfg.run_until_s)
    assert _events_per_op(sim) == SCALING_EVENTS_PER_OP
