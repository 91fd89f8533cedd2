"""The adaptive proxy tier: absorption, invalidation, delegation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import ExperimentConfig, OpenLoopSpec, build_simulation
from repro.mds import SimParams
from repro.mds.messages import READ_ONLY_OPS, MdsRequest, OpType
from repro.proxy import ProxySpec, ProxyTier
from repro.proxy import tier as tier_module


def proxied_cfg(hotspot=True, proxy_spec=None, **kw):
    spec = OpenLoopSpec(
        kind="general", rate_ops_per_s=4000.0, sources=8,
        hotspot_prob=0.8 if hotspot else 0.0,
        hotspot_start_s=0.15, hotspot_duration_s=0.3)
    base = dict(
        n_mds=2, scale=0.25, workload=spec, warmup_s=0.2, duration_s=0.4,
        cache_capacity_per_mds=2000,
        params=SimParams(inbox_capacity=32),
        proxy=proxy_spec or ProxySpec(hot_threshold=5.0))
    base.update(kw)
    return ExperimentConfig(**base)


def run(cfg):
    sim = build_simulation(cfg)
    sim.run_to(cfg.run_until_s)
    return sim


class TestSpecValidation:
    @pytest.mark.parametrize("field,value", [
        ("n_proxies", 0), ("cpu_op_s", -1.0), ("cache_ttl_s", 0.0),
        ("hot_threshold", 0.0), ("popularity_halflife_s", 0.0),
        ("max_cached_paths", 0), ("overload_retries", -1),
        ("retry_backoff_s", -0.001)])
    def test_rejects_bad_knobs(self, field, value):
        with pytest.raises(ValueError, match=field):
            ProxySpec(**{field: value}).validate()

    def test_defaults_validate(self):
        assert ProxySpec().validate() is not None


class TestAbsorption:
    def test_hotspot_reads_are_absorbed(self):
        sim = run(proxied_cfg())
        stats = sim.proxy.stats_dict()
        assert stats["absorbed"] > 0
        # the cache saved real upstream round trips
        assert stats["forwarded"] < stats["requests"]

    def test_no_hotspot_little_absorption(self):
        hot = run(proxied_cfg(hotspot=True)).proxy.stats_dict()
        cold = run(proxied_cfg(hotspot=False)).proxy.stats_dict()
        assert cold["absorbed"] < hot["absorbed"]

    def test_stats_dict_shape(self):
        stats = run(proxied_cfg()).proxy.stats_dict()
        assert set(stats) == {"requests", "absorbed", "coalesced",
                              "forwarded", "invalidations", "retries"}
        assert all(v >= 0 for v in stats.values())

    def test_requests_all_routed_through_proxies(self):
        sim = run(proxied_cfg())
        offered = sum(c.stats.offered for c in sim.clients)
        assert sim.proxy.stats_dict()["requests"] == offered


class TestInvalidation:
    def test_mutation_drops_cached_replies_on_every_node(self):
        sim = run(proxied_cfg())
        tier = sim.proxy
        path = sim.snapshot.user_roots[0]
        fake_reply = object()
        for n in tier.nodes:
            n._cache.clear()  # drop run leftovers so the delta is exact
            n._cache[(OpType.OPEN, path)] = (fake_reply, sim.env.now)
        before = sum(n.stats.invalidations for n in tier.nodes)
        request = MdsRequest(op=OpType.UNLINK, path=path, client_id=0)
        tier.invalidate(request)
        assert all((OpType.OPEN, path) not in n._cache for n in tier.nodes)
        after = sum(n.stats.invalidations for n in tier.nodes)
        assert after - before == len(tier.nodes)

    def test_unrelated_mutation_leaves_cache_alone(self):
        sim = run(proxied_cfg())
        tier = sim.proxy
        cached, other = sim.snapshot.user_roots[:2]
        node = tier.nodes[0]
        node._cache[(OpType.OPEN, cached)] = (object(), sim.env.now)
        request = MdsRequest(op=OpType.UNLINK, path=other, client_id=0)
        tier.invalidate(request)
        assert (OpType.OPEN, cached) in node._cache

    # Invalidation looks up the (op, path) keys a mutation can have staled
    # instead of scanning each proxy's whole reply cache.
    @staticmethod
    def _fresh_tier():
        sim = build_simulation(proxied_cfg())  # built, not run: empty caches
        return sim, sim.proxy

    @staticmethod
    def _fill(node, path, ops, env):
        for op in ops:
            node._cache[(op, path)] = (object(), env.now)

    def test_cached_ops_are_the_read_only_ops_in_a_fixed_order(self):
        assert isinstance(tier_module._CACHED_OPS, tuple)
        assert len(tier_module._CACHED_OPS) == len(READ_ONLY_OPS)
        assert set(tier_module._CACHED_OPS) == READ_ONLY_OPS

    def test_drops_every_read_key_of_path_and_dst_on_every_proxy(self):
        sim, tier = self._fresh_tier()
        src, dst = sim.snapshot.user_roots[:2]
        for node in tier.nodes:
            self._fill(node, src, READ_ONLY_OPS, sim.env)
            self._fill(node, dst, READ_ONLY_OPS, sim.env)
        rename = MdsRequest(op=OpType.RENAME, path=src, dst_path=dst,
                            client_id=0)
        tier.invalidate(rename)
        for node in tier.nodes:
            assert node._cache == {}
            # one count per dropped key: four read ops, two paths
            assert node.stats.invalidations == 2 * len(READ_ONLY_OPS)

    def test_rename_destination_cached_on_another_proxy(self):
        sim, tier = self._fresh_tier()
        roots = sim.snapshot.user_roots
        src = roots[0]
        # a destination owned by a different proxy than the source
        dst = next(p for p in roots[1:] if tier._route(p) != tier._route(src))
        owner = tier.nodes[tier._route(dst)]
        self._fill(owner, dst, [OpType.READDIR], sim.env)
        tier.invalidate(MdsRequest(op=OpType.RENAME, path=src, dst_path=dst,
                                   client_id=0))
        assert (OpType.READDIR, dst) not in owner._cache
        assert owner.stats.invalidations == 1
        assert sum(n.stats.invalidations for n in tier.nodes) == 1

    def test_counts_only_keys_actually_cached(self):
        sim, tier = self._fresh_tier()
        path = sim.snapshot.user_roots[0]
        node = tier.nodes[0]
        self._fill(node, path, [OpType.OPEN, OpType.STAT], sim.env)
        tier.invalidate(MdsRequest(op=OpType.UNLINK, path=path, client_id=0))
        assert node.stats.invalidations == 2
        assert all(n.stats.invalidations == 0 for n in tier.nodes[1:])

    def test_keys_for_other_paths_survive(self):
        sim, tier = self._fresh_tier()
        stale, kept, child = (sim.snapshot.user_roots[0],
                              sim.snapshot.user_roots[1],
                              sim.snapshot.user_roots[0] + ("f",))
        node = tier.nodes[0]
        for path in (stale, kept, child):
            self._fill(node, path, READ_ONLY_OPS, sim.env)
        tier.invalidate(MdsRequest(op=OpType.CHMOD, path=stale, client_id=0))
        assert {path for _op, path in node._cache} == {kept, child}
        assert len(node._cache) == 2 * len(READ_ONLY_OPS)

    def test_runs_do_not_depend_on_the_hash_seed(self):
        # frozenset iteration order over OpType follows the salted hash of
        # the enum names; a proxied run must come out the same anyway
        script = (
            "from repro.experiments import build_simulation\n"
            "from tests.proxy.test_proxy_tier import proxied_cfg\n"
            "cfg = proxied_cfg(duration_s=0.2)\n"
            "sim = build_simulation(cfg)\n"
            "sim.run_to(cfg.run_until_s)\n"
            "s = sim.summary()\n"
            "print(repr(s), sorted(s.proxy.items()))\n")
        root = Path(__file__).resolve().parents[2]
        src = Path(repro.__file__).resolve().parents[1]
        outputs = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([str(src), str(root)]))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  cwd=root, capture_output=True, text=True,
                                  check=True)
            outputs.add(done.stdout)
        assert len(outputs) == 1
        assert "'invalidations', 0)" not in outputs.pop()


class TestDelegation:
    def test_tier_exposes_cluster_surface(self):
        sim = run(proxied_cfg())
        tier = sim.proxy
        assert tier.strategy is sim.cluster.strategy
        assert tier.n_mds == sim.cluster.n_mds
        assert tier.params is sim.cluster.params
        assert tier.tracer is sim.cluster.tracer

    def test_key_affinity_routing_is_stable_and_in_range(self):
        sim = run(proxied_cfg())
        tier = sim.proxy
        for path in sim.snapshot.user_roots[:4]:
            route = tier._route(path)
            assert 0 <= route < len(tier.nodes)
            assert route == tier._route(path)


class TestDeterminism:
    def test_proxy_runs_are_deterministic(self):
        a = run(proxied_cfg())
        b = run(proxied_cfg())
        assert repr(a.summary()) == repr(b.summary())
        assert a.proxy.stats_dict() == b.proxy.stats_dict()

    def test_proxy_off_config_has_no_tier(self):
        sim = run(proxied_cfg(proxy_spec=None, proxy=None))
        assert sim.proxy is None
        assert sim.summary().proxy is None

    def test_summary_carries_proxy_counters(self):
        sim = run(proxied_cfg())
        assert sim.summary().proxy == sim.proxy.stats_dict()
