"""Overload scenario builders and the end-to-end accessor plumbing."""

import dataclasses

import pytest

from repro.api import run_experiment
from repro.experiments.overload import (ADMISSION_INBOX, HOTSPOT_INBOX,
                                        NOMINAL_CAPACITY_OPS_S,
                                        OVERLOAD_N_MDS, PER_USER_OPS_S,
                                        SLO_LATENCY_S, fig_hotspot,
                                        fig_overload, hotspot_config,
                                        overload_config)
from repro.experiments.runner import run_steady_state
from repro.experiments.workload import OpenLoopSpec


class TestOverloadConfig:
    def test_user_population_derives_the_offered_rate(self):
        cfg = overload_config(1.0)
        spec = cfg.workload
        assert isinstance(spec, OpenLoopSpec)
        assert spec.implied_users == round(
            NOMINAL_CAPACITY_OPS_S / PER_USER_OPS_S)
        assert spec.offered_rate_ops_per_s == pytest.approx(
            NOMINAL_CAPACITY_OPS_S)
        assert spec.slo_latency_s == SLO_LATENCY_S

    def test_admission_toggle_bounds_the_inbox(self):
        assert overload_config(
            1.0, admission=True).params.inbox_capacity == ADMISSION_INBOX
        assert overload_config(
            1.0, admission=False).params.inbox_capacity is None

    def test_proxy_toggle(self):
        assert overload_config(1.0, proxy=False).proxy is None
        assert overload_config(1.0, proxy=True).proxy is not None

    def test_cluster_size_and_strategy(self):
        cfg = overload_config(0.8, strategy="StaticSubtree")
        assert cfg.n_mds == OVERLOAD_N_MDS
        assert cfg.strategy == "StaticSubtree"

    def test_overrides_win(self):
        assert overload_config(1.0, seed=9).seed == 9
        assert overload_config(1.0, scale=0.25).scale == 0.25


class TestHotspotConfig:
    def test_traffic_control_toggle(self):
        assert hotspot_config(tc=True, proxy=False).params.traffic_control
        assert not hotspot_config(tc=False,
                                  proxy=True).params.traffic_control

    def test_hotspot_overlay_is_on(self):
        cfg = hotspot_config(tc=False, proxy=False)
        assert cfg.workload.hotspot_prob > 0
        assert cfg.workload.arrival == "bursty"
        assert cfg.params.inbox_capacity == HOTSPOT_INBOX

    def test_variants_share_seed_and_load(self):
        a = hotspot_config(tc=True, proxy=False)
        b = hotspot_config(tc=False, proxy=True)
        assert a.seed == b.seed
        assert a.workload.offered_rate_ops_per_s == pytest.approx(
            b.workload.offered_rate_ops_per_s)


def tiny_overload(**kw):
    base = dict(scale=0.2, warmup_s=0.2, duration_s=0.5,
                cache_capacity_per_mds=2000)
    base.update(kw)
    spec = OpenLoopSpec(kind="general", rate_ops_per_s=6000.0, sources=16,
                        slo_latency_s=0.010)
    return dataclasses.replace(
        overload_config(1.0, **base),
        workload=spec, files_per_user=20)


class TestEndToEnd:
    def test_run_experiment_exposes_overload_accessors(self):
        res = run_experiment(tiny_overload())
        assert res.offered_ops > 0
        assert res.dropped_ops >= 0
        assert res.slo_violations >= 0
        assert res.goodput_ops_per_s > 0
        assert res.offered_ops == res.summary.offered_ops

    def test_run_steady_state_carries_overload_fields(self):
        res = run_steady_state(tiny_overload())
        assert res.offered_ops > 0
        assert res.goodput_ops_per_s > 0
        window = res.config.measure_window
        good = res.goodput_ops_per_s * (window[1] - window[0])
        assert good <= res.offered_ops

    def test_closed_loop_summary_format_omits_overload_rows(self):
        from repro.experiments import (ClosedLoopSpec, ExperimentConfig,
                                       build_simulation)
        cfg = ExperimentConfig(n_mds=3, scale=0.2, warmup_s=0.2,
                               duration_s=0.5,
                               workload=ClosedLoopSpec())
        sim = build_simulation(cfg)
        sim.run_to(cfg.run_until_s)
        text = sim.summary().format()
        assert "offered ops" not in text
        assert "dropped ops" not in text

    def test_open_loop_summary_format_shows_overload_rows(self):
        from repro.experiments import build_simulation
        cfg = tiny_overload()
        sim = build_simulation(cfg)
        sim.run_to(cfg.run_until_s)
        text = sim.summary().format()
        assert "offered ops" in text
        assert "goodput (ops/s)" in text


class TestFigureShapes:
    """The shapes the overload and hotspot figures claim, asserted on a
    three-point sweep (0.5x, 1.0x and 1.6x capacity) at scale 0.3 and
    the hotspot head-to-head at scale 0.25.  Goodput and latency are
    simulated quantities, so these are deterministic per seed."""

    @pytest.fixture(scope="class")
    def goodput(self):
        fig = fig_overload(scale=0.3, fractions=[0.5, 1.0, 1.6])
        return {name: [g for _offered, g in points]
                for name, points in fig.series.items()}

    @pytest.fixture(scope="class")
    def hotspot_p99_ms(self):
        fig = fig_hotspot(scale=0.25)
        return {row[0]: row[2] for row in fig.rows}

    def test_goodput_collapses_past_the_knee_without_admission(self,
                                                              goodput):
        no_ac = goodput["dynamic no-AC"]
        assert no_ac[-1] < 0.5 * max(no_ac)

    def test_admission_control_holds_goodput(self, goodput):
        ac = goodput["dynamic AC"]
        assert ac[-1] >= 0.8 * max(ac)

    def test_proxy_beats_traffic_control_on_p99(self, hotspot_p99_ms):
        assert hotspot_p99_ms["proxy"] < hotspot_p99_ms["traffic-control"]
