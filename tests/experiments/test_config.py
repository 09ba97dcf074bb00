"""Unit tests for the experiment configuration."""

import pytest

from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig


def test_paper_defaults_match_table_1():
    config = ExperimentConfig.paper()
    assert config.population == 3000
    assert config.peer_pool_factor == 1.3
    assert config.mean_uptime_min == 60.0
    assert config.duration_hours == 24.0
    assert config.num_websites == 100
    assert config.objects_per_website == 500
    assert config.num_active_websites == 6
    assert config.num_localities == 6
    assert (config.latency_min_ms, config.latency_max_ms) == (10.0, 500.0)
    assert config.query_interval_min == 6.0
    assert config.gossip_period_min == 60.0
    assert config.push_threshold == 0.5


def test_num_identities_is_pool_factor_times_population():
    config = ExperimentConfig.paper(population=3000)
    assert config.num_identities == 3900


def test_duration_ms():
    assert ExperimentConfig.paper().duration_ms == 24 * 3_600_000


def test_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(population=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(peer_pool_factor=0.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(duration_hours=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(topology="mesh")
    with pytest.raises(ConfigError):
        ExperimentConfig(num_websites=5, num_active_websites=6)


def test_seed_population_must_fit_pool():
    with pytest.raises(ConfigError):
        # 100 websites x 6 localities = 600 seeds > 130 identities
        ExperimentConfig(population=100)


def test_scaled_preserves_protocol_periods():
    config = ExperimentConfig.scaled()
    assert config.query_interval_min == 6.0
    assert config.gossip_period_min == 60.0
    assert config.push_threshold == 0.5
    assert config.num_websites < 100  # but the world is smaller


def test_scaled_overrides():
    config = ExperimentConfig.scaled(population=100, num_websites=5)
    assert config.population == 100
    assert config.num_websites == 5


def test_replace():
    config = ExperimentConfig.paper()
    changed = config.replace(population=2000)
    assert changed.population == 2000
    assert config.population == 3000  # frozen original untouched


def test_systems_derive_protocol_periods():
    """What a CDN system derives from its config, pinned to the values the
    pre-derivation parameter copy held (ms)."""
    from tests.cdn.conftest import CdnWorld

    for config, maintenance_ms in (
        (ExperimentConfig(), 120_000.0),
        (ExperimentConfig.scaled(), 60_000.0),
        (ExperimentConfig.paper(5000), 120_000.0),
    ):
        system = CdnWorld(params=config).system
        assert system.params is config
        assert system.query_interval_ms == 360_000.0
        assert system.gossip_period_ms == 3_600_000.0
        ring = system.ring.params
        assert ring.maintenance_period_ms == maintenance_ms
        assert ring.rpc_timeout_ms == 1_200.0
        assert (ring.bits, ring.successor_list_size) == (32, 8)


def test_cdn_knob_validation():
    for bad in (
        dict(query_interval_min=0.0),
        dict(gossip_period_min=0.0),
        dict(push_threshold=0.0),
        dict(max_instances=0),
        dict(directory_load_limit=0),
        dict(peer_cache_capacity=0),
        dict(swarm_parallel=0),
        dict(swarm_sources=0),
        dict(swarm_replicate=-1),
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)


def test_unknown_kwargs_still_rejected():
    with pytest.raises(TypeError):
        ExperimentConfig(not_a_field=1)


def test_json_shape_is_still_flat():
    """The chaos-bundle JSON shape is the flat field list, so old bundles
    replay unchanged."""
    import dataclasses as dc

    from repro.chaos.runner import config_from_dict, config_to_dict

    config = ExperimentConfig(
        directory_replication_k=2,
        redirect_hints=True,
        directory_queue_limit=4,
        rebalance=True,
    )
    data = config_to_dict(config)
    assert set(data) == {f.name for f in dc.fields(ExperimentConfig)}
    assert "replication" not in data and "overload" not in data
    assert config_from_dict(data) == config


def test_reactive_plane_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(redirect_hints=True)  # needs a queue limit
    with pytest.raises(ConfigError):
        ExperimentConfig(rebalance_max_keys=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(rebalance_budget_kb=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(rebalance_cooldown_rounds=-1)
