"""Garbage ledger: a run leaves nothing for the cyclic collector.

Every per-query, per-tick and per-role object of the simulator is freed by
refcount the moment it is discarded; an object that can reach itself (a
closure naming itself, a callback bound to its own holder, a role and its
plane pointing at each other) is only freed by some later pass of the
cyclic collector, and on a per-query path that costs host time out of all
proportion: before ``retrying_rpc`` kept its state in a record, 13 % of
the ``overload`` workload's run time, visible in no layer's profile.

Each scenario below is built, the heap is swept, and the run then happens
under ``gc.DEBUG_SAVEALL``, which parks everything the collector *would*
have freed in ``gc.garbage`` instead.  The world outlives the measurement,
so whatever lands there was discarded by the run itself.  The ledger must
be empty -- no allowance.  At the commit before this test existed the same
scenarios left (objects): flower 43 536, petalup 45 786, squirrel 11 188,
squirrel-home 9 761, faults + replication 42 358, search 48 864,
overload 413 999, swarming 50 319, chaos 62 266, sharded 45 763.

To read a failure: the message lists the leaked types and the functions
and bound methods among them; the self-reference is in one of those.
Collector *activity* over a run is ``gc.get_stats()`` before and after
(see docs/PROTOCOLS.md, "Freed by refcount").
"""

import gc
from collections import Counter

import pytest

from repro.chaos import generate_plan, run_chaos
from repro.chaos import runner as chaos_runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_world
from repro.experiments.sharded import ShardCell, default_window_ms
from repro.net.faults import (
    BurstyLossSpec,
    LatencySpikeSpec,
    MassFailureSpec,
    PartitionSpec,
)
from repro.net.shardnet import ShardMap
from repro.sim.clock import hours, minutes
from repro.sim.sharded import run_windows

SEED = 1

BASE = ExperimentConfig.scaled(
    population=120,
    duration_hours=3.0,
    num_websites=6,
    num_active_websites=2,
    num_localities=2,
    objects_per_website=40,
)

FAULTS = (
    PartitionSpec(locality=0, start_ms=hours(1), heal_ms=hours(1) + minutes(15)),
    LatencySpikeSpec(
        start_ms=hours(1) + minutes(10),
        end_ms=hours(2),
        multiplier=2.0,
        additive_ms=20.0,
    ),
    BurstyLossSpec(
        p_good_to_bad=0.05,
        p_bad_to_good=0.3,
        loss_bad=0.9,
        start_ms=hours(1) + minutes(10),
        end_ms=hours(2.25),
    ),
    MassFailureSpec(at_ms=hours(2.5), fraction=0.3, locality=0),
)

#: One open-loop flash crowd over bounded admission queues: the
#: ``overload`` benchmark workload at a tenth of its length.
OVERLOAD = ExperimentConfig.scaled(
    population=100,
    duration_hours=0.25,
    num_websites=6,
    num_active_websites=2,
    num_localities=2,
    objects_per_website=120,
    peer_cache_capacity=15,
    directory_replication_k=2,
    directory_load_limit=12,
    max_instances=8,
    openloop_rate_qps=100 / 6.0,
    openloop_diurnal_amplitude=0.25,
    openloop_surges=((hours(0.125), 60_000.0, 2.0, hours(50), 0, -1, 0.9),),
    directory_queue_limit=6,
    directory_service_ms=400.0,
    overload_shedding=True,
    redirect_hints=True,
    rebalance=True,
    rebalance_cooldown_rounds=0,
    rebalance_max_keys=32,
    rebalance_budget_kb=8192.0,
)

SWARMING = BASE.replace(
    objects_per_website=100,
    directory_replication_k=2,
    swarming=True,
    object_mean_kb=256.0,
    bandwidth_kbps=4000.0,
    bandwidth_slow_fraction=0.2,
    swarm_replicate=2,
)

#: scenario -> (protocol, config): one per protocol, one per plane.
WORLDS = {
    "flower": ("flower", BASE),
    "petalup": ("petalup", BASE.replace(directory_load_limit=8, max_instances=4)),
    "squirrel": ("squirrel", BASE),
    "squirrel-home": ("squirrel-home", BASE),
    "faults + replication": (
        "flower",
        BASE.replace(fault_schedule=FAULTS, directory_replication_k=2),
    ),
    "search": (
        "flower",
        BASE.replace(
            directory_replication_k=2, search_keywords=8, search_probe_period_s=60.0
        ),
    ),
    "overload": ("petalup", OVERLOAD),
    "swarming": ("flower", SWARMING),
}


def collector_only(run):
    """The objects *run()* left for the cyclic collector."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def describe(garbage):
    types = Counter(type(obj).__name__ for obj in garbage)
    named = Counter(
        getattr(getattr(obj, "__func__", obj), "__qualname__", None)
        for obj in garbage
        if type(obj).__name__ in ("function", "method")
    )
    return (
        f"{len(garbage)} collector-only objects; "
        f"types {types.most_common(8)}; callables {named.most_common(8)}"
    )


@pytest.mark.parametrize("scenario", sorted(WORLDS))
def test_a_run_leaves_no_cyclic_garbage(scenario):
    protocol, config = WORLDS[scenario]
    world = build_world(protocol, config, SEED)
    garbage = collector_only(world.run)
    assert len(world.system.metrics) > 100  # the run did run
    assert not garbage, describe(garbage)


def test_a_chaos_run_leaves_no_cyclic_garbage(monkeypatch):
    """Fault plan, surges and the online auditor.  ``run_chaos`` builds its
    own world; holding on to it keeps the end-of-run teardown of the whole
    (legitimately cyclic, run-long) peer graph out of the ledger."""
    config = BASE.replace(directory_replication_k=2)
    plan = generate_plan(
        SEED,
        horizon_ms=config.duration_ms,
        num_localities=config.num_localities,
        num_websites=config.num_websites,
        intensity=1.5,
        population=config.population,
    )
    worlds = []

    def build_and_hold(*args, **kwargs):
        worlds.append(build_world(*args, **kwargs))
        return worlds[-1]

    monkeypatch.setattr(chaos_runner, "build_world", build_and_hold)
    reports = []
    garbage = collector_only(
        lambda: reports.append(
            run_chaos("flower", config, plan, seed=SEED, results_dir=None)
        )
    )
    assert reports[0].stats["audits"] > 0
    assert not garbage, describe(garbage)


def test_a_sharded_run_leaves_no_cyclic_garbage():
    """Two locality shards in lockstep windows over the cross-shard bus."""
    shard_map = ShardMap(2, BASE.num_localities, BASE.num_websites)
    window = default_window_ms(BASE)
    cells = {
        shard: ShardCell(BASE, SEED, shard_map, shard, window, False)
        for shard in range(2)
    }
    payloads = {}
    garbage = collector_only(
        lambda: payloads.update(run_windows(cells, BASE.duration_ms, window))
    )
    assert sorted(payloads) == [0, 1]
    assert not garbage, describe(garbage)
