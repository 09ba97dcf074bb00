"""Invariant I10 judged on a run that actually hops.

The chaos lanes' ``--overload --rebalance`` recipe offers too little load
for any hint hop, spill or adoption to happen, so the auditor's I10
handlers need a world that saturates its directories: the reactive arm of
``benchmarks/bench_cloud_heavy.py`` (sustained 2x open-loop overload over
tight admission queues, redirect hints and content rebalancing on),
shrunk to a few seconds.
"""

from repro.chaos.auditor import InvariantAuditor
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_world
from repro.sim.clock import hours, minutes

I10_KINDS = (
    "hint_hop_unaccounted",
    "hint_hop_loop",
    "hint_hop_not_less_loaded",
    "hint_hop_repeated",
)


def test_hint_hops_and_rebalancing_keep_invariant_i10():
    population = 60
    config = ExperimentConfig.scaled(
        population=population,
        duration_hours=2.0,
        num_websites=6,
        num_active_websites=2,
        num_localities=2,
        objects_per_website=120,
        peer_cache_capacity=15,
        directory_replication_k=2,
        directory_load_limit=12,
        max_instances=8,
        openloop_rate_qps=population / 6.0,
        openloop_diurnal_amplitude=0.25,
        openloop_surges=((hours(0.5), minutes(10), 2.0, hours(50), 0, -1, 0.9),),
        directory_queue_limit=6,
        directory_service_ms=400.0,
        overload_shedding=True,
        redirect_hints=True,
        rebalance=True,
        rebalance_cooldown_rounds=0,
        rebalance_max_keys=32,
        rebalance_budget_kb=8192.0,
    )
    world = build_world("petalup", config, seed=17)
    auditor = InvariantAuditor(world, results_dir=None)
    world.run()
    violations = auditor.finalize()
    assert auditor.stats["hint_hops"] > 0
    assert auditor.stats["keys_rebalanced"] > 0
    assert auditor.stats["keys_adopted"] > 0
    assert [v.to_dict() for v in violations if v.kind in I10_KINDS] == []
