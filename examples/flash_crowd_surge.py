#!/usr/bin/env python
"""A true flash crowd: a sudden surge of arrivals on one website.

Unlike examples/flash_crowd.py (steady demand on a hot site), this run
schedules a burst: at hour 2 a :class:`~repro.workload.churn.ChurnSurgeSpec`
in the config's ``fault_schedule`` brings 300 extra peers online over 75
minutes -- on top of the baseline churn, and 90 % of them interested in
the hot website.  Watch the petals absorb the wave: the origin server's
load rises with the front of the crowd and falls back as the community
starts serving itself.

Runtime: a few seconds.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_world
from repro.metrics.report import render_table
from repro.sim.clock import hours, minutes
from repro.workload.churn import ChurnSurgeSpec

HOT_WEBSITE = 0


def main() -> None:
    surge = ChurnSurgeSpec(
        start_ms=hours(2),
        duration_ms=minutes(75),
        arrivals=300,
        hot_website=HOT_WEBSITE,
        hot_interest_probability=0.9,
    )
    config = ExperimentConfig.scaled(
        population=150,
        duration_hours=8.0,
        num_websites=6,
        num_active_websites=1,
        num_localities=3,
        objects_per_website=60,
        peer_pool_factor=4.0,  # a deep pool: the crowd comes from outside
        fault_schedule=(surge,),
    )
    world = build_world("flower", config, seed=23)
    system, churn = world.system, world.churn

    print(
        f"flash crowd at hour 2: {surge.arrivals} extra arrivals within "
        f"{surge.duration_ms / minutes(1):.0f} minutes, "
        f"{surge.hot_interest_probability:.0%} of them want website "
        f"{HOT_WEBSITE}"
    )
    print()
    rows = []
    hot_server = system.servers[HOT_WEBSITE]
    last_origin = last_queries = last_arrivals = 0
    for hour in range(1, int(config.duration_hours) + 1):
        world.run(until_ms=hours(hour))
        queries = len(system.metrics)
        origin = hot_server.requests_served
        window_queries = queries - last_queries
        window_origin = origin - last_origin
        offload = 1 - window_origin / window_queries if window_queries else 0.0
        community = sum(
            system.petal_size(HOT_WEBSITE, loc) for loc in range(config.num_localities)
        )
        rows.append(
            [
                hour,
                churn.arrivals - last_arrivals,
                churn.online_count,
                window_queries,
                window_origin,
                f"{offload:.0%}",
                community,
            ]
        )
        last_origin, last_queries = origin, queries
        last_arrivals = churn.arrivals

    print(
        render_table(
            ["hour", "arrivals", "online", "queries", "origin hits",
             "offloaded", "hot petals"],
            rows,
            title="the surge and its absorption",
        )
    )
    print()
    print(
        f"surge arrivals: {surge.arrivals} of {churn.arrivals} total; "
        f"final hit ratio {system.metrics.hit_ratio():.3f}"
    )


if __name__ == "__main__":
    main()
