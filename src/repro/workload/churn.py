"""The churn process: arrivals, exponential sessions, re-joining identities.

The paper simulates churn "based on a study [Stutzbach & Rejaie] where P2P
population converges to a desired size P": the arrival rate equals the mean
departure rate P/m, where m is the mean peer uptime (60 minutes), uptimes
are exponentially distributed, peers *always crash* (never leave politely),
and "a peer might re-join multiple times during an experiment, each time
with a different uptime".  The identity pool holds ``1.3 x P`` peers (the
paper's "total network size").

:class:`ChurnModel` owns the arrival/departure event machinery and nothing
else; what a peer *does* while online belongs to the CDN layer, which plugs
in through the two callbacks.  In expectation the online population is
``arrival_rate x mean_uptime = P`` -- a property the tests verify.

A :class:`ChurnSurgeSpec` is a burst of extra arrivals on top of that
process (a churn burst, or a flash crowd when pinned to one website); it
rides in ``ExperimentConfig.fault_schedule`` and is installed by
:meth:`ChurnModel.schedule_surge`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.errors import ConfigError, WorkloadError
from repro.sim.engine import Simulator

#: Fired when an identity comes online.
ArrivalCallback = Callable[[int], None]

#: Fired when an online identity crashes.
DepartureCallback = Callable[[int], None]


@dataclass(frozen=True)
class ChurnSurgeSpec:
    """A burst of extra arrivals on top of the baseline churn process.

    Attributes:
        start_ms / duration_ms: the surge window; arrivals are spread
            evenly across it.
        arrivals: how many extra identities are brought online.
        hot_website: if set, arriving identities are pinned to this
            website (a flash crowd); ``None`` keeps the uniform interest
            assignment (a plain churn burst).
        hot_interest_probability: fraction of surge arrivals that get the
            hot-website pin (ignored when ``hot_website`` is None).
    """

    start_ms: float
    duration_ms: float
    arrivals: int
    hot_website: Optional[int] = None
    hot_interest_probability: float = 0.8

    def __post_init__(self) -> None:
        if self.duration_ms <= 0 or self.arrivals < 1:
            raise ConfigError("surge needs a positive window and >= 1 arrival")
        if not 0.0 <= self.hot_interest_probability <= 1.0:
            raise ConfigError("hot_interest_probability must be in [0, 1]")


class ChurnModel:
    """Drives which peer identities are online when.

    Args:
        sim: the simulator.
        rng: random stream (exponential draws + identity choice).
        num_identities: size of the identity pool (1.3 x P in the paper).
        mean_uptime_ms: m, the mean session length.
        target_population: P; sets the arrival rate to P/m.
        on_arrival / on_departure: CDN-layer hooks.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        num_identities: int,
        mean_uptime_ms: float,
        target_population: int,
        on_arrival: ArrivalCallback,
        on_departure: DepartureCallback,
    ) -> None:
        if num_identities < 1:
            raise WorkloadError("identity pool must be non-empty")
        if mean_uptime_ms <= 0:
            raise WorkloadError("mean uptime must be positive")
        if target_population < 1:
            raise WorkloadError("target population must be positive")
        if target_population > num_identities:
            raise WorkloadError(
                f"target population {target_population} exceeds identity "
                f"pool {num_identities}"
            )
        self.sim = sim
        self.rng = rng
        self.num_identities = num_identities
        self.mean_uptime_ms = mean_uptime_ms
        self.target_population = target_population
        self.on_arrival = on_arrival
        self.on_departure = on_departure
        self._online: Set[int] = set()
        # Offline pool as swap-pop array + index map: O(1) admission of a
        # random identity AND O(1) removal of a *specific* identity (seeding),
        # so full-scale populations (REPRO_SCALE=full) stay O(1) per event.
        self._offline: List[int] = list(range(num_identities))
        self._offline_index: Dict[int, int] = {
            identity: index for index, identity in enumerate(self._offline)
        }
        self.arrivals = 0
        self.departures = 0
        self._started = False

    # ------------------------------------------------------------ inspection
    @property
    def online_count(self) -> int:
        return len(self._online)

    @property
    def mean_interarrival_ms(self) -> float:
        """1 / arrival rate; arrival rate is P/m (paper section 6.1)."""
        return self.mean_uptime_ms / self.target_population

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Begin the arrival process (idempotent)."""
        if self._started:
            return
        self._started = True
        self._schedule_next_arrival()

    def seed_online(self, identity: int) -> None:
        """Mark *identity* online without an arrival event.

        Used for the initial population (the 600 directory peers that form
        the starting D-ring, which "have limited uptimes" like everyone).
        The on_arrival callback is NOT fired -- the caller is constructing
        the peer itself.
        """
        self._take_offline_identity(identity)
        self._online.add(identity)
        self._schedule_departure(identity)

    def schedule_surge(
        self,
        spec: ChurnSurgeSpec,
        rng: random.Random,
        pin_website: Callable[[int, int], None],
    ) -> None:
        """Schedule every arrival of one surge.

        Arrivals are spread evenly across the window (jitter would need
        another draw per arrival for no modelling benefit).  The
        hot-website pin draws from *rng*, a stream of the caller's, so
        surge randomness never perturbs the churn or protocol streams;
        ``pin_website(identity, website)`` lands before the arrival
        callback, so the CDN layer sees the identity already pinned.
        """
        step = spec.duration_ms / spec.arrivals
        for i in range(spec.arrivals):
            at = spec.start_ms + (i + 0.5) * step
            self.sim.schedule(
                max(at - self.sim.now, 0.0), self._admit_surge, spec, rng, pin_website
            )

    def _admit_surge(
        self,
        spec: ChurnSurgeSpec,
        rng: random.Random,
        pin_website: Callable[[int, int], None],
    ) -> None:
        if spec.hot_website is not None and rng.random() < spec.hot_interest_probability:
            self._admit_arrival(lambda identity: pin_website(identity, spec.hot_website))
        else:
            self._admit_arrival()

    def draw_uptime_ms(self) -> float:
        """One exponential session length."""
        return self.rng.expovariate(1.0 / self.mean_uptime_ms)

    # --------------------------------------------------------------- internals
    def _take_offline_identity(self, identity: int) -> None:
        if identity in self._online:
            raise WorkloadError(f"identity {identity} is already online")
        index = self._offline_index.get(identity)
        if index is None:
            raise WorkloadError(f"unknown identity {identity}")
        self._pop_offline_at(index)

    def _pop_offline_at(self, index: int) -> int:
        """Swap-pop the identity at *index* from the offline pool: O(1)."""
        identity = self._offline[index]
        tail = self._offline[-1]
        self._offline[index] = tail
        self._offline_index[tail] = index
        self._offline.pop()
        del self._offline_index[identity]
        return identity

    def _schedule_next_arrival(self) -> None:
        gap = self.rng.expovariate(1.0 / self.mean_interarrival_ms)
        self.sim.schedule(gap, self._arrive)

    def _arrive(self) -> None:
        self._schedule_next_arrival()
        self._admit_arrival()

    def _admit_arrival(
        self, pre_arrival: Optional[ArrivalCallback] = None
    ) -> Optional[int]:
        """Bring one offline identity online; None if the pool is empty.

        Args:
            pre_arrival: optional hook invoked with the identity *before*
                the main arrival callback (subclasses use it to pin
                attributes, e.g. a flash crowd biasing website interest).
        """
        if not self._offline:
            # Pool exhausted (everyone already online): the arrival is lost,
            # exactly as if the would-be joiner were already a member.
            self.sim.emit("churn.arrival_skipped")
            return None
        index = self.rng.randrange(len(self._offline))
        identity = self._pop_offline_at(index)
        self._online.add(identity)
        self.arrivals += 1
        self.sim.emit("churn.arrival", identity=identity)
        self._schedule_departure(identity)
        if pre_arrival is not None:
            pre_arrival(identity)
        self.on_arrival(identity)
        return identity

    def _schedule_departure(self, identity: int) -> None:
        self.sim.schedule(self.draw_uptime_ms(), self._depart, identity)

    def _depart(self, identity: int) -> None:
        if identity not in self._online:
            return  # already taken down by an earlier session's timer
        self._online.remove(identity)
        self._offline_index[identity] = len(self._offline)
        self._offline.append(identity)
        self.departures += 1
        self.sim.emit("churn.departure", identity=identity)
        self.on_departure(identity)
