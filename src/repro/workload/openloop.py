"""Open-loop query arrivals: the workload that can actually saturate.

The paper's workload (Table 1) is *closed-loop*: every peer issues one
query per ``query_interval`` and waits for it to resolve, so total load
is capped at ``P / query_interval`` no matter how slow the directories
get -- queueing delay throttles the offered load, and overload is
unobservable by construction.  Production traffic is open-loop: requests
arrive whether or not earlier ones finished, and a saturated directory
builds a backlog instead of slowing its clients down.

This module adds that arrival process on top of the existing per-peer
machinery:

- a non-homogeneous Poisson process (via thinning: candidates drawn at
  the peak rate, each kept with probability rate / peak) with an
  optional sinusoidal **diurnal cycle** and any number of
  **regionally-correlated flash crowds** (:class:`RegionalSurge`) that
  concentrate the extra arrivals on one locality and optionally one hot
  website -- the MMPP-flavoured load mix production sees;
- each accepted arrival is attributed to an online peer and issued
  through the standard :meth:`~repro.cdn.base.BasePeer.resolve_query`
  path, so the query-lifecycle ledger, the metrics taxonomy and the
  chaos auditor all see open-loop queries exactly like closed-loop ones.

Determinism: the process draws exclusively from its own ``"openloop"``
RNG stream and is only constructed when ``openloop_rate_qps > 0`` -- a
rate of zero schedules no events, draws no randomness, and leaves the
golden event streams bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import WorkloadError

#: Redraw budget per arrival before the arrival is dropped: open-loop
#: traffic may repeat objects freely -- a repeat of a cached key is
#: simply an instant local hit -- but re-querying a key the target peer
#: already has *in flight* would violate the ledger's no-reopen
#: invariant, so those keys are redrawn.
_MAX_KEY_REDRAWS = 8

#: Period of the diurnal cycle: one day.
DIURNAL_PERIOD_MS = 86_400_000.0


@dataclass(frozen=True)
class RegionalSurge:
    """One regionally-correlated flash crowd riding the open-loop rate.

    Intensity shape: linear ramp from 1.0 to the peak, then exponential
    decay, floored at 1.0.  The surge is scoped: the *excess* arrivals
    land in one locality and -- with ``hot_probability`` -- on peers
    interested in one hot website.

    Attributes:
        start_ms / ramp_ms / peak_multiplier / decay_ms: surge shape.
        locality: locality the crowd forms in (-1 = everywhere).
        hot_website: website the crowd wants (-1 = no website bias).
        hot_probability: chance one surge arrival targets the hot website.
    """

    start_ms: float
    ramp_ms: float
    peak_multiplier: float
    decay_ms: float
    locality: int = -1
    hot_website: int = -1
    hot_probability: float = 0.9

    def __post_init__(self) -> None:
        if self.peak_multiplier < 1.0:
            raise WorkloadError("peak multiplier must be >= 1")
        if self.ramp_ms <= 0 or self.decay_ms <= 0:
            raise WorkloadError("ramp and decay must be positive")
        if not 0.0 <= self.hot_probability <= 1.0:
            raise WorkloadError("hot probability must be in [0, 1]")

    def intensity(self, time_ms: float) -> float:
        """Rate multiplier contributed by this surge (>= 1.0 everywhere)."""
        if time_ms < self.start_ms:
            return 1.0
        peak_time = self.start_ms + self.ramp_ms
        if time_ms <= peak_time:
            fraction = (time_ms - self.start_ms) / self.ramp_ms
            return 1.0 + fraction * (self.peak_multiplier - 1.0)
        decayed = self.peak_multiplier * math.exp(
            -(time_ms - peak_time) / self.decay_ms
        )
        return max(1.0, decayed)

    def excess(self, time_ms: float) -> float:
        return self.intensity(time_ms) - 1.0

    def as_tuple(self) -> Tuple:
        """The plain-primitive config form (see ``openloop_surges``)."""
        return (
            self.start_ms,
            self.ramp_ms,
            self.peak_multiplier,
            self.decay_ms,
            self.locality,
            self.hot_website,
            self.hot_probability,
        )

    @classmethod
    def from_tuple(cls, values) -> "RegionalSurge":
        start, ramp, peak, decay, locality, hot_website, hot_p = values
        return cls(
            start_ms=float(start),
            ramp_ms=float(ramp),
            peak_multiplier=float(peak),
            decay_ms=float(decay),
            locality=int(locality),
            hot_website=int(hot_website),
            hot_probability=float(hot_p),
        )


@dataclass(frozen=True)
class ArrivalProfile:
    """The composite open-loop rate: base x diurnal + surge excess.

    The instantaneous multiplier is
    ``(1 + A sin(2 pi t / T)) + sum_s (intensity_s(t) - 1)``: the diurnal
    term modulates the base rate, surges *add* their excess on top (a
    flash crowd during the nightly trough is still a flash crowd).
    """

    rate_qps: float
    diurnal_amplitude: float = 0.0
    surges: Tuple[RegionalSurge, ...] = ()

    def __post_init__(self) -> None:
        if self.rate_qps <= 0:
            raise WorkloadError("open-loop rate must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise WorkloadError("diurnal amplitude must be in [0, 1)")

    @classmethod
    def from_config(cls, config) -> Optional["ArrivalProfile"]:
        """Build from an ``ExperimentConfig`` (None when the rate is 0)."""
        if config.openloop_rate_qps <= 0:
            return None
        return cls(
            rate_qps=config.openloop_rate_qps,
            diurnal_amplitude=config.openloop_diurnal_amplitude,
            surges=tuple(
                RegionalSurge.from_tuple(surge) for surge in config.openloop_surges
            ),
        )

    def diurnal(self, time_ms: float) -> float:
        if self.diurnal_amplitude == 0.0:
            return 1.0
        phase = 2.0 * math.pi * time_ms / DIURNAL_PERIOD_MS
        return 1.0 + self.diurnal_amplitude * math.sin(phase)


class OpenLoopWorkload:
    """Drives open-loop arrivals into a CDN system.

    Thinning: candidates are generated at the peak composite rate and
    accepted with probability ``multiplier(now) / peak``.  Each accepted
    arrival picks an eligible online peer (surge-excess arrivals are
    pinned to the surge's locality and, with ``hot_probability``, to
    peers interested in its hot website), draws an object from the
    website's Zipf popularity law -- repeats allowed, this is the open
    loop -- and issues it through the peer's normal query path.

    Surges may be added after :meth:`start` (a ``RegionalSurge`` in
    ``fault_schedule`` is; see :meth:`add_surge`): the peak bound is
    recomputed and applies from the next scheduled candidate on.
    """

    def __init__(self, sim, system, profile: ArrivalProfile) -> None:
        self.sim = sim
        self.system = system
        self.profile = profile
        self.rng = sim.rng("openloop")
        self.surges: List[RegionalSurge] = list(profile.surges)
        self.stats = {
            "candidates": 0,
            "arrivals": 0,
            "surge_arrivals": 0,
            "issued": 0,
            "skipped_no_peer": 0,
            "skipped_open_key": 0,
        }
        self._started = False
        #: eligible-peer lists, valid while the network's liveness epoch
        #: equals ``_eligible_epoch`` (see :meth:`_eligible_peers`).
        self._eligible_epoch = -1
        self._eligible: List = []
        #: (locality, hot website) -> sub-list, -1 meaning "any".
        self._eligible_scoped: Dict[Tuple[int, int], List] = {}
        self._recompute_peak()

    def _recompute_peak(self) -> None:
        peak = 1.0 + self.profile.diurnal_amplitude
        peak += sum(s.peak_multiplier - 1.0 for s in self.surges)
        self._peak = peak
        #: candidates are generated at this, the peak composite rate.
        self._peak_rate_per_ms = self.profile.rate_qps / 1000.0 * peak

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        if self._started:
            raise WorkloadError("open-loop workload already started")
        self._started = True
        self.sim.defer(self.rng.expovariate(self._peak_rate_per_ms), self._candidate)

    def add_surge(self, surge: RegionalSurge) -> None:
        """Install one more flash crowd on the running process.

        This, not the profile, is how a ``RegionalSurge`` of a
        ``fault_schedule`` joins (``assemble_world``, right after
        :meth:`start`): the first candidate gap is already drawn at the
        profile's own peak by then.  The same surge inside the profile
        would raise the peak before that draw and so yield a different
        stream from the first event on -- the two spellings are not
        interchangeable under the pinned chaos goldens.
        """
        self.surges.append(surge)
        self._recompute_peak()

    # -------------------------------------------------------------- arrivals
    def _candidate(self) -> None:
        sim = self.sim
        sim.defer(self.rng.expovariate(self._peak_rate_per_ms), self._candidate)
        self.stats["candidates"] += 1
        now = sim.now
        # One evaluation of the composite rate per candidate, shared by
        # the thinning test and the surge attribution.  Summing the
        # diurnal term first, then the surges in list order, is what keeps
        # the floats (hence every draw's outcome) bit-identical.
        baseline = self.profile.diurnal(now)
        excesses = [surge.excess(now) for surge in self.surges]
        total_excess = sum(excesses)
        # Accepted with probability min(1, multiplier / peak); a draw from
        # [0, 1) can never exceed a ratio of 1 or more, so no clamp.
        if self.rng.random() > (baseline + total_excess) / self._peak:
            return  # thinned: candidate above the current rate
        self.stats["arrivals"] += 1
        self._arrive(now, self._attribute_surge(baseline, excesses, total_excess))

    def _attribute_surge(
        self, baseline: float, excesses: List[float], total_excess: float
    ) -> Optional[RegionalSurge]:
        """Which surge (if any) this arrival belongs to.

        The composite rate is ``diurnal + sum excess``; an arrival is a
        *surge* arrival with probability ``excess / composite`` per
        surge, which is exactly the share of the rate that surge
        contributes right now.
        """
        if total_excess <= 0.0:
            return None
        draw = self.rng.uniform(0.0, baseline + total_excess)
        if draw < baseline:
            return None
        draw -= baseline
        for surge, excess in zip(self.surges, excesses):
            if draw < excess:
                return surge
            draw -= excess
        return self.surges[-1]

    def _scan_eligible(self) -> List:
        """Every online peer of an active website, in ``system.peers``
        insertion order (the order the arrival's ``randrange`` indexes)."""
        catalog = self.system.catalog
        return [
            peer
            for peer in self.system.peers.values()
            if peer.alive and catalog.is_active(peer.website)
        ]

    def _eligible_peers(self, surge: Optional[RegionalSurge]) -> List:
        """The peers one arrival may land on -- without a population scan.

        Eligibility only changes when some node's ``alive`` flag is
        written, which the network counts (``liveness_epoch``); a peer's
        website and locality never change.  The lists are therefore
        rebuilt a few hundred times per run instead of once per arrival,
        and the per-arrival cost no longer grows with the population.
        """
        epoch = self.system.network.liveness_epoch
        if epoch != self._eligible_epoch:
            self._eligible_epoch = epoch
            self._eligible = self._scan_eligible()
            self._eligible_scoped.clear()
        peers = self._eligible
        if surge is None:
            return peers
        scoped_lists = self._eligible_scoped
        locality = surge.locality
        if locality >= 0:
            scoped = scoped_lists.get((locality, -1))
            if scoped is None:
                scoped = [peer for peer in peers if peer.locality == locality]
                scoped_lists[(locality, -1)] = scoped
            if scoped:
                peers = scoped
            else:
                locality = -1  # nobody online there: the crowd lands anywhere
        website = surge.hot_website
        if website >= 0 and self.rng.random() < surge.hot_probability:
            hot = scoped_lists.get((locality, website))
            if hot is None:
                hot = [peer for peer in peers if peer.website == website]
                scoped_lists[(locality, website)] = hot
            peers = hot or peers
        return peers

    def _arrive(self, now: float, surge: Optional[RegionalSurge]) -> None:
        if surge is not None:
            self.stats["surge_arrivals"] += 1
        peers = self._eligible_peers(surge)
        if not peers:
            self.stats["skipped_no_peer"] += 1
            return
        peer = peers[self.rng.randrange(len(peers))]
        key = self._draw_key(peer)
        if key is None:
            self.stats["skipped_open_key"] += 1
            return
        self.stats["issued"] += 1
        peer.queries_issued += 1
        self.sim.emit("cdn.query", peer=peer.address, key=key)
        peer.resolve_query(key, started_at=now)

    def _draw_key(self, peer):
        """A Zipf-popular object of the peer's website.

        Open-loop arrivals repeat objects freely -- a repeat of a cached
        key resolves as an instant local hit, exactly like production
        traffic replaying a popular URL.  The single exclusion is a key
        this peer already has *in flight*: reissuing it would reopen a
        live ledger entry (the auditor's no-reopen invariant).  When
        every redraw lands on an in-flight key the arrival is dropped
        and counted.
        """
        for _ in range(_MAX_KEY_REDRAWS):
            key = (peer.website, self.system.zipf.sample(self.rng))
            if key in peer._open_queries:
                continue
            return key
        return None
