"""Recovery metrics for fault-injection experiments.

The paper argues Flower-CDN is "highly robust" but only measures steady
churn; the fault-injection subsystem (:mod:`repro.net.faults`) produces the
harder scenarios -- partitions, bursty loss, mass failures -- and this
module measures how a protocol rides through them:

- **availability** -- the fraction of *issued* queries that were answered
  at all.  Normally every query terminates at the origin server, but a
  partition can cut a peer off from everything including the server, so
  unanswered queries are precisely the partition's availability cost;
- **phase hit ratios** -- the P2P hit ratio before the fault, while it is
  active, and after it heals, computed from the same
  :class:`~repro.metrics.collector.RecordColumns` as the paper's
  Figure 3;
- **time to recover** -- how long after the heal the windowed hit ratio
  first returns to within ``epsilon`` of its pre-fault baseline.

Phase attribution convention: a query belongs to the phase it *completed*
in (records are stamped at completion); issued counts use the issue time
(the ``"cdn.query"`` trace event).  A query issued pre-fault but answered
during it therefore counts against the fault phase's hit ratio -- exactly
the failure it experienced.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import CDNError
from repro.metrics.collector import HIT_TABLE, SERVED_TABLE, RecordColumns
from repro.metrics.report import render_table
from repro.metrics.timeseries import RatioPoint, RatioSeries
from repro.sim.clock import minutes


def track_issued_queries(sim) -> List[float]:
    """Subscribe to ``"cdn.query"`` and return the (live) issue-time list.

    Call *before* running the world; the returned list grows as the
    simulation executes and can be handed to :class:`RecoveryReport`.
    """
    issued: List[float] = []
    sim.trace.subscribe("cdn.query", lambda event: issued.append(event.time))
    return issued


class PhaseStats(NamedTuple):
    """Query accounting of one fault phase."""

    name: str
    start_ms: float
    end_ms: float
    issued: int
    answered: int
    hits: int

    @property
    def hit_ratio(self) -> float:
        """P2P hit ratio of the queries answered in this phase."""
        return self.hits / self.answered if self.answered else 0.0

    @property
    def availability(self) -> float:
        """Answered / issued within the phase (1.0 when nothing issued).

        Clamped at 1.0: answered queries are phased by completion time but
        issued counts by issue time, so a query straddling a phase boundary
        can make a busy phase's ratio edge past one.
        """
        if not self.issued:
            return 1.0
        return min(1.0, self.answered / self.issued)


class RecoveryReport:
    """Fault-phase breakdown + time-to-recover of one experiment run.

    Args:
        records: the collector's ``records`` (time-ordered, as it
            produces them); read by column.
        issued_times: issue timestamps from :func:`track_issued_queries`
            (``None``: assume every answered query was issued in-phase).
        fault_start_ms / fault_end_ms: the fault window (e.g. partition
            start and heal times).
        horizon_ms: experiment end.
        window_ms: width of the hit-ratio windows used for the timeseries
            and the recovery detection.
        epsilon: recovery slack -- recovered means the windowed hit ratio
            reaches ``pre-fault ratio - epsilon``.
    """

    def __init__(
        self,
        records: RecordColumns,
        fault_start_ms: float,
        fault_end_ms: float,
        horizon_ms: float,
        window_ms: float,
        issued_times: Optional[Iterable[float]] = None,
        epsilon: float = 0.05,
    ) -> None:
        if not 0.0 <= fault_start_ms < fault_end_ms <= horizon_ms:
            raise CDNError("need 0 <= fault start < heal <= horizon")
        if window_ms <= 0 or epsilon < 0:
            raise CDNError("window must be positive and epsilon >= 0")
        # Failed (terminal-but-not-served) records close the lifecycle
        # ledger but were never *answered*: they stay in the issued count
        # and out of the answered/hit accounting, i.e. they are precisely
        # the availability cost this report measures.
        served = records.mask(SERVED_TABLE)
        #: Completion time / hit flag (0 or 1) of every served query.
        self.answered_times: List[float] = list(compress(records.time, served))
        self._hit_flags = bytes(compress(records.mask(HIT_TABLE), served))
        self.fault_start_ms = fault_start_ms
        self.fault_end_ms = fault_end_ms
        self.horizon_ms = horizon_ms
        self.window_ms = window_ms
        self.epsilon = epsilon
        self.issued_times = (
            sorted(issued_times)
            if issued_times is not None
            else sorted(self.answered_times)
        )
        self._series = RatioSeries()
        for time, hit in zip(self.answered_times, self._hit_flags):
            self._series.observe(time, hit == 1)

    # ---------------------------------------------------------------- phases
    def _phase(self, name: str, start: float, end: float) -> PhaseStats:
        in_phase = [
            hit
            for time, hit in zip(self.answered_times, self._hit_flags)
            if start <= time < end
        ]
        issued = sum(1 for t in self.issued_times if start <= t < end)
        return PhaseStats(
            name=name,
            start_ms=start,
            end_ms=end,
            issued=issued,
            answered=len(in_phase),
            hits=sum(in_phase),
        )

    @property
    def pre(self) -> PhaseStats:
        return self._phase("pre-fault", 0.0, self.fault_start_ms)

    @property
    def during(self) -> PhaseStats:
        return self._phase("fault", self.fault_start_ms, self.fault_end_ms)

    @property
    def post(self) -> PhaseStats:
        # Half-open [heal, horizon]; include the horizon edge itself.
        return self._phase("post-heal", self.fault_end_ms, self.horizon_ms + 1e-9)

    def phases(self) -> List[PhaseStats]:
        return [self.pre, self.during, self.post]

    # ---------------------------------------------------------- availability
    @property
    def availability(self) -> float:
        """Overall fraction of issued queries that completed."""
        issued = len(self.issued_times)
        return len(self.answered_times) / issued if issued else 1.0

    @property
    def unanswered(self) -> int:
        return max(0, len(self.issued_times) - len(self.answered_times))

    # -------------------------------------------------------------- recovery
    def timeseries(self) -> List[RatioPoint]:
        """Windowed hit-ratio curve over the whole horizon."""
        if len(self._series) == 0:
            return []
        return self._series.windowed(self.window_ms, self.horizon_ms)

    def time_to_recover_ms(self) -> Optional[float]:
        """Time from the heal until the hit ratio is back to baseline.

        The baseline is the pre-fault phase hit ratio; recovery is the end
        of the first post-heal window with at least one answered query
        whose windowed ratio is >= baseline - epsilon.  ``None`` when the
        run never recovers (or sees no post-heal queries); ``0.0`` when
        the fault never depressed the ratio below the slack at all.
        """
        baseline = self.pre.hit_ratio - self.epsilon
        for point in self.timeseries():
            if point.time <= self.fault_end_ms or point.total == 0:
                continue
            if point.ratio >= baseline:
                return max(0.0, point.time - self.window_ms - self.fault_end_ms)
        return None

    # --------------------------------------------------------------- report
    def render(self) -> str:
        rows = [
            [
                phase.name,
                f"{phase.start_ms / 3_600_000.0:.1f}-{phase.end_ms / 3_600_000.0:.1f} h",
                phase.issued,
                phase.answered,
                f"{phase.hit_ratio:.1%}",
                f"{phase.availability:.1%}",
            ]
            for phase in self.phases()
        ]
        table = render_table(
            ["phase", "window", "issued", "answered", "hit ratio", "availability"],
            rows,
            title="fault phases",
        )
        ttr = self.time_to_recover_ms()
        ttr_text = "never" if ttr is None else f"{ttr / 60_000.0:.1f} min"
        footer = (
            f"availability: {self.availability:.1%} "
            f"({self.unanswered} unanswered); "
            f"time to recover (eps={self.epsilon:.0%}): {ttr_text}"
        )
        return table + "\n" + footer


class DirectoryRecoveryTracker:
    """Replica-aware recovery instrumentation for directory faults.

    The query-level :class:`RecoveryReport` sees only the *symptom* of a
    directory wipe (the hit-ratio dip); this tracker measures the *cause*
    -- how long the directory index itself stays cold -- so the warm
    failover of section 5.3 can be compared against the paper's cold
    replacement directly:

    - **time to full index** -- how long after ``fault_start_ms`` the
      combined member view of the tracked localities' live directories is
      back to ``threshold`` x its pre-fault size.  A cold replacement
      re-learns members one keepalive period at a time; a warm takeover
      restores the view from a replica in one merge;
    - **cold-window misses** -- queries from the tracked localities that
      went to the origin (or failed outright) while the index was below
      threshold: the user-visible cost of the cold window;
    - **replica staleness at takeover** -- from the
      ``flower.replica_adopted`` trace events: how far behind real time
      the adopted replicas were (0 for replication-off runs, which adopt
      nothing).

    Attach *before* ``world.run()``; it schedules a baseline snapshot 1 ms
    before the fault and polls the live index every ``poll_ms`` thereafter.
    The polling callbacks read state only -- no RNG draws, no emits -- so
    instrumented runs execute the same protocol trajectory as bare ones.
    """

    def __init__(
        self,
        world,
        fault_start_ms: float,
        localities: Optional[Iterable[int]] = None,
        poll_ms: float = minutes(2),
        threshold: float = 0.9,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise CDNError("threshold must be in (0, 1]")
        if poll_ms <= 0:
            raise CDNError("poll_ms must be positive")
        self.system = world.system
        self.sim = world.sim
        self.horizon_ms = world.config.duration_ms
        self.fault_start_ms = fault_start_ms
        self.localities = frozenset(localities) if localities is not None else None
        self.poll_ms = poll_ms
        self.threshold = threshold
        self.baseline: Optional[int] = None
        self.dipped_at: Optional[float] = None
        self.recovered_at: Optional[float] = None
        #: (time, combined member-view size) polls, starting at the baseline.
        self.index_curve: List[Tuple[float, int]] = []
        #: payload dicts of every ``flower.replica_adopted`` event.
        self.adoptions: List[Dict] = []
        self.sim.trace.subscribe(
            "flower.replica_adopted",
            lambda event: self.adoptions.append(dict(event.payload, time=event.time)),
        )
        delay = max(0.0, fault_start_ms - 1.0 - self.sim.now)
        self.sim.schedule(delay, self._capture_baseline)

    # ------------------------------------------------------------- sampling
    def _tracked_index_size(self) -> int:
        total = 0
        for peer in self.system.peers.values():
            role = getattr(peer, "directory", None)
            if role is None or not peer.alive:
                continue
            if self.localities is not None and role.locality not in self.localities:
                continue
            total += role.load
        return total

    def _capture_baseline(self) -> None:
        self.baseline = self._tracked_index_size()
        self.index_curve.append((self.sim.now, self.baseline))
        self.sim.schedule(self.poll_ms, self._poll)

    def _poll(self) -> None:
        now = self.sim.now
        if now > self.horizon_ms:
            return
        size = self._tracked_index_size()
        self.index_curve.append((now, size))
        floor = self.threshold * (self.baseline or 0)
        if size < floor:
            # The fault actually emptied the index; the cold window is
            # open from this moment until the view climbs back.
            if self.dipped_at is None:
                self.dipped_at = now
        elif self.dipped_at is not None and self.recovered_at is None:
            self.recovered_at = now
            return  # stop polling; the curve served its purpose
        self.sim.schedule(self.poll_ms, self._poll)

    # -------------------------------------------------------------- results
    def time_to_full_index_ms(self) -> Optional[float]:
        """Length of the cold window: index dip -> back above threshold.

        ``0.0`` when the index never dropped below threshold at all (a
        warm takeover can be faster than one poll period); ``None`` when
        it dipped and never climbed back before the horizon.
        """
        if self.dipped_at is None:
            return 0.0
        if self.recovered_at is None:
            return None
        return max(0.0, self.recovered_at - self.dipped_at)

    def cold_window_misses(self, records: RecordColumns) -> int:
        """Queries the cold window pushed to the origin (or lost).

        Counts non-hit records from the tracked localities completed
        between the index dip and its recovery (fault start to horizon
        when the index never recovered; zero-width when it never dipped).
        """
        if self.dipped_at is None:
            return 0
        start = self.dipped_at
        end = self.recovered_at if self.recovered_at is not None else self.horizon_ms
        count = 0
        for time, locality, code in zip(
            records.time, records.locality, records.outcome
        ):
            if not start <= time < end:
                continue
            if self.localities is not None and locality not in self.localities:
                continue
            if not HIT_TABLE[code]:
                count += 1
        return count

    def takeover_staleness_ms(self) -> List[float]:
        """Replica staleness of every post-fault adoption (ms)."""
        return [
            adoption["staleness_ms"]
            for adoption in self.adoptions
            if adoption["time"] >= self.fault_start_ms
        ]

    def summary(self, records: RecordColumns) -> Dict:
        """One JSON-friendly dict with every tracked metric."""
        ttfi = self.time_to_full_index_ms()
        staleness = self.takeover_staleness_ms()
        return {
            "baseline_index": self.baseline,
            "time_to_full_index_ms": ttfi,
            "cold_window_misses": self.cold_window_misses(records),
            "replicas_adopted": len(self.adoptions),
            "takeover_staleness_ms": {
                "count": len(staleness),
                "mean": sum(staleness) / len(staleness) if staleness else 0.0,
                "max": max(staleness) if staleness else 0.0,
            },
            "index_curve": [(t, s) for t, s in self.index_curve],
        }
