"""Online invariant auditor: Jepsen-style checking under injected chaos.

The auditor verifies the system-wide safety/liveness properties catalogued
in ``docs/PROTOCOLS.md`` section 9 while a chaos plan fires:

I1 **query ledger** -- every issued query terminates *exactly once* with a
   terminal outcome: no lost queries (an entry open beyond the grace
   bound), no double resolutions (a ``cdn.query_done`` without a matching
   open entry).
I2 **slot uniqueness** -- at most one *live* directory peer per
   (website, locality, instance) D-ring slot.
I3 **bounded reacquire** -- a killed directory slot of an active website
   is re-acquired within a bound, as long as live interested peers exist
   and no partition is interfering.
I4 **index validity** -- directory-index entries only reference petal
   members that are alive and hold the object, modulo a staleness bound
   derived from the keepalive/expiry parameters.
I5 **ring convergence** -- after faults quiesce, the D-ring successor
   chain over active members reconverges to one cycle covering them all.
I6 **view hygiene** -- gossip partial views never contain the owner
   itself, and dead contacts are evicted within a bound derived from the
   gossip period.
I7 **search availability** -- with the directory-index replicated
   (``directory_replication_k > 0``) keyword searches keep getting answered through
   directory wipes and partitions (no petal accumulates a streak of
   unanswered searches), and replica-served results never exceed the
   declared staleness bound of
   :func:`repro.cdn.flower.search_client.staleness_bound_ms`.
I8 **shed accounting** -- a ``flower.query_shed`` for a keyed member
   query must refer to a query that is actually *open* in the ledger (a
   shed reported after the query already terminated would mean the
   directory rejected work nobody was waiting for), and I1 then
   guarantees the shed query still terminates exactly once -- shedding
   under overload never loses a query.
I9 **transfer ledger** -- every chunked swarm transfer terminates
   *exactly once* (``swarm.done`` with completed / degraded / failed),
   with consistent byte accounting: each chunk lands at most once per
   generation (a ``swarm.restart`` discards progress and opens a new
   generation), the bytes reported at close equal the sum of the
   generation's ``swarm.chunk_done`` bytes, and a completed or degraded
   close accounts for the full object size.  Seeder death mid-transfer
   may degrade a transfer; it must never lose or double-count one.
I10 **hint-hop discipline** -- with queue-aware redirect hints on, every
   ``flower.hint_hop`` belongs to a query that is *open* in the ledger,
   names a target that is neither the hopping peer nor the home instance
   it is hopping away from, claims a strictly smaller queue depth than
   home's, and happens at most once per open query -- so a stale hint can
   cost one extra RPC but never a routing loop, and I1 then guarantees
   the hinted query still terminates exactly once (a hop onto a crashed
   or demoted target must resolve as an accounted miss, never vanish).

Nothing added when absent: all observation happens through trace
subscriptions plus an explicitly scheduled audit tick -- a run without an
auditor schedules nothing and subscribes to nothing.  The kinds it would
watch are still emitted: every emit builds its payload and counts (see
:mod:`repro.sim.trace`); what the absent auditor saves is the
``TraceEvent`` per emit, its dispatch and the checks themselves.

On violation a minimal reproducer bundle -- seed, plan, the last-N trace
window, an offending-state snapshot -- is written to ``results/chaos/``;
:func:`repro.chaos.runner.replay_bundle` re-runs it deterministically.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.cdn.flower.search_client import staleness_bound_ms
from repro.cdn.flower.system import FlowerSystem
from repro.sim.clock import minutes
from repro.sim.trace import TraceEvent

#: Trace kinds the auditor subscribes to (ledger + context window).
WATCHED_KINDS = (
    "cdn.query",
    "chord.join",
    "chord.shutdown",
    "cdn.query_done",
    "cdn.query_stale",
    "chaos.phase",
    "chaos.violation",
    "churn.arrival",
    "churn.departure",
    "fault.mass_failure",
    "fault.partition_start",
    "fault.partition_heal",
    "fault.past_due_reschedule",
    "flower.directory_active",
    "flower.directory_demoted",
    "flower.directory_provisional",
    "flower.hint_hop",
    "flower.key_adopted",
    "flower.key_rebalanced",
    "flower.member_expired",
    "flower.members_shed",
    "flower.query_shed",
    "flower.search_done",
    "chaos.seeder_death",
    "swarm.start",
    "swarm.chunk_done",
    "swarm.chunk_retry",
    "swarm.degraded",
    "swarm.restart",
    "swarm.done",
)


# Auditor bounds (ms unless noted).  The staleness and reacquire bounds
# are factors over, or slack on top of, the system's own periods, so the
# auditor adapts to whatever parameterization the run uses instead of
# hard-coding paper-scale timings.
AUDIT_PERIOD_MS = minutes(10.0)
LEDGER_GRACE_MS = minutes(5.0)
REACQUIRE_SLACK_MS = minutes(45.0)
INDEX_STALENESS_FACTOR = 4.0
VIEW_STALENESS_FACTOR = 12.0
RING_STRIKES = 3
DUPLICATE_STRIKES = 2
SEARCH_STRIKES = 3
#: trace events kept as context for a reproducer bundle.
TRACE_WINDOW = 256
#: violations recorded before the auditor stops reporting.
MAX_VIOLATIONS = 25
#: ``stats`` entries that count one trace kind each: read off the trace's
#: own counters, not tallied a second time.
TRACE_COUNTED = {
    "queries_opened": "cdn.query",
    "stale_completions": "cdn.query_stale",
    "queries_shed": "flower.query_shed",
    "hint_hops": "flower.hint_hop",
    "keys_rebalanced": "flower.key_rebalanced",
    "keys_adopted": "flower.key_adopted",
    "transfers_opened": "swarm.start",
    "transfer_restarts": "swarm.restart",
    "chunk_retries": "swarm.chunk_retry",
}


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    kind: str
    time: float
    subject: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "time": self.time,
            "subject": self.subject,
            "details": _json_safe(self.details),
        }


def _json_safe(value: Any) -> Any:
    """Recursively coerce a payload into JSON-serializable primitives."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_json_safe(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class InvariantAuditor:
    """Continuously audits one world; dumps reproducer bundles on violation.

    Args:
        world: an assembled :class:`repro.experiments.runner.World` (any
            object with ``sim``, ``system``, ``network``, ``config``,
            ``faults`` works).
        plan: the :class:`~repro.chaos.plan.ChaosPlan` being executed, if
            any -- carried into reproducer bundles.  Its specs are the
            tail of the world's ``fault_schedule``
            (:func:`repro.chaos.runner.merged_config`).
        results_dir: where reproducer bundles are written (created lazily;
            ``None`` disables bundle dumping).
        halt_on_violation: stop the simulation at the first violation
            (useful to keep the offending state inspectable).
    """

    def __init__(
        self,
        world,
        plan=None,
        results_dir: Optional[str] = "results/chaos",
        halt_on_violation: bool = False,
    ) -> None:
        self.world = world
        self.sim = world.sim
        self.system = world.system
        self.network = world.network
        self.plan = plan
        self.results_dir = results_dir
        self.halt_on_violation = halt_on_violation
        self.flower: Optional[FlowerSystem] = (
            world.system if isinstance(world.system, FlowerSystem) else None
        )
        period = self.system.gossip_period_ms
        #: derived bounds (protocol-period aware; see the module constants).
        self.index_staleness_ms = INDEX_STALENESS_FACTOR * period
        self.view_staleness_ms = VIEW_STALENESS_FACTOR * period
        self.reacquire_bound_ms = REACQUIRE_SLACK_MS + 2.0 * (
            period + self.system.query_interval_ms
        )
        #: I7: declared replica-staleness bound of search results (search
        #: module owns the formula; the client enforces it at failover
        #: time, the auditor re-checks every served result against it).
        self.search_staleness_bound_ms = staleness_bound_ms(period)
        self.violations: List[Violation] = []
        #: the tallies behind :attr:`stats`; the TRACE_COUNTED entries stay
        #: 0 here and only hold their place in the report's key order.
        self._stats: Dict[str, int] = {
            "audits": 0,
            "queries_opened": 0,
            "queries_closed": 0,
            "stale_completions": 0,
            "reacquired_slots": 0,
            "searches": 0,
            "searches_unanswered": 0,
            "search_replica_served": 0,
            "search_stale_max_ms": 0,
            "queries_shed": 0,
            "members_shed": 0,
            "hint_hops": 0,
            "hint_dead_targets": 0,
            "keys_rebalanced": 0,
            "keys_adopted": 0,
            "transfers_opened": 0,
            "transfers_closed": 0,
            "transfers_degraded": 0,
            "transfers_failed": 0,
            "transfer_restarts": 0,
            "chunk_retries": 0,
        }
        #: reacquire durations (ms) of observed directory slot recoveries.
        self.reacquire_times_ms: List[float] = []
        self.bundle_paths: List[str] = []
        # --- ledger ---
        self._open: Dict[Tuple[int, tuple], float] = {}
        self._leak_reported: Set[Tuple[int, tuple]] = set()
        #: every (peer, key) that ever terminated -- lets I8 tell a shed
        #: racing a just-closed query apart from a fabricated one.
        self._ever_closed: Set[Tuple[int, tuple]] = set()
        # --- I10: hint-hop discipline --- (peer, key) -> opened_at of the
        #: ledger entry that already spent its single hint hop.
        self._hint_hopped: Dict[Tuple[int, tuple], float] = {}
        # --- I9: transfer ledger --- (peer, key) -> open transfer state:
        #: opened_at, declared size/chunk count, and the current
        #: generation's completed chunks + byte total.
        self._transfers: Dict[Tuple[int, tuple], Dict[str, Any]] = {}
        self._transfer_leaks: Set[Tuple[int, tuple]] = set()
        # --- trace window (context for reproducer bundles) ---
        self._window: Deque[TraceEvent] = deque(maxlen=TRACE_WINDOW)
        # --- fault context: windowed faults are asked of the controller
        # (see _disturbed); point faults land here.
        self._last_disturbance_ms = 0.0
        #: last ring-membership change (join/shutdown): a node needs a
        #: couple of stabilization rounds to be stitched into every
        #: successor pointer, so convergence is only owed once membership
        #: has quiesced.
        self._last_ring_change_ms = float("-inf")
        # --- staleness / convergence trackers ---
        self._first_seen: Dict[tuple, float] = {}
        self._vacant_since: Dict[tuple, float] = {}
        self._dup_streak: Dict[tuple, int] = {}
        #: I7: consecutive unanswered searches per petal (website, locality).
        self._search_streak: Dict[tuple, int] = {}
        self._ring_strike = 0
        self._reported: Set[tuple] = set()
        self._finalized = False
        self._saturated = False
        self._subscribe()
        self.sim.schedule(AUDIT_PERIOD_MS, self._audit_tick)

    @property
    def stats(self) -> Dict[str, int]:
        """The auditor's tallies by name, a fresh dict on every read; the
        :data:`TRACE_COUNTED` entries come from the trace's counters."""
        counters = self.sim.trace.counters
        stats = dict(self._stats)
        for name, kind in TRACE_COUNTED.items():
            stats[name] = counters[kind]
        return stats

    # ------------------------------------------------------------ subscribing
    def _subscribe(self) -> None:
        trace = self.sim.trace
        handlers = {
            "cdn.query": self._on_query,
            "cdn.query_done": self._on_query_done,
            "fault.mass_failure": self._on_disturbance,
            "flower.directory_active": self._on_directory_active,
            "flower.hint_hop": self._on_hint_hop,
            "flower.members_shed": self._on_members_shed,
            "flower.query_shed": self._on_query_shed,
            "flower.search_done": self._on_search_done,
            "chord.join": self._on_ring_change,
            "chord.shutdown": self._on_ring_change,
            "swarm.start": self._on_swarm_start,
            "swarm.chunk_done": self._on_swarm_chunk_done,
            "swarm.restart": self._on_swarm_restart,
            "swarm.done": self._on_swarm_done,
        }
        for kind in WATCHED_KINDS:
            specific = handlers.get(kind)
            if specific is not None:
                trace.subscribe(kind, self._windowed(specific))
            else:
                trace.subscribe(kind, self._window.append)

    def _windowed(self, handler):
        window = self._window

        def wrapped(event: TraceEvent) -> None:
            window.append(event)
            handler(event)

        return wrapped

    # ------------------------------------------------------- ledger handlers
    def _on_query(self, event: TraceEvent) -> None:
        key = (event.payload["peer"], tuple(event.payload["key"]))
        if key in self._open:
            # A second issue while the first is open would make the done
            # events ambiguous; the query process never does this.
            self._violation(
                "query_reopened",
                subject=key,
                details={"first_opened_ms": self._open[key]},
            )
        self._open[key] = event.time

    def _on_query_done(self, event: TraceEvent) -> None:
        key = (event.payload["peer"], tuple(event.payload["key"]))
        if self._open.pop(key, None) is None:
            self._violation(
                "query_double_resolved",
                subject=key,
                details={"outcome": event.payload.get("outcome")},
            )
            return
        self._leak_reported.discard(key)
        self._ever_closed.add(key)
        self._hint_hopped.pop(key, None)
        self._stats["queries_closed"] += 1

    # ------------------------------------------------ I8: shed accounting
    def _on_query_shed(self, event: TraceEvent) -> None:
        raw_key = event.payload.get("key")
        if raw_key is None:
            return  # register-only scan shed: no query ledger entry owed
        key = (event.payload["client"], tuple(raw_key))
        if key not in self._open and key not in self._ever_closed:
            # The directory shed a keyed query its client never issued:
            # fabricated work.  A shed for a *recently closed* entry is
            # tolerated (a retried request can arrive after its client
            # timed out and failed over); closure of open sheds is I1's
            # job either way.
            self._violation(
                "shed_unaccounted",
                subject=key,
                details={
                    "directory": event.payload.get("directory"),
                    "depth": event.payload.get("depth"),
                },
            )

    def _on_members_shed(self, event: TraceEvent) -> None:
        self._stats["members_shed"] += int(event.payload.get("count", 0))

    # --------------------------------------------- I10: hint-hop discipline
    def _on_hint_hop(self, event: TraceEvent) -> None:
        payload = event.payload
        peer = payload["peer"]
        key = (peer, tuple(payload["key"]))
        target = payload["to"]
        home = payload["frm"]
        opened_at = self._open.get(key)
        if opened_at is None:
            # A hop for a query the ledger does not know: the client is
            # spending RPCs on work nobody is waiting for.
            self._violation(
                "hint_hop_unaccounted",
                subject=key,
                details={"frm": home, "to": target},
            )
            return
        if target == home or target == peer:
            # Hopping back onto the instance we are escaping (or onto
            # ourselves) is the seed of a routing loop.
            self._violation(
                "hint_hop_loop",
                subject=key,
                details={"frm": home, "to": target},
            )
        if payload["depth_to"] >= payload["depth_from"]:
            # The whole point of the hop is a strictly less-loaded target;
            # an equal-or-deeper claim means the pre-route filter broke.
            self._violation(
                "hint_hop_not_less_loaded",
                subject=key,
                details={
                    "to": target,
                    "depth_from": payload["depth_from"],
                    "depth_to": payload["depth_to"],
                },
            )
        if self._hint_hopped.get(key) == opened_at:
            # One hop per open query: every fallback path (home retry,
            # post-shed redirect, origin server) is hop-free, so a second
            # hop on the same ledger entry is a loop in the making.
            self._violation(
                "hint_hop_repeated",
                subject=key,
                details={"frm": home, "to": target},
            )
        else:
            self._hint_hopped[key] = opened_at
        # A hop onto a dead or demoted target is legitimate (hints are
        # allowed to go stale) -- the query must then resolve as an
        # accounted miss, which I1 enforces.  Count it for the report.
        network = self.network
        if not network.is_alive(target):
            self._stats["hint_dead_targets"] += 1

    # ------------------------------------------------ I9: transfer ledger
    def _on_swarm_start(self, event: TraceEvent) -> None:
        key = (event.payload["peer"], tuple(event.payload["key"]))
        if key in self._transfers:
            # A superseding query aborts (and closes) the old transfer
            # *before* registering the new one, so an open entry here
            # means a transfer was opened twice without a close between.
            self._violation(
                "transfer_reopened",
                subject=key,
                details={"first_opened_ms": self._transfers[key]["opened_at"]},
            )
        self._transfers[key] = {
            "opened_at": event.time,
            "size": int(event.payload["size"]),
            "chunk_count": int(event.payload["chunks"]),
            "chunks": set(),
            "bytes": 0,
        }

    def _on_swarm_chunk_done(self, event: TraceEvent) -> None:
        key = (event.payload["peer"], tuple(event.payload["key"]))
        entry = self._transfers.get(key)
        if entry is None:
            self._violation(
                "chunk_without_transfer",
                subject=key,
                details={"chunk": event.payload.get("chunk")},
            )
            return
        chunk = event.payload["chunk"]
        if chunk in entry["chunks"]:
            # The same chunk landing twice in one generation would
            # double-count bytes (stale-callback suppression failed).
            self._violation(
                "chunk_double_counted",
                subject=key,
                details={"chunk": chunk, "source": event.payload.get("source")},
            )
            return
        entry["chunks"].add(chunk)
        entry["bytes"] += int(event.payload["bytes"])

    def _on_swarm_restart(self, event: TraceEvent) -> None:
        key = (event.payload["peer"], tuple(event.payload["key"]))
        entry = self._transfers.get(key)
        if entry is not None:
            # Cold-mode restart-from-zero: progress discarded, so the
            # ledger opens a fresh generation with empty accounting.
            entry["chunks"] = set()
            entry["bytes"] = 0

    def _on_swarm_done(self, event: TraceEvent) -> None:
        key = (event.payload["peer"], tuple(event.payload["key"]))
        entry = self._transfers.pop(key, None)
        if entry is None:
            self._violation(
                "transfer_double_closed",
                subject=key,
                details={"outcome": event.payload.get("outcome")},
            )
            return
        self._transfer_leaks.discard(key)
        self._stats["transfers_closed"] += 1
        outcome = event.payload["outcome"]
        reported = int(event.payload["bytes"]) + int(event.payload["origin_bytes"])
        details = {
            "outcome": outcome,
            "reported_bytes": reported,
            "ledger_bytes": entry["bytes"],
            "size": entry["size"],
            "chunks_done": len(entry["chunks"]),
            "chunk_count": entry["chunk_count"],
        }
        if outcome == "degraded":
            self._stats["transfers_degraded"] += 1
        if outcome == "failed":
            self._stats["transfers_failed"] += 1
            # A failed close (downloader crash, superseded query, origin
            # unreachable) may be partial, but what *was* reported must
            # match what the ledger saw this generation.
            if reported != entry["bytes"]:
                self._violation(
                    "transfer_bytes_inconsistent", subject=key, details=details
                )
            return
        if outcome not in ("completed", "degraded"):
            self._violation("transfer_bad_outcome", subject=key, details=details)
            return
        # A successful close must account for the whole object: every
        # chunk exactly once, bytes summing to the declared size.
        if (
            reported != entry["bytes"]
            or entry["bytes"] != entry["size"]
            or len(entry["chunks"]) != entry["chunk_count"]
        ):
            self._violation(
                "transfer_bytes_inconsistent", subject=key, details=details
            )

    # ------------------------------------------------------- fault handlers
    def _disturbed(self, now: float, settle: float = 0.0) -> bool:
        """Is *now* inside, or within *settle* after, a fault window
        (partition, latency spike, bounded bursty loss)?  Convergence is
        only owed outside them."""
        faults = self.world.faults
        return faults is not None and faults.disturbed(now, settle)

    def _on_disturbance(self, event: TraceEvent) -> None:
        self._last_disturbance_ms = event.time

    def _on_ring_change(self, event: TraceEvent) -> None:
        self._last_ring_change_ms = event.time

    def _on_directory_active(self, event: TraceEvent) -> None:
        slot = (
            event.payload["website"],
            event.payload["locality"],
            event.payload["instance"],
        )
        since = self._vacant_since.pop(slot, None)
        if since is not None:
            self._stats["reacquired_slots"] += 1
            self.reacquire_times_ms.append(event.time - since)

    # ------------------------------------------------- I7: search plane
    def _on_search_done(self, event: TraceEvent) -> None:
        payload = event.payload
        source = payload["source"]
        if source == "unregistered":
            return  # never joined a petal: no availability owed yet
        self._stats["searches"] += 1
        petal = (payload["website"], payload["locality"])
        staleness = float(payload.get("staleness_ms", 0.0))
        if source == "replica":
            self._stats["search_replica_served"] += 1
            rounded = int(round(staleness))
            if rounded > self._stats["search_stale_max_ms"]:
                self._stats["search_stale_max_ms"] = rounded
            if (
                staleness > self.search_staleness_bound_ms
                and ("search_stale", petal) not in self._reported
            ):
                # Holds at every k: the failover client must refuse
                # replica answers older than the declared bound.
                self._reported.add(("search_stale", petal))
                self._violation(
                    "search_stale_beyond_bound",
                    subject=petal,
                    details={
                        "peer": payload["peer"],
                        "keyword": payload.get("keyword"),
                        "staleness_ms": staleness,
                        "bound_ms": self.search_staleness_bound_ms,
                    },
                )
        if source != "none":
            self._search_streak.pop(petal, None)
            return
        self._stats["searches_unanswered"] += 1
        if self.system.params.directory_replication_k <= 0:
            # Without replicas an outage through a directory wipe is the
            # expected baseline (the cold arm of the availability A/B),
            # not a violation.
            return
        streak = self._search_streak.get(petal, 0) + 1
        self._search_streak[petal] = streak
        strikes = SEARCH_STRIKES
        if self._disturbed(event.time):
            # Inside a declared disturbance the first probe or two may
            # race the takeover; only a sustained streak is a violation.
            strikes *= 2
        if streak >= strikes and ("search", petal) not in self._reported:
            self._reported.add(("search", petal))
            self._violation(
                "search_unavailable",
                subject=petal,
                details={
                    "consecutive_unanswered": streak,
                    "strikes": strikes,
                    "replication_k": self.system.params.directory_replication_k,
                },
            )

    # ----------------------------------------------------------- audit tick
    def _audit_tick(self) -> None:
        if self._finalized or self._saturated:
            return
        now = self.sim.now
        self._stats["audits"] += 1
        self._audit_ledger(now, horizon_reached=False)
        if self.flower is not None:
            self._audit_slots(now)
            self._audit_indexes(now)
            self._audit_ring(now)
            self._audit_views(now)
        if not self._saturated:
            self.sim.schedule(AUDIT_PERIOD_MS, self._audit_tick)

    def finalize(self) -> List[Violation]:
        """Close the ledger at the horizon; return all violations."""
        if not self._finalized:
            self._finalized = True
            self._audit_ledger(self.sim.now, horizon_reached=True)
        return self.violations

    # -------------------------------------------------------- I1: the ledger
    def _audit_ledger(self, now: float, horizon_reached: bool) -> None:
        grace = LEDGER_GRACE_MS
        for key, opened in list(self._open.items()):
            if key in self._leak_reported:
                continue
            if now - opened > grace:
                self._leak_reported.add(key)
                self._violation(
                    "query_leaked",
                    subject=key,
                    details={
                        "opened_ms": opened,
                        "age_ms": now - opened,
                        "at_horizon": horizon_reached,
                    },
                )
        # --- I9: a transfer open beyond the same grace bound is leaked
        # (its query would leak too, but the transfer ledger names the
        # subsystem that lost it).
        for key, entry in list(self._transfers.items()):
            if key in self._transfer_leaks:
                continue
            if now - entry["opened_at"] > grace:
                self._transfer_leaks.add(key)
                self._violation(
                    "transfer_leaked",
                    subject=key,
                    details={
                        "opened_ms": entry["opened_at"],
                        "age_ms": now - entry["opened_at"],
                        "chunks_done": len(entry["chunks"]),
                        "chunk_count": entry["chunk_count"],
                        "at_horizon": horizon_reached,
                    },
                )

    # ------------------------------------------- I2 + I3: directory slots
    def _live_slot_holders(self) -> Dict[tuple, List[int]]:
        holders: Dict[tuple, List[int]] = {}
        for peer in self.flower.peers.values():
            role = peer.directory
            if role is None or not peer.alive:
                continue
            slot = (role.website, role.locality, role.instance)
            holders.setdefault(slot, []).append(peer.address)
        return holders

    def _audit_slots(self, now: float) -> None:
        holders = self._live_slot_holders()
        # --- I2: at most one live directory per slot (strike-based to
        # tolerate the instant of a handoff/claim race mid-settling) ---
        disturbed = self._disturbed(now)
        if disturbed:
            # A partition legitimately splits a slot: a provisional claimant
            # inside the cut coexists with the registered holder outside it
            # until the heal lets the reconcile/demote protocol run.  Reset
            # the streaks so the strike clock starts at the heal.
            self._dup_streak.clear()
        for slot, addresses in holders.items():
            if len(addresses) > 1:
                if disturbed:
                    continue
                streak = self._dup_streak.get(slot, 0) + 1
                self._dup_streak[slot] = streak
                if streak >= DUPLICATE_STRIKES:
                    self._violation(
                        "duplicate_directory",
                        subject=slot,
                        details={"holders": sorted(addresses), "audits": streak},
                    )
            else:
                self._dup_streak.pop(slot, None)
        for slot in list(self._dup_streak):
            if slot not in holders:
                del self._dup_streak[slot]
        # --- I3: bounded reacquire of instance-0 slots of active websites ---
        system = self.flower
        if disturbed:
            # A partition (or a declared loss/latency window) legitimately
            # stalls both detection and rejoin; restart every vacancy
            # clock at the current time.
            for slot in self._vacant_since:
                self._vacant_since[slot] = now
        for website, locality, _pos in system.key_service.all_positions(0):
            if not system.catalog.is_active(website):
                continue
            slot = (website, locality, 0)
            if slot in holders:
                self._vacant_since.pop(slot, None)
                continue
            if not self._has_claimants(website, locality):
                # Nobody is left to claim or query this slot; vacancy is
                # expected until churn delivers a new interested peer.
                self._vacant_since.pop(slot, None)
                continue
            since = self._vacant_since.setdefault(slot, now)
            if (
                now - since > self.reacquire_bound_ms
                and ("reacquire", slot) not in self._reported
            ):
                self._reported.add(("reacquire", slot))
                self._violation(
                    "directory_not_reacquired",
                    subject=slot,
                    details={
                        "vacant_since_ms": since,
                        "vacant_for_ms": now - since,
                        "bound_ms": self.reacquire_bound_ms,
                    },
                )

    def _has_claimants(self, website: int, locality: int) -> bool:
        for peer in self.flower.peers.values():
            if (
                peer.alive
                and peer.website == website
                and peer.locality == locality
                and (peer.stream is None or not peer.stream.exhausted)
            ):
                return True
        return False

    # --------------------------------------------------- I4: index validity
    def _audit_indexes(self, now: float) -> None:
        problems: Dict[tuple, Dict[str, Any]] = {}
        network = self.network
        for peer in self.flower.peers.values():
            role = peer.directory
            if role is None or not peer.alive:
                continue
            for member, keys in role.member_keys.items():
                node = network.node(member)
                if not node.alive:
                    problems[("dead_member", role.position_id, member)] = {
                        "directory": peer.address,
                    }
                    continue
                store = getattr(node, "store", None)
                if store is None:
                    continue
                missing = [key for key in keys if key not in store]
                if missing:
                    problems[("unheld_keys", role.position_id, member)] = {
                        "directory": peer.address,
                        "missing": missing[:5],
                        "missing_count": len(missing),
                    }
        self._check_persistent(
            problems,
            bound_ms=self.index_staleness_ms,
            now=now,
            violation_kind="stale_index_entry",
            namespace="index",
        )

    # ------------------------------------------------ I5: ring convergence
    def _audit_ring(self, now: float) -> None:
        # Convergence is only owed once faults have quiesced for a while.
        settle = 2.0 * AUDIT_PERIOD_MS
        # A join/shutdown seconds before the audit legitimately leaves the
        # newcomer outside the predecessor's successor pointer until the
        # next stabilization round or two; give membership changes that
        # long before owing a perfect cycle.
        ring_settle = 2.0 * self.flower.ring.params.maintenance_period_ms
        if (
            now - self._last_disturbance_ms < settle
            or now - self._last_ring_change_ms < ring_settle
            or self._disturbed(now, settle)
        ):
            self._ring_strike = 0
            return
        active = self.flower.ring.active_members()
        if len(active) < 2 or self._ring_converged(active):
            self._ring_strike = 0
            return
        self._ring_strike += 1
        if self._ring_strike >= RING_STRIKES and "ring" not in self._reported:
            self._reported.add("ring")
            self._violation(
                "ring_not_converged",
                subject="dring",
                details={
                    "active_members": len(active),
                    "consecutive_audits": self._ring_strike,
                },
            )

    @staticmethod
    def _ring_converged(active) -> bool:
        """Do the successor pointers over active members form one cycle?"""
        by_id = {node.node_id: node for node in active}
        start = active[0]
        visited = set()
        current = start
        for _ in range(len(active)):
            succ = current.successor
            if succ is None:
                return False
            nxt = by_id.get(succ.id)
            if nxt is None:  # successor points outside the active set
                return False
            visited.add(nxt.node_id)
            current = nxt
            if current is start and len(visited) < len(active):
                return False  # cycle closed early: ring is split
        return visited == set(by_id)

    # --------------------------------------------------- I6: view hygiene
    def _audit_views(self, now: float) -> None:
        problems: Dict[tuple, Dict[str, Any]] = {}
        network = self.network
        for peer in self.flower.peers.values():
            if not peer.alive or peer.is_directory:
                # Directory peers leave the gossip loops; their frozen
                # legacy views only answer early post-takeover queries.
                continue
            view = peer.view
            if peer.address in view:
                self._violation(
                    "self_in_view",
                    subject=peer.address,
                    details={"view": view.addresses()},
                )
                continue
            for contact in view.contacts():
                if not network.is_alive(contact.address):
                    problems[("dead_contact", peer.address, contact.address)] = {
                        "age": contact.age,
                    }
        self._check_persistent(
            problems,
            bound_ms=self.view_staleness_ms,
            now=now,
            violation_kind="dead_view_contact",
            namespace="view",
        )

    # ------------------------------------------------- staleness machinery
    def _check_persistent(
        self,
        problems: Dict[tuple, Dict[str, Any]],
        bound_ms: float,
        now: float,
        violation_kind: str,
        namespace: str,
    ) -> None:
        """First-seen tracking: a problem must *persist* past its staleness
        bound before it is a violation (transient inconsistency is how the
        protocols are designed to work)."""
        first_seen = self._first_seen
        for key in list(first_seen):
            if key[0] == namespace and key[1] not in problems:
                del first_seen[key]
        for key, details in problems.items():
            tracked = (namespace, key)
            since = first_seen.setdefault(tracked, now)
            if (
                now - since > bound_ms
                and (violation_kind, key) not in self._reported
            ):
                self._reported.add((violation_kind, key))
                self._violation(
                    violation_kind,
                    subject=key,
                    details={
                        **details,
                        "stale_since_ms": since,
                        "stale_for_ms": now - since,
                        "bound_ms": bound_ms,
                    },
                )

    # --------------------------------------------------------- violations
    def _violation(self, kind: str, subject: Any, details: Dict[str, Any]) -> None:
        if self._saturated:
            return
        violation = Violation(
            kind=kind,
            time=self.sim.now,
            subject=str(subject),
            details=_json_safe(details),
        )
        self.violations.append(violation)
        self.sim.emit("chaos.violation", violation=kind, subject=str(subject))
        path = self._dump_bundle(violation)
        if path is not None:
            self.bundle_paths.append(path)
        if len(self.violations) >= MAX_VIOLATIONS:
            self._saturated = True
        if self.halt_on_violation:
            self.sim.stop()

    # ------------------------------------------------- reproducer bundles
    def _dump_bundle(self, violation: Violation) -> Optional[str]:
        if self.results_dir is None:
            return None
        from repro.chaos.plan import PLAN_SCHEMA
        from repro.chaos.runner import config_to_dict

        os.makedirs(self.results_dir, exist_ok=True)
        config = self.world.config
        if self.plan is not None:
            # Each spec once: the bundle holds the base config and the
            # plan, the two a replay merges again.
            own = len(config.fault_schedule) - len(self.plan.faults)
            config = config.replace(fault_schedule=config.fault_schedule[:own])
        bundle = {
            "schema": PLAN_SCHEMA,
            "protocol": self.system.name,
            "seed": self.sim.seed,
            "config": config_to_dict(config),
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "violation": violation.to_dict(),
            "violation_index": len(self.violations) - 1,
            "stats": self.stats,
            "trace_window": [
                {
                    "time": event.time,
                    "kind": event.kind,
                    "payload": _json_safe(event.payload),
                }
                for event in self._window
            ],
            "state": _json_safe(self._state_snapshot()),
        }
        name = (
            f"{self.plan.name if self.plan is not None else 'adhoc'}"
            f"-{self.system.name}-seed{self.sim.seed}"
            f"-{violation.kind}-{len(self.violations) - 1}.json"
        )
        path = os.path.join(self.results_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(bundle, handle, indent=2, sort_keys=True)
        return path

    def _state_snapshot(self) -> Dict[str, Any]:
        """The offending-state summary embedded in a reproducer bundle."""
        snapshot: Dict[str, Any] = {
            "now_ms": self.sim.now,
            "open_queries": len(self._open),
            "open_transfers": len(self._transfers),
            "online_peers": self.system.online_peers,
            "partition_active": (
                self.world.faults is not None and self.world.faults.partition_active()
            ),
        }
        if self.flower is not None:
            holders = self._live_slot_holders()
            snapshot["directory_slots"] = {
                repr(slot): addresses for slot, addresses in sorted(holders.items())
            }
            snapshot["ring_active"] = len(self.flower.ring.active_members())
            snapshot["vacant_slots"] = {
                repr(slot): since
                for slot, since in sorted(self._vacant_since.items())
            }
        return snapshot
