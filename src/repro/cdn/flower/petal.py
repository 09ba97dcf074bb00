"""Petal membership of a content peer (section 5.1) -- a
:class:`~repro.cdn.flower.peer.FlowerPeer` mixin.

What keeps a content peer attached to its petal:

- **dir-info** (position id, address, age) about the directory peer it
  follows.  Every way of acquiring or changing it -- the registration
  reply, gossip reconciliation ("entries for the *same* directory position
  keep the smaller age"), a lost replacement race, an announce, a demotion
  redirect, an overload shed -- ends in the one
  :meth:`PetalMember._follow_directory` step;
- the periodic **gossip** and **keepalive** loops and the **push** of its
  cache content, which keep the directory-index fresh;
- **suspect-directory degradation**: a directory RPC that exhausts its
  retry budget is a *strike*.  While strikes are pending the directory is
  only suspect -- queries degrade to gossip-learnt summaries, pushes
  queue (drop-oldest), a fast re-probe decides between recovery and
  declared failure; at :data:`DIR_FAILURE_THRESHOLD` strikes the peer
  races to replace the directory itself (section 5.2.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.cdn.base import SCAN_RETRY_DELAY_MS
from repro.gossip.summaries import ExactSummary
from repro.net.message import Message
from repro.sim.process import PeriodicProcess
from repro.types import Address, ChordId, ObjectKey

#: Consecutive exhausted-retry directory RPCs before a content peer
#: declares its directory dead and races to replace it (section 5.2.1).
#: Above 1, a partition-stranded directory is *suspect* first: the peer
#: serves from gossip-learnt summaries and re-probes rather than electing
#: a replacement that would race the heal.
DIR_FAILURE_THRESHOLD = 2

#: Push/keepalive updates queued (drop-oldest) while the directory is
#: suspect; flushed, coalesced to the newest full summary, once it answers.
PUSH_QUEUE_LIMIT = 8


@dataclass
class DirInfo:
    """What a content peer knows about its directory peer (section 5.1).

    Attributes:
        position_id: the D-ring identifier of the directory slot.
        address: last known network address of its holder.
        age: periods since we last heard from it; reset on any contact,
            reconciled during gossip (smaller age wins).
    """

    position_id: ChordId
    address: Address
    age: int = 0

    def pack(self) -> tuple:
        return (self.position_id, self.address, self.age)

    @staticmethod
    def unpack(raw: Optional[tuple]) -> Optional["DirInfo"]:
        if raw is None:
            return None
        return DirInfo(raw[0], raw[1], raw[2])


class PetalMember:
    """Content-role behaviour of :class:`~repro.cdn.flower.peer.FlowerPeer`
    (see module docstring); all state lives on the peer."""

    # ------------------------------------------------------ periodic loops
    def _start_content_processes(self) -> None:
        period = self.system.gossip_period_ms
        if self._gossip_process is None or not self._gossip_process.active:
            self._gossip_process = self._content_process(period, self._gossip_tick)
        if self._keepalive_process is None or not self._keepalive_process.active:
            self._keepalive_process = self._content_process(
                period, self._keepalive_tick
            )

    def _content_process(
        self, period: float, tick: Callable[[], None]
    ) -> PeriodicProcess:
        return PeriodicProcess(
            self.sim,
            period,
            tick,
            initial_delay=self.rng.uniform(0.0, period),
            jitter=0.05,
            rng=self.rng,
        )

    def _gossip_tick(self) -> None:
        if self.alive and self.directory is None:
            self.gossip.gossip_round()

    def _gossip_data(self) -> Dict[str, Any]:
        return {
            "summary": self.summary.snapshot(),
            "dir": self.dir_info.pack() if self.dir_info else None,
        }

    def _on_gossip_data(self, src: Address, data: Dict[str, Any]) -> None:
        summary = data.get("summary")
        if summary is not None:
            self.peer_summaries[src] = summary
        self._reconcile_dir_info(DirInfo.unpack(data.get("dir")))

    def _reconcile_dir_info(self, incoming: Optional[DirInfo]) -> None:
        """Keep the fresher information about the same directory position
        (section 5.1); adopt any directory of our petal if we have none."""
        if incoming is None or self.directory is not None:
            return
        mine = self.dir_info
        if mine is None:
            petal = self.system.key_service.petal_of(incoming.position_id)
            if petal == (self.website, self.locality):
                self._follow_directory(
                    DirInfo(incoming.position_id, incoming.address, incoming.age),
                    forgive=False,
                )
        elif mine.position_id == incoming.position_id and incoming.age < mine.age:
            replaced = mine.address != incoming.address
            mine.address = incoming.address
            mine.age = incoming.age
            if replaced:
                # The slot changed hands: the replacement directory must
                # learn our content to rebuild its index (section 5.2.2).
                # The record is updated in place, so RPCs already in flight
                # toward the old holder still strike (or confirm) it.
                self._follow_directory(mine)

    def _on_contact_dead(self, address: Address) -> None:
        self.peer_summaries.pop(address, None)

    def _drop_contact(self, address: Address) -> None:
        self.view.remove(address)
        self.peer_summaries.pop(address, None)

    def _keepalive_tick(self) -> None:
        if not self.alive or self.directory is not None:
            return
        info = self.dir_info
        if info is None:
            self._register_with_petal()
        elif not self._dir_suspect:
            # (While suspect, the re-probe chain owns contact attempts.)
            info.age += 1
            self._tell_directory(info, "flower.keepalive", {})

    def _push_to_directory(self) -> None:
        info = self.dir_info
        if info is None or not self.alive:
            return
        keys = sorted(self.store.keys())
        if self._dir_suspect:
            self._queue_push(keys)
            return

        def on_ok() -> None:
            self.store.mark_pushed()
            # This push carried the full key list, superseding anything
            # queued while the directory was suspect.
            self._pending_pushes = ()

        self._tell_directory(
            info, "flower.push", {"keys": keys}, on_ok, lambda: self._queue_push(keys)
        )

    def _on_evicted(self, keys) -> None:
        # The summary unlearns the evicted keys; the next push carries the
        # full key list and the directory's set-diff unlearns them too.
        self.summary.discard(keys)

    def _rebuild_summary(self) -> None:
        self.summary = ExactSummary(self.store.keys())

    def _after_query(self, key: ObjectKey, outcome: str) -> None:
        self.summary.add(key)
        self._maybe_place_chunks(key)
        # (A directory consults its own store directly.)
        if (
            self.directory is None
            and self.dir_info is not None
            and self.store.should_push(self.system.params.push_threshold)
        ):
            self._push_to_directory()

    def handle_flower_fetch(self, message: Message) -> Dict[str, Any]:
        """Serve an object from our cache to a petal member."""
        ok = tuple(message.payload["key"]) in self.store
        if ok:
            self.fetches_served += 1
        return {"ok": ok}

    # -------------------------------------------- following a directory
    def _follow_directory(
        self, info: DirInfo, repush: bool = True, forgive: bool = True
    ) -> None:
        """Point at the directory *info* names -- the one re-point step.

        Whatever we held against the previous holder (strikes, the
        re-probe, queued pushes) is void; the content loops (re)start; and
        because this directory has never seen our cache, we push
        everything we hold so the directory-index reflects it (section
        5.1).

        Two differences between the former copies of this step are pinned
        by the committed overload A/B results and kept as arguments:
        *repush* is False for a directory re-announcing itself (it already
        indexes us), and *forgive* is False where a peer that followed
        nobody learns a directory from gossip or by losing the replacement
        race -- there strikes and queued pushes left over from an earlier
        holder survive the re-point (see ROADMAP, "Break up FlowerPeer").
        """
        self.dir_info = info
        if forgive:
            self._dir_strikes = 0
            self._reprobe_pending = False
            self._pending_pushes = ()
        self._start_content_processes()
        if repush:
            self.store.reset_push_state()
            if len(self.store):
                self._push_to_directory()

    def _forget_directory(self) -> None:
        """Follow nobody (declared failure, or we serve the slot ourselves)."""
        self.dir_info = None
        self._dir_strikes = 0
        self._reprobe_pending = False
        # Pushes queued (drop-oldest) while the directory is suspect: ``()``
        # or the bounded deque :meth:`_queue_push` builds.
        self._pending_pushes = ()

    def handle_flower_member_shed(self, message: Message) -> None:
        """Our overloaded directory shed us to another instance: re-point
        dir-info at it and re-push so its index reflects our cache."""
        if not self._recovering:
            self._redirected(message.payload["position"], message.payload["address"])

    def handle_flower_dir_redirect(self, message: Message) -> None:
        """Our directory demoted: re-point at the merge winner and re-push."""
        info = self.dir_info
        position = message.payload["position"]
        if info is None or info.position_id == position:
            self._redirected(position, message.payload["winner"])

    def _redirected(self, position: ChordId, address: Address) -> None:
        """A directory told us to follow *address* instead (no-op when we
        serve a slot ourselves, are the target, or already point there)."""
        if self.directory is None and address != self.address:
            info = self.dir_info
            if info is None or (info.position_id, info.address) != (position, address):
                self._follow_directory(DirInfo(position, address))

    def handle_flower_dir_announce(self, message: Message) -> Dict[str, Any]:
        """A (possibly provisional) claimant announced it serves a slot."""
        payload = message.payload
        position = payload["position"]
        claimant = message.src
        reply: Dict[str, Any] = {}
        record = self.replica_store.get(position)
        if record is not None:
            reply["replica"] = record.summary(self.sim.now)
        service = self.service
        if service is not None:
            if service.role.position_id == position:
                reply["conflict"] = self.address
                reply["registered"] = service.role.registered
                service.replicator.resolve_conflict(
                    claimant, bool(payload.get("registered"))
                )
            return reply
        if self.system.key_service.petal_of(position) != (
            self.website,
            self.locality,
        ):
            return reply
        info = self.dir_info
        if info is not None and info.position_id != position:
            return reply
        # Adopt the announcer when we have no directory, when it merely
        # re-announces itself, when it is ring-registered (authoritative),
        # or when our current directory is suspect -- but never steal a
        # member from a healthy registered directory for a provisional one.
        if (
            info is None
            or info.address == claimant
            or bool(payload.get("registered"))
            or self._dir_suspect
        ):
            self._follow_directory(
                DirInfo(position, claimant),
                repush=info is None or info.address != claimant,
            )
        return reply

    # ----------------------------------------- suspect-directory degradation
    @property
    def _dir_suspect(self) -> bool:
        """Directory currently unreachable but not yet declared failed."""
        return self._dir_strikes > 0

    def _directory_rpc(
        self,
        info: DirInfo,
        kind: str,
        payload: Dict[str, Any],
        on_reply: Callable[[Dict[str, Any]], None],
        on_give_up: Callable[[], None],
        timeout_ms: Optional[float] = None,
    ) -> None:
        """All directory-facing RPCs share the retry budget/backoff knobs
        (each attempt waits *timeout_ms*, the network default when None)."""
        params = self.system.params
        self.retrying_rpc(
            info.address,
            kind,
            payload,
            on_reply=on_reply,
            on_give_up=on_give_up,
            retries=params.rpc_retries,
            timeout_ms=timeout_ms,
        )

    def _tell_directory(
        self,
        info: DirInfo,
        kind: str,
        payload: Dict[str, Any],
        on_ok: Callable[[], None] = lambda: None,
        on_give_up: Callable[[], None] = lambda: None,
    ) -> None:
        """A maintenance RPC (keepalive, push): ``ok`` acknowledges us,
        any other answer means the peer no longer serves the slot, and an
        exhausted retry budget is a strike."""

        def on_reply(reply: Dict[str, Any]) -> None:
            if reply.get("status") == "ok":
                on_ok()
                self._note_directory_alive(info, reply)
            else:
                self._on_directory_failure(info)

        def give_up() -> None:
            on_give_up()
            self._on_directory_strike(info)

        self._directory_rpc(info, kind, payload, on_reply, give_up)

    def _on_directory_strike(self, info: DirInfo) -> None:
        """One directory RPC exhausted its whole retry budget.

        Below :data:`DIR_FAILURE_THRESHOLD` strikes the directory is only
        *suspect* -- we keep serving queries from gossip-learnt summaries,
        queue pushes, and schedule a fast re-probe.  At the threshold we
        declare failure and race for the slot (section 5.2.1).
        """
        if not self.alive or self.dir_info is not info:
            return
        self._dir_strikes += 1
        self.sim.emit(
            "flower.directory_suspect",
            peer=self.address,
            position=info.position_id,
            strikes=self._dir_strikes,
        )
        if self._dir_strikes >= DIR_FAILURE_THRESHOLD:
            self._on_directory_failure(info)
        elif not self._reprobe_pending:
            self._reprobe_pending = True
            self.sim.schedule(SCAN_RETRY_DELAY_MS, self._reprobe_directory, info)

    def _reprobe_directory(self, info: DirInfo) -> None:
        self._reprobe_pending = False
        if self.alive and self.dir_info is info and self._dir_suspect:
            self._tell_directory(info, "flower.keepalive", {})

    def _note_directory_alive(self, info: DirInfo, reply: Dict[str, Any]) -> None:
        """Our directory acknowledged us.  Its reply may carry the search
        failover plan and the petal's load vector; any successful contact
        clears suspicion and flushes the queued pushes (coalesced: pushes
        carry the full key list, so one fresh push supersedes everything
        queued during the outage)."""
        info.age = 0
        self._harvest_search_replicas(reply)
        self._harvest_load_hint(reply)
        if self._dir_strikes:
            self._dir_strikes = 0
            self.sim.emit(
                "flower.directory_recovered",
                peer=self.address,
                position=info.position_id,
            )
        if self._pending_pushes:
            self._pending_pushes = ()
            self.sim.emit("flower.push_flushed", peer=self.address)
            self._push_to_directory()

    def _queue_push(self, keys: List[ObjectKey]) -> None:
        if not self._pending_pushes:
            # Built on the first queued push only: most peers never see
            # their directory suspect, and ``()`` is "nothing queued".
            self._pending_pushes = deque(maxlen=PUSH_QUEUE_LIMIT)
        self._pending_pushes.append(keys)
        self.sim.emit(
            "flower.push_queued",
            peer=self.address,
            queued=len(self._pending_pushes),
        )

    def _on_directory_failure(self, info: DirInfo) -> None:
        """We observed our directory peer dead: race to replace it
        (section 5.2)."""
        if self.dir_info is not info and self.dir_info is not None:
            return  # already re-pointed (gossip beat us to it)
        self._forget_directory()
        self.sim.emit(
            "flower.directory_failure_detected",
            peer=self.address,
            position=info.position_id,
        )
        if self._recovering or self.directory is not None:
            return
        decoded = self.system.key_service.decode(info.position_id)
        if decoded is not None:
            self._begin_directory_role(*decoded, info.position_id)

    # ------------------------------------- adopting a rebalanced hot key
    def handle_flower_rebalance(self, message: Message) -> None:
        """Adopt a hot key our directory asked us to replicate.

        One-way and best-effort: fetch the object from one of the named
        holders over the ordinary ``flower.fetch`` path, cache it, and
        let the next push/summary propagate the new copy.  The directory
        index lags pushes, so each candidate source may have evicted the
        key by now -- try them in turn and drop the request if none still
        holds it (the directory retries on a later pressured sweep if the
        key stays hot).
        """
        if not self.system.params.rebalance or self.directory is not None:
            return
        payload = message.payload
        self._rebalance_fetch(
            tuple(payload["key"]),
            [s for s in payload["sources"] if s != self.address],
        )

    def _rebalance_fetch(self, key: ObjectKey, sources: List[Address]) -> None:
        if not sources or not self.alive or key in self.store:
            return
        source, rest = sources[0], sources[1:]

        def adopt(reply: Dict[str, Any]) -> None:
            if not reply.get("ok"):
                self._rebalance_fetch(key, rest)
            elif self.alive and key not in self.store:
                __, evicted = self.store.add_with_evictions(key)
                if evicted:
                    self._forget_evicted(evicted)
                self.summary.add(key)
                self._maybe_place_chunks(key)
                self.sim.emit(
                    "flower.key_adopted",
                    peer=self.address,
                    key=key,
                    source=source,
                )
                if self.dir_info is not None:
                    self._push_to_directory()

        self.rpc(
            source,
            "flower.fetch",
            {"key": key},
            adopt,
            on_timeout=lambda: self._rebalance_fetch(key, rest),
        )
