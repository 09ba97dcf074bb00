"""Chunked multi-source downloads that survive seeder death.

The paper models a content fetch as one atomic RPC (section 6.1): a
serving peer that crashes mid-download is invisible, which hides exactly
the failure mode a flash crowd of large objects makes common.  This
module makes large-object transfer a first-class, failure-survivable
subsystem:

* a querier that resolved a provider opens a :class:`SwarmTransfer`
  instead of one ``flower.fetch`` RPC when the object spans more than
  one chunk (:mod:`repro.workload.objectsize`);
* the provider answers a ``swarm.manifest`` request with the chunk
  indices it **has** plus **also** hints — other peers it placed chunk
  replicas on — and the transfer pumps chunk requests in parallel,
  rarest-first among advertised holders;
* a dead source (RPC timeout, mid-flow upload abort) or a stalled slow
  uplink triggers per-chunk retry with exponential backoff to an
  alternate holder — *resume, never restart*: completed chunks are kept
  and only missing ones are re-requested;
* a chunk with no live holder left degrades to the origin server for the
  *remaining* chunks only (terminal outcome ``miss_degraded``).

Cold mode (``swarm_resume=False`` with one source) reproduces the
single-source baseline for the A/B benchmark: any source failure emits
``swarm.restart``, discards all progress and re-fetches the whole object
from the origin.

Every transfer is terminally accounted (invariant I9): exactly one of
completed / degraded / failed closes each ``swarm.start``, with byte
accounting consistent — bytes received equals the chunk sizes of
completed chunks, no chunk counted twice within a generation.

Trace events:

``swarm.start``        transfer opened (peer, key, chunks, size)
``swarm.chunk_done``   one chunk landed (chunk, source, bytes)
``swarm.chunk_retry``  per-chunk failover (chunk, source, reason)
``swarm.degraded``     fell back to origin for the remaining chunks
``swarm.restart``      cold mode discarded progress (restart-from-zero)
``swarm.done``         terminal close (outcome, bytes, origin_bytes)

Determinism: chunk and source selection are pure functions of the
transfer state (fewest holders, then lowest index; fewest in-flight,
then lowest address) — no RNG stream is consumed, so enabling swarming
cannot perturb unrelated draws.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.types import Address, ObjectKey

__all__ = ["SwarmTransfer"]

#: Per-chunk stall deadline under the bandwidth model: a chunk still in
#: flight after this long abandons its (slow) source and fails over.
STALL_MS = 8000.0

#: Base per-chunk retry backoff, doubled per attempt up to the cap.
RETRY_MS = 200.0

#: Cap on the exponential per-chunk retry backoff.
RETRY_CAP_MS = 8000.0


class SwarmTransfer:
    """One chunked, multi-source download on the querying peer.

    The peer keeps the query-ledger discipline (I1): this machine ends
    every run by calling ``peer._finish_query`` (hit_swarm /
    miss_degraded), ``peer._fail_query`` (origin unreachable), or — on a
    crash of the downloading peer itself — :meth:`abort`, after which the
    crash sweep records ``failed_crash`` for the open ledger entry.
    """

    def __init__(
        self,
        peer: Any,
        key: ObjectKey,
        provider: Address,
        started_at: float,
        hops: int = 0,
        extra_sources: Optional[List[Address]] = None,
    ) -> None:
        self.peer = peer
        self.sim = peer.sim
        self.key = key
        self.provider = provider
        self.started_at = started_at
        self.hops = hops
        params = peer.system.params
        self.parallel = params.swarm_parallel
        self.max_sources = params.swarm_sources
        self.resume = params.swarm_resume
        sizes = peer.system.sizes
        self.chunk_sizes: List[int] = sizes.chunk_sizes(key)
        self.size_bytes = sizes.size_bytes(key)
        count = len(self.chunk_sizes)
        # --- chunk state ---
        self.pending: Set[int] = set(range(count))
        self.in_flight: Dict[int, Optional[Address]] = {}  # None == origin
        self.completed: Set[int] = set()
        self.origin_chunks: Set[int] = set()
        self.attempts: Dict[int, int] = {}
        # --- source state ---
        self.holders: Dict[int, Set[Address]] = {i: set() for i in range(count)}
        self.sources: Set[Address] = set()
        self._asked: Set[Address] = {peer.address}
        self._manifests_pending = 0
        self._extra_sources = list(extra_sources or ())
        # --- accounting ---
        self.bytes_received = 0
        self.origin_bytes = 0
        self.restarts = 0
        self.degraded = False
        self.done = False
        #: Bumped on restart-from-zero; stale callbacks compare against it.
        self.generation = 0
        self._timers: Dict[int, Any] = {}
        self._flows: Dict[int, Any] = {}
        self._retry_handles: Dict[int, Any] = {}

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        peer = self.peer
        old = peer._swarms.get(self.key)
        if old is not None:
            old.abort()  # superseded by a fresh query for the same key
        peer._swarms[self.key] = self
        self.sim.emit(
            "swarm.start",
            peer=peer.address,
            key=self.key,
            chunks=len(self.chunk_sizes),
            size=self.size_bytes,
        )
        self._ask_manifest(self.provider)
        for address in self._extra_sources:
            if len(self._asked) - 1 >= self.max_sources:
                break
            self._ask_manifest(address)

    def abort(self) -> None:
        """Terminal close without a query outcome (downloader crash or a
        superseding query); the ledger entry is settled elsewhere."""
        if self.done:
            return
        self._close("failed")

    # ------------------------------------------------------------- manifests
    def _ask_manifest(self, address: Address) -> None:
        if address in self._asked or address == self.peer.address:
            return
        self._asked.add(address)
        self._manifests_pending += 1
        gen = self.generation

        def on_reply(payload: Dict[str, Any]) -> None:
            if self.done or gen != self.generation:
                return
            self._manifests_pending -= 1
            if payload.get("ok"):
                self._merge_manifest(address, payload)
            self._pump()

        def on_timeout() -> None:
            if self.done or gen != self.generation:
                return
            self._manifests_pending -= 1
            self._drop_source(address)
            self._pump()

        self.peer.rpc(
            address, "swarm.manifest", {"key": self.key}, on_reply, on_timeout
        )

    def _merge_manifest(self, address: Address, payload: Dict[str, Any]) -> None:
        self.sources.add(address)
        count = len(self.chunk_sizes)
        for index in payload.get("have", ()):
            if 0 <= index < count:
                self.holders[index].add(address)
        for hint in payload.get("also", ()):
            if len(self._asked) - 1 >= self.max_sources:
                break
            self._ask_manifest(hint)

    def _drop_source(self, address: Address) -> None:
        """Forget a dead or slow source everywhere."""
        self.sources.discard(address)
        for holders in self.holders.values():
            holders.discard(address)

    # ------------------------------------------------------------------ pump
    def _pump(self) -> None:
        """Fill the parallel window rarest-first; detect completion."""
        if self.done or not self.peer.alive:
            return
        while self.pending and len(self.in_flight) < self.parallel:
            fetchable = [i for i in self.pending if self.holders[i] & self.sources]
            if fetchable:
                chunk = min(
                    fetchable, key=lambda i: (len(self.holders[i] & self.sources), i)
                )
                source = self._pick_source(chunk)
                self._fetch_chunk(chunk, source)
                continue
            if self._manifests_pending > 0:
                return  # more holder info may still arrive; don't degrade yet
            self._origin_chunk(min(self.pending))
        if not self.pending and not self.in_flight and not self._retry_handles:
            self._finish()

    def _pick_source(self, chunk: int) -> Optional[Address]:
        candidates = self.holders[chunk] & self.sources
        if not candidates:
            return None
        busy: Dict[Address, int] = {}
        for src in self.in_flight.values():
            if src is not None:
                busy[src] = busy.get(src, 0) + 1
        return min(candidates, key=lambda a: (busy.get(a, 0), a))

    # ----------------------------------------------------------- chunk fetch
    def _fetch_chunk(self, chunk: int, source: Address) -> None:
        self.pending.discard(chunk)
        self.in_flight[chunk] = source
        gen = self.generation

        def stale() -> bool:
            return (
                self.done
                or gen != self.generation
                or self.in_flight.get(chunk) != source
            )

        def on_reply(payload: Dict[str, Any]) -> None:
            if stale():
                return
            if not payload.get("ok"):
                # The source no longer holds this chunk (eviction).
                self.holders[chunk].discard(source)
                self._chunk_failed(chunk, source, "gone")
                return
            bandwidth = self.peer.network.bandwidth
            if bandwidth is None:
                self._chunk_done(chunk, source)
                return
            flow = bandwidth.start(
                source,
                self.peer.address,
                self.chunk_sizes[chunk],
                on_done=lambda _f: None if stale() else self._chunk_done(chunk, source),
                on_abort=lambda _f: None
                if stale()
                else self._source_died(chunk, source, "seeder_death"),
            )
            self._flows[chunk] = flow
            self._timers[chunk] = self.sim.schedule(
                STALL_MS, self._stalled, chunk, source, gen
            )

        def on_timeout() -> None:
            if stale():
                return
            self._source_died(chunk, source, "timeout")

        self.peer.rpc(
            source, "swarm.chunk", {"key": self.key, "chunk": chunk}, on_reply, on_timeout
        )

    def _stalled(self, chunk: int, source: Address, gen: int) -> None:
        self._timers.pop(chunk, None)
        if self.done or gen != self.generation or self.in_flight.get(chunk) != source:
            return
        # Slow-uplink degradation: abandon the laggard for good.
        self._source_died(chunk, source, "stalled")

    def _source_died(self, chunk: int, source: Address, reason: str) -> None:
        self._drop_source(source)
        self._chunk_failed(chunk, source, reason)

    def _chunk_failed(self, chunk: int, source: Address, reason: str) -> None:
        self._clear_chunk(chunk)
        self.sim.emit(
            "swarm.chunk_retry",
            peer=self.peer.address,
            key=self.key,
            chunk=chunk,
            source=source,
            reason=reason,
        )
        if not self.resume:
            self._restart_from_zero()
            return
        attempts = self.attempts.get(chunk, 0) + 1
        self.attempts[chunk] = attempts
        delay = min(RETRY_MS * (2.0 ** (attempts - 1)), RETRY_CAP_MS)
        gen = self.generation

        def retry() -> None:
            self._retry_handles.pop(chunk, None)
            if self.done or gen != self.generation:
                return
            self.pending.add(chunk)
            self._pump()

        self._retry_handles[chunk] = self.sim.schedule(delay, retry)

    def _clear_chunk(self, chunk: int) -> None:
        self.in_flight.pop(chunk, None)
        timer = self._timers.pop(chunk, None)
        if timer is not None:
            self.sim.cancel(timer)
        flow = self._flows.pop(chunk, None)
        if flow is not None:
            bandwidth = self.peer.network.bandwidth
            if bandwidth is not None:
                bandwidth.cancel(flow)

    def _chunk_done(self, chunk: int, source: Address) -> None:
        self._clear_chunk(chunk)
        self.completed.add(chunk)
        size = self.chunk_sizes[chunk]
        self.bytes_received += size
        self.peer.system.swarm_p2p_bytes += size
        self.sim.emit(
            "swarm.chunk_done",
            peer=self.peer.address,
            key=self.key,
            chunk=chunk,
            source=source,
            bytes=size,
        )
        self._pump()

    # --------------------------------------------------------------- origin
    def _origin_chunk(self, chunk: int) -> None:
        """Fetch one remaining chunk from the origin server (degraded)."""
        if not self.degraded:
            self.degraded = True
            self.sim.emit(
                "swarm.degraded",
                peer=self.peer.address,
                key=self.key,
                remaining=len(self.pending) + 1,
            )
        self.pending.discard(chunk)
        self.in_flight[chunk] = None
        gen = self.generation
        params = self.peer.system.params
        server = self.peer.system.servers[self.key[0]]
        size = self.chunk_sizes[chunk]

        def on_reply(payload: Dict[str, Any]) -> None:
            if self.done or gen != self.generation or chunk not in self.in_flight:
                return
            self.in_flight.pop(chunk, None)
            self.completed.add(chunk)
            self.origin_chunks.add(chunk)
            self.origin_bytes += size
            self.peer.system.swarm_origin_bytes += size
            self.sim.emit(
                "swarm.chunk_done",
                peer=self.peer.address,
                key=self.key,
                chunk=chunk,
                source=server.address,
                bytes=size,
            )
            self._pump()

        def on_give_up() -> None:
            if self.done or gen != self.generation:
                return
            self._close("failed")
            self.peer._fail_query(self.key, "failed_unreachable", self.started_at)

        self.peer.retrying_rpc(
            server.address,
            "server.chunk",
            {"key": self.key, "chunk": chunk, "size": size},
            on_reply=on_reply,
            on_give_up=on_give_up,
            retries=params.rpc_retries,
        )

    def _restart_from_zero(self) -> None:
        """Cold-mode source failure: discard progress, refetch everything
        from the origin (the whole-object fallback of the baseline)."""
        self.restarts += 1
        self.generation += 1
        for chunk in list(self.in_flight):
            self._clear_chunk(chunk)
        for handle in self._retry_handles.values():
            self.sim.cancel(handle)
        self._retry_handles.clear()
        # Progress discarded: completed bytes no longer count as received.
        self.bytes_received = 0
        self.origin_bytes = 0
        self.completed.clear()
        self.origin_chunks.clear()
        self.pending = set(range(len(self.chunk_sizes)))
        self.sim.emit("swarm.restart", peer=self.peer.address, key=self.key)
        while self.pending:
            self._origin_chunk(min(self.pending))

    # ------------------------------------------------------------- terminal
    def _finish(self) -> None:
        if self.done:
            return
        peer = self.peer
        if self.degraded or self.restarts:
            self._close("degraded")
            peer._finish_query(
                self.key,
                "miss_degraded",
                peer.system.servers[self.key[0]].address,
                self.started_at,
                self.hops,
            )
        else:
            self._close("completed")
            peer.system.swarm_completed += 1
            peer._finish_query(
                self.key, "hit_swarm", self.provider, self.started_at, self.hops
            )

    def _close(self, outcome: str) -> None:
        self.done = True
        for chunk in list(self.in_flight):
            self._clear_chunk(chunk)
        for handle in self._retry_handles.values():
            self.sim.cancel(handle)
        self._retry_handles.clear()
        if outcome == "failed":
            self.peer.system.swarm_failed += 1
        if self.peer._swarms.get(self.key) is self:
            del self.peer._swarms[self.key]
        self.sim.emit(
            "swarm.done",
            peer=self.peer.address,
            key=self.key,
            outcome=outcome,
            bytes=self.bytes_received,
            origin_bytes=self.origin_bytes,
            size=self.size_bytes,
            elapsed_ms=self.sim.now - self.started_at,
        )
