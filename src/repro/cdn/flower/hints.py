"""Queue-aware redirect hints (overload extension; inert unless
``params.redirect_hints``) -- a :class:`~repro.cdn.flower.peer.FlowerPeer`
mixin.

Directories piggyback their petal's load vector -- own admission-queue
depth plus sibling-instance depths -- on replies and replica syncs.  A
member harvests it into ``_petal_loads`` (instance address -> (queue
depth, as-of time)) and consults it to pre-route a query to the
least-loaded live instance before the home admission queue sheds it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.cdn.flower.petal import DirInfo
from repro.types import Address, ObjectKey

#: How long a harvested load hint stays actionable (ms).
HINT_TTL_MS = 60_000.0


class RedirectHints:
    """Hint harvesting and the one hint-guided hop of
    :class:`~repro.cdn.flower.peer.FlowerPeer`; all state lives on the
    peer."""

    def _fresh_depth(self, load: tuple, now: float) -> Optional[int]:
        """A harvested depth while still actionable, else None.

        Queue depths are taken at face value within :data:`HINT_TTL_MS`
        of their measurement: the overload that filled a queue persists on
        the hint-refresh timescale (replies, keepalives, replica syncs),
        so extrapolating drain would systematically under-estimate.  Past
        the TTL the hint says nothing and is ignored.
        """
        depth, as_of = load
        if now - as_of > HINT_TTL_MS:
            return None
        return depth

    def _hint_preroute(self, info: DirInfo) -> Optional[tuple]:
        """Pick a better-looking instance than home, or None.

        Pre-routes only when fresh hints say the home instance's
        admission queue is at its limit (we would be shed) *and* some
        other known instance looks strictly less loaded.  Returns
        ``(target, home_depth, target_depth)``.
        """
        params = self.system.params
        limit = params.directory_queue_limit
        if limit < 1 or not self._petal_loads:
            return None
        now = self.sim.now
        home = self._petal_loads.get(info.address)
        if home is None:
            return None
        home_depth = self._fresh_depth(home, now)
        if home_depth is None or home_depth < limit:
            return None
        best: Optional[Address] = None
        best_depth = home_depth
        for address in sorted(self._petal_loads):
            if address == info.address or address == self.address:
                continue
            depth = self._fresh_depth(self._petal_loads[address], now)
            if depth is not None and depth < best_depth:
                best = address
                best_depth = depth
        if best is None:
            return None
        return best, home_depth, best_depth

    def _query_hinted_instance(
        self,
        key: ObjectKey,
        started_at: float,
        home: DirInfo,
        target: Address,
        depth_from: int,
        depth_to: int,
    ) -> None:
        """One hint-guided pre-route hop (overload extension).

        Exactly one: every outcome below is terminal or hands off to an
        already-bounded path (the post-shed redirect, the home-directory
        fallback, the origin server), so a stale hint can cost at most
        one extra RPC -- never a routing loop -- and the ledger entry
        closes exactly once on every branch.
        """
        system = self.system
        self.sim.emit(
            "flower.hint_hop",
            peer=self.address,
            key=key,
            frm=home.address,
            to=target,
            depth_from=depth_from,
            depth_to=depth_to,
        )

        def forget_hint() -> None:
            self._petal_loads.pop(target, None)
            system.hint_stale += 1

        def apply(reply: Dict[str, Any]) -> None:
            if reply.get("status") == "not_directory":
                # Stale hint: the instance crashed or demoted since it
                # gossiped its load.  Forget it and fall back to today's
                # home-directory path (re-read, in case home moved too).
                forget_hint()
                self._ask_directory(key, started_at, preroute=False)
                return
            if reply.get("status") == "provider" and reply.get("provider") is not None:
                system.hint_hits += 1
            self._apply_member_reply(key, started_at, reply, target)

        def on_timeout() -> None:
            # Dead hinted instance: accounted as a miss, hint dropped.
            forget_hint()
            self._fetch_from_server(key, "miss_failed", started_at)

        self._ask_instance(target, key, started_at, apply, on_timeout)

    def _harvest_load_hint(self, payload: Dict[str, Any]) -> None:
        """Remember the load vector piggybacked on a directory reply."""
        hint = payload.get("load_hint")
        if hint is not None:
            self._note_petal_loads(hint)

    def _note_petal_loads(self, vector) -> None:
        """Fold ``(address, depth, age_ms)`` rows into our picture of the
        petal's instances (freshest measurement wins)."""
        now = self.sim.now
        for address, depth, age_ms in vector:
            as_of = now - age_ms
            current = self._petal_loads.get(address)
            if address != self.address and (current is None or as_of >= current[1]):
                self._petal_loads[address] = (depth, as_of)

    def _harvest_load_vector(
        self, payload: Dict[str, Any], vector: List[tuple]
    ) -> None:
        """Absorb the load vector gossiped over a replica sync.

        A sibling instance of the same petal folds the rows into its own
        directory-side picture (so its replies re-export them); an
        ordinary member of that petal treats them like reply-piggybacked
        hints."""
        d = self.directory
        petal = (payload.get("website"), payload.get("locality"))
        if d is None:
            if (self.website, self.locality) == petal:
                self._note_petal_loads(vector)
        elif (d.website, d.locality) == petal and d.position_id != payload.get(
            "position"
        ):
            now = self.sim.now
            for address, depth, age_ms in vector:
                if address != self.address:
                    d.note_peer_load(address, depth, now - age_ms)
