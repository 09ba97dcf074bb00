"""Optional bandwidth model for payload transfers.

The base transport (:mod:`repro.net.transport`) is latency-only, matching
the paper's PeerSim setup (section 6.1): a message of any size arrives
after one link latency, so a content fetch is an atomic RPC and a serving
peer that crashes mid-download is invisible.  This module adds the missing
dimension for *large* objects: every peer has a finite **upload capacity**
(kilobits per second) that is fair-shared across its concurrent outbound
transfers.

The model is strictly opt-in: ``Network.bandwidth`` stays ``None`` unless
:meth:`Network.install_bandwidth` is called, and with it off no events,
RNG draws, or wire formats change — the PR 6/7 determinism goldens stay
bit-identical.  Control messages are *always* latency-only; only the
swarming layer (:mod:`repro.cdn.swarm`) opens flows here for chunk
payloads.

Mechanics.  A :class:`Flow` models one outbound payload transfer.  Rates
are expressed in kbps, which conveniently equals bits-per-millisecond, so
``time_ms = size_bytes * 8 / rate_kbps``.  Fair sharing uses settle-then-
reschedule: whenever the flow set at a sender changes, elapsed progress
is credited to every active flow at the old rate, the new per-flow rate
``bandwidth_kbps / n_flows`` is computed, and each completion event is
rescheduled.  All bookkeeping is driven by simulator events, so runs are
deterministic.

Slow uplinks.  A deterministic fraction of peers can be degraded to
``bandwidth_kbps / bandwidth_slow_factor`` — membership is a pure function of the
model seed and the address (no shared RNG stream), so adding peers never
perturbs who is slow.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import ConfigError
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.types import Address

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentConfig

__all__ = ["BandwidthModel", "Flow"]


class Flow:
    """One outbound payload transfer, progressing at a fair-share rate."""

    __slots__ = (
        "src",
        "dst",
        "size_bytes",
        "remaining_bits",
        "rate_kbps",
        "started_at",
        "settled_at",
        "on_done",
        "on_abort",
        "done",
        "_handle",
    )

    def __init__(
        self,
        src: Address,
        dst: Address,
        size_bytes: int,
        now: float,
        on_done: Callable[["Flow"], None],
        on_abort: Optional[Callable[["Flow"], None]],
    ) -> None:
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.remaining_bits = float(size_bytes) * 8.0
        self.rate_kbps = 0.0
        self.started_at = now
        self.settled_at = now
        self.on_done = on_done
        self.on_abort = on_abort
        self.done = False
        self._handle = None


class BandwidthModel:
    """Fair-share scheduler for concurrent outbound transfers.

    Attach with :meth:`repro.net.transport.Network.install_bandwidth`.
    The swarming layer opens a flow per chunk payload via :meth:`start`;
    chunk *requests* and all other control traffic remain latency-only
    RPCs on the base transport.
    """

    def __init__(self, sim: Simulator, config: ExperimentConfig, seed: int) -> None:
        self.sim = sim
        #: the run's config: ``bandwidth_kbps`` per peer, and the slow
        #: uplinks' ``bandwidth_slow_fraction`` / ``bandwidth_slow_factor``.
        self.config = config
        #: master seed of the deterministic slow-uplink draw.
        self.seed = seed
        self._flows_by_src: Dict[Address, List[Flow]] = {}
        self._capacity: Dict[Address, float] = {}
        #: Counters (exported through ``stats().swarm`` / bench reports).
        self.flows_started = 0
        self.flows_completed = 0
        self.flows_aborted = 0
        self.bytes_completed = 0
        self.bytes_aborted = 0
        self.peak_concurrent = 0
        self.slow_peers = 0

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------

    def capacity_kbps(self, address: Address) -> float:
        """The (memoized) upload capacity of ``address``.

        Slow-uplink membership is a pure function of ``(seed, address)``
        via :func:`derive_seed`, so it is stable under population growth.
        """
        cached = self._capacity.get(address)
        if cached is not None:
            return cached
        config = self.config
        capacity = config.bandwidth_kbps
        if config.bandwidth_slow_fraction > 0.0:
            draw = random.Random(derive_seed(self.seed, f"uplink:{address}")).random()
            if draw < config.bandwidth_slow_fraction:
                capacity = config.bandwidth_kbps / config.bandwidth_slow_factor
                self.slow_peers += 1
        self._capacity[address] = capacity
        return capacity

    # ------------------------------------------------------------------
    # flow lifecycle
    # ------------------------------------------------------------------

    def start(
        self,
        src: Address,
        dst: Address,
        size_bytes: int,
        on_done: Callable[[Flow], None],
        on_abort: Optional[Callable[[Flow], None]] = None,
    ) -> Flow:
        """Open a flow of ``size_bytes`` from ``src``; returns its handle.

        ``on_done(flow)`` fires when the last bit lands; ``on_abort(flow)``
        fires instead if the sender dies (:meth:`abort_uploads_of`) or the
        flow is cancelled mid-transfer.
        """
        if size_bytes <= 0:
            raise ConfigError(f"flow size must be positive (got {size_bytes})")
        now = self.sim.now
        flow = Flow(src, dst, size_bytes, now, on_done, on_abort)
        self._settle(src)
        flows = self._flows_by_src.setdefault(src, [])
        flows.append(flow)
        self.flows_started += 1
        if len(flows) > self.peak_concurrent:
            self.peak_concurrent = len(flows)
        self._reschedule(src)
        return flow

    def cancel(self, flow: Flow) -> None:
        """Drop ``flow`` without invoking either callback (idempotent)."""
        if flow.done:
            return
        flow.done = True
        self._discard(flow)

    def abort_uploads_of(self, address: Address) -> int:
        """Abort every in-flight upload from ``address`` (seeder death).

        Each aborted flow's ``on_abort`` callback fires synchronously so
        downloaders can fail over per-chunk.  Returns the abort count.
        """
        flows = self._flows_by_src.get(address)
        if not flows:
            return 0
        self._settle(address)
        victims = list(flows)
        for flow in victims:
            flow.done = True
            if flow._handle is not None:
                self.sim.cancel(flow._handle)
                flow._handle = None
            self.flows_aborted += 1
            self.bytes_aborted += flow.size_bytes
        del self._flows_by_src[address]
        for flow in victims:
            if flow.on_abort is not None:
                flow.on_abort(flow)
        return len(victims)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _settle(self, src: Address) -> None:
        """Credit progress at the current rates up to ``sim.now``."""
        flows = self._flows_by_src.get(src)
        if not flows:
            return
        now = self.sim.now
        for flow in flows:
            elapsed = now - flow.settled_at
            if elapsed > 0.0 and flow.rate_kbps > 0.0:
                # kbps == bits per millisecond, so this is just bits.
                flow.remaining_bits = max(
                    0.0, flow.remaining_bits - elapsed * flow.rate_kbps
                )
            flow.settled_at = now
        return

    def _reschedule(self, src: Address) -> None:
        """Recompute fair shares and re-arm every completion event."""
        flows = self._flows_by_src.get(src)
        if not flows:
            return
        rate = self.capacity_kbps(src) / len(flows)
        for flow in flows:
            flow.rate_kbps = rate
            if flow._handle is not None:
                self.sim.cancel(flow._handle)
            delay = flow.remaining_bits / rate
            if not math.isfinite(delay):
                raise ConfigError(f"non-finite flow delay for {src}->{flow.dst}")
            flow._handle = self.sim.schedule(delay, self._complete, flow)
        return

    def _complete(self, flow: Flow) -> None:
        if flow.done:
            return
        flow.done = True
        flow._handle = None
        # The firing event is always current (membership changes re-arm
        # it), so the flow has fully drained modulo float epsilon.
        flow.remaining_bits = 0.0
        self._settle(flow.src)
        self._discard(flow)
        self.flows_completed += 1
        self.bytes_completed += flow.size_bytes
        flow.on_done(flow)

    def _discard(self, flow: Flow) -> None:
        if flow._handle is not None:
            self.sim.cancel(flow._handle)
            flow._handle = None
        flows = self._flows_by_src.get(flow.src)
        if not flows:
            return
        try:
            flows.remove(flow)
        except ValueError:
            return
        if flows:
            self._settle(flow.src)
            self._reschedule(flow.src)
        else:
            del self._flows_by_src[flow.src]

    def active_flows(self, src: Address) -> int:
        flows = self._flows_by_src.get(src)
        return len(flows) if flows else 0

    def stats(self) -> Dict[str, float]:
        return {
            "flows_started": self.flows_started,
            "flows_completed": self.flows_completed,
            "flows_aborted": self.flows_aborted,
            "bytes_completed": self.bytes_completed,
            "bytes_aborted": self.bytes_aborted,
            "peak_concurrent": self.peak_concurrent,
            "slow_peers": self.slow_peers,
        }
