"""Conservative windowed execution of sharded simulations.

Classic conservative parallel discrete-event simulation, specialized to the
latency model: all shards advance in lockstep through windows of
``window_ms`` virtual milliseconds.  Within a window every shard runs its
own :class:`~repro.sim.engine.Simulator` independently; at the barrier the
shards exchange the cross-shard messages generated during the window and
only then advance into the next one.

Ordering is the whole game.  Every boundary entry is stamped with its
natural arrival time and its position in the source shard's outbox;
:func:`route_entries` merges all outboxes into per-destination lists sorted
by the canonical key ``(arrival, src_shard, serial)``.  Destination shards
schedule the entries in that order (equal-time events fire in scheduling
order), so the merged event stream of a shard is a pure function of the
configuration and seed -- **independent of how shards are spread over
worker processes**.  That is what the shard-count invariance tests pin.

The lookahead bound: a delivery event for a cross-shard message fires at
``send + latency`` in the source shard, is shipped at the following barrier
and floored to it, so every boundary hop is delayed by at most one window.
With ``window <= latency_max`` a cross-shard round trip therefore takes at
most ``2 * (latency_max + window)``; sharded runs widen their RPC timeouts
by ``2 * window`` (see :mod:`repro.experiments.sharded`) so failure
detection never misfires on bus scheduling delay alone.

There is one window loop, :func:`run_windows`; what a process does with
its shards' outboxes at a barrier is its *exchange* argument.  With every
shard in one process that is :func:`route_entries` itself.  Multi-process
execution uses a parent-hub barrier: workers (forked, one slice of shards
each) run the same loop with an exchange that sends their outboxes to the
parent and returns the inboxes it answers with; the parent runs the same
:func:`route_entries` merge over all of them.  The hub fully drains every
worker before answering any of them, so the exchange cannot deadlock.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Dict, List, Protocol, Tuple

from repro.errors import ConfigError, SimulationError


class ShardCellLike(Protocol):
    """What the window scheduler needs from one shard's world."""

    def run_to(self, until_ms: float) -> None: ...

    def drain(self) -> List[tuple]: ...

    def inject(self, entries: List[tuple], barrier_ms: float) -> None: ...

    def finalize(self) -> Dict[str, Any]: ...


#: Builds the cells for one worker: shard_ids -> {shard_id: cell}.
CellFactory = Callable[[List[int]], Dict[int, ShardCellLike]]

#: What happens to outboxes at a barrier: {src shard: outbox} in, the
#: hosted shards' {dst shard: inbox} out.
Exchange = Callable[[Dict[int, List[tuple]]], Dict[int, List[tuple]]]


def route_entries(outboxes: Dict[int, List[tuple]]) -> Dict[int, List[tuple]]:
    """Merge per-source outboxes into canonically ordered per-dst inboxes.

    *outboxes* maps source shard id -> that shard's outbox (in generation
    order).  Entries carry ``(tag, arrival, dst_shard, ...)``; the merge
    key is ``(arrival, src_shard, serial)`` where serial is the entry's
    position in its source outbox.  The same function runs in-process and
    in the parent hub, so the delivery order -- and therefore every event
    stream -- is identical for any worker count.
    """
    tagged: List[Tuple[float, int, int, tuple]] = []
    for src_shard in sorted(outboxes):
        for serial, entry in enumerate(outboxes[src_shard]):
            tagged.append((entry[1], src_shard, serial, entry))
    tagged.sort(key=lambda item: (item[0], item[1], item[2]))
    inboxes: Dict[int, List[tuple]] = {}
    for __, __, __, entry in tagged:
        inboxes.setdefault(entry[2], []).append(entry)
    return inboxes


def check_window(window_ms: float) -> None:
    """Refuse a window the loop could not advance through."""
    if window_ms <= 0:
        raise ConfigError(f"window must be positive (got {window_ms})")


def check_workers(workers: int, num_shards: int) -> None:
    """Refuse a worker count that cannot split *num_shards* evenly."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1 (got {workers})")
    if num_shards % workers != 0:
        raise ConfigError(
            f"workers={workers} does not divide the {num_shards}-shard map "
            f"cleanly; choose a divisor of {num_shards}"
        )


def run_windows(
    cells: Dict[int, ShardCellLike],
    horizon_ms: float,
    window_ms: float,
    exchange: Exchange = route_entries,
) -> Dict[int, Dict[str, Any]]:
    """The windowed loop over the shards one process hosts.

    At every barrier but the last, the cells' outboxes go to *exchange* and
    what it returns is injected.  With every shard in this process that is
    the merge itself, :func:`route_entries`; a forked worker passes a round
    trip to the hub, which runs the same merge over all workers' outboxes.
    One loop and one merge either way, which is what makes worker count
    unobservable in the results.
    """
    check_window(window_ms)
    ordered = sorted(cells)
    now = 0.0
    while now < horizon_ms:
        barrier = min(now + window_ms, horizon_ms)
        for sid in ordered:
            cells[sid].run_to(barrier)
        if barrier >= horizon_ms:
            break
        inboxes = exchange({sid: cells[sid].drain() for sid in ordered})
        for sid in ordered:
            cells[sid].inject(inboxes.get(sid, []), barrier)
        now = barrier
    return {sid: cells[sid].finalize() for sid in ordered}


# --------------------------------------------------------------------- multi
def _worker_main(
    conn,
    factory: CellFactory,
    shard_ids: List[int],
    horizon_ms: float,
    window_ms: float,
) -> None:
    """One forked worker: :func:`run_windows` over its shard slice.

    Protocol (per window, in lockstep with the parent): send
    ``("out", {sid: outbox})``, receive ``("in", {sid: inbox})``.  After the
    final window: send ``("done", {sid: finalize()})``.
    """

    def exchange(outboxes: Dict[int, List[tuple]]) -> Dict[int, List[tuple]]:
        conn.send(("out", outboxes))
        tag, inboxes = conn.recv()
        if tag != "in":  # pragma: no cover - protocol violation
            raise SimulationError(f"unexpected hub message {tag!r}")
        return inboxes

    try:
        payloads = run_windows(factory(shard_ids), horizon_ms, window_ms, exchange)
        conn.send(("done", payloads))
    except Exception as exc:  # pragma: no cover - surfaced by the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        raise
    finally:
        conn.close()


def run_windows_parallel(
    factory: CellFactory,
    num_shards: int,
    workers: int,
    horizon_ms: float,
    window_ms: float,
) -> Dict[int, Dict[str, Any]]:
    """Run the windowed loop across forked worker processes.

    Worker ``j`` owns shards ``{s : s % workers == j}``.  The parent is a
    pure message hub: at each barrier it drains every worker's outboxes,
    routes them with :func:`route_entries` (identical to the in-process
    merge) and answers each worker with its inboxes.
    """
    check_workers(workers, num_shards)
    check_window(window_ms)
    if workers == 1:
        return run_windows(factory(list(range(num_shards))), horizon_ms, window_ms)
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        raise ConfigError(
            "sharded execution with workers > 1 needs the 'fork' start "
            "method; rerun with --workers 1"
        ) from None
    slices = [
        [sid for sid in range(num_shards) if sid % workers == j] for j in range(workers)
    ]
    pipes = []
    processes = []
    try:
        for worker_shards in slices:
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, factory, worker_shards, horizon_ms, window_ms),
            )
            process.start()
            child_conn.close()
            pipes.append(parent_conn)
            processes.append(process)
        results: Dict[int, Dict[str, Any]] = {}
        while not results:
            # Every worker runs the same loop over the same horizon, so a
            # round is all outboxes or, after the last window, all results.
            outboxes: Dict[int, List[tuple]] = {}
            for j, conn in enumerate(pipes):
                tag, body = conn.recv()
                if tag == "out":
                    outboxes.update(body)
                elif tag == "done":
                    results.update(body)
                else:
                    raise SimulationError(f"shard worker {j} failed: {body}")
            if not results:
                inboxes = route_entries(outboxes)
                for conn, shard_ids in zip(pipes, slices):
                    conn.send(("in", {sid: inboxes.get(sid, []) for sid in shard_ids}))
        return results
    finally:
        for conn in pipes:
            conn.close()
        for process in processes:
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - hang safety valve
                process.terminate()
                process.join()
