"""Structured trace events.

Components emit named trace events (``"chord.lookup"``, ``"flower.hit"``,
``"churn.failure"``, ...) through the simulator.  The recorder keeps counters
for every event type, and optionally full records for the types a test or
experiment subscribes to.  Keeping full records opt-in matters: a 24-hour
run at P=5000 emits millions of events, and the metrics collector only needs
a few types.

Every emit builds its payload and bumps its kind's counter: counting is not
optional, because the reports and the benchmark ledger read
:attr:`TraceRecorder.counters` after the run.  What is subscriber-gated is
everything past the count.  The recorder maintains one set,
:attr:`_watched`, of every kind that has a listener or is being recorded,
plus the flag ``_watch_all`` (a firehose listener exists), and
``Simulator.emit`` reads those two directly: for an unobserved kind no
:class:`TraceEvent` is built, nothing is dispatched, nothing is appended
anywhere.
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict
from typing import Any, Callable, DefaultDict, Dict, List, NamedTuple, Optional, Set


class TraceEvent(NamedTuple):
    """One recorded trace event."""

    time: float
    kind: str
    payload: Dict[str, Any]


#: Signature of a live trace listener.
TraceListener = Callable[[TraceEvent], None]


class TraceRecorder:
    """Counts every event kind; records and/or forwards subscribed kinds."""

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self._recorded: DefaultDict[str, List[TraceEvent]] = defaultdict(list)
        self._record_kinds: Set[str] = set()
        self._listeners: DefaultDict[str, List[TraceListener]] = defaultdict(list)
        self._all_listeners: List[TraceListener] = []
        # --- fast-path interest flags (read directly by Simulator.emit) ---
        self._watch_all = False
        self._watched: Set[str] = set()

    # --------------------------------------------------------- subscriptions
    def record(self, *kinds: str) -> None:
        """Start keeping full :class:`TraceEvent` records for *kinds*."""
        self._record_kinds.update(kinds)
        self._watched.update(kinds)

    def subscribe(self, kind: str, listener: TraceListener) -> None:
        """Invoke *listener* synchronously for every event of *kind*."""
        self._listeners[kind].append(listener)
        self._watched.add(kind)

    def subscribe_all(self, listener: TraceListener) -> None:
        """Invoke *listener* for every event of every kind (the firehose).

        :class:`StreamFingerprint` is its one caller in the package: it
        fingerprints the full ordered event stream.  Kind-specific
        listeners fire before firehose listeners for any given event.
        """
        self._all_listeners.append(listener)
        self._watch_all = True

    def unsubscribe_all(self, listener: TraceListener) -> None:
        """Remove a firehose *listener* added by :meth:`subscribe_all`."""
        self._all_listeners.remove(listener)
        self._watch_all = bool(self._all_listeners)

    # ------------------------------------------------------------------ emit
    def _dispatch(self, event: TraceEvent) -> None:
        """Record/forward an event already known to be of interest."""
        kind = event.kind
        if kind in self._record_kinds:
            self._recorded[kind].append(event)
        listeners = self._listeners.get(kind)
        if listeners:
            for listener in listeners:
                listener(event)
        if self._watch_all:
            for listener in self._all_listeners:
                listener(event)

    # ----------------------------------------------------------------- query
    def events(self, kind: str) -> List[TraceEvent]:
        """All recorded events of *kind* (empty if not subscribed)."""
        return self._recorded.get(kind, [])

    def count(self, kind: str) -> int:
        """Number of times *kind* has been emitted."""
        return self.counters.get(kind, 0)

    def clear(self, kind: Optional[str] = None) -> None:
        """Forget recorded events (and counters) for *kind*, or for all."""
        if kind is None:
            self.counters.clear()
            self._recorded.clear()
        else:
            self.counters.pop(kind, None)
            self._recorded.pop(kind, None)


class StreamFingerprint:
    """SHA-256 chain over a recorder's full ordered trace stream.

    The one fingerprint recipe -- the golden hashes of the determinism
    regression tests, the sharded engine's per-shard fingerprints and chaos
    replay equality all mean this: one repr of ``(rounded time, kind,
    sorted payload)`` per event, folded into a running hash.  Attaching one
    subscribes the firehose, which makes every ``emit`` construct and
    dispatch a :class:`TraceEvent` -- observation-only, but not free; leave
    it off for timing runs.
    """

    def __init__(self, recorder: TraceRecorder) -> None:
        self._hash = hashlib.sha256()
        recorder.subscribe_all(self._observe)

    def _observe(self, event: TraceEvent) -> None:
        line = repr((round(event.time, 9), event.kind, sorted(event.payload.items())))
        self._hash.update(line.encode("utf-8"))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
