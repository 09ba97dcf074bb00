"""Stress tests for the slotted event heap and the batched run loop.

These target the place the fast representation could silently go wrong:
cancellation storms (tombstones + compaction must not disturb ordering,
accounting or memory).
"""

import random

from repro.sim.engine import Simulator
from repro.sim.events import _COMPACT_MIN_DEAD
from repro.sim.process import PeriodicProcess


# ------------------------------------------------------------ cancel storms
def test_cancellation_storm_preserves_order_and_accounting():
    """Cancel 90% of 5000 events; the survivors fire in exact time order."""
    sim = Simulator(seed=7)
    rng = random.Random(1234)
    fired = []
    handles = []
    for i in range(5000):
        t = rng.uniform(0.0, 1000.0)
        handles.append((t, i, sim.schedule(t, fired.append, (t, i))))
    doomed = rng.sample(range(5000), 4500)
    for i in doomed:
        sim.cancel(handles[i][2])
    doomed_set = set(doomed)
    expected = sorted(
        (t, i) for t, i, _h in handles if i not in doomed_set
    )
    assert sim.pending_events == 500
    sim.run()
    assert [(t, i) for t, i in fired] == expected
    assert sim.events_executed == 500
    assert sim.pending_events == 0


def test_cancellation_storm_compacts_the_heap():
    """Mass cancellation must shrink the heap, not leave tombstone bloat."""
    sim = Simulator()
    keep = sim.schedule(10.0, lambda: None)
    handles = [sim.schedule(1.0, lambda: None) for _ in range(4 * _COMPACT_MIN_DEAD)]
    heap = sim._heap
    assert len(heap) == len(handles) + 1
    for h in handles:
        sim.cancel(h)
    # Compaction triggers once tombstones dominate: only live entries remain,
    # and the heap *list object* is the same one (run() hoists its reference).
    assert sim._heap is heap
    assert len(heap) < len(handles)
    assert sim.pending_events == 1
    assert keep.active
    sim.run()
    assert sim.events_executed == 1


def test_cancel_inside_callbacks_during_run():
    """Callbacks cancelling future events mid-run: lazy tombstones at the
    heap top are discarded by the run loop without executing them."""
    sim = Simulator()
    fired = []
    later = [sim.schedule(10.0 + i, fired.append, i) for i in range(100)]

    def axe():
        for h in later[1::2]:  # cancel every other future event, in flight
            sim.cancel(h)

    sim.schedule(5.0, axe)
    sim.run()
    assert fired == list(range(0, 100, 2))
    assert sim.events_executed == 1 + 50


def test_periodic_process_storm_cancel():
    """Killing a whole population of periodic processes stops every tick."""
    sim = Simulator(seed=3)
    rng = sim.rng("jitter")
    counts = [0] * 200
    procs = [
        PeriodicProcess(
            sim,
            period=10.0,
            callback=(lambda i=i: counts.__setitem__(i, counts[i] + 1)),
            jitter=0.2,
            rng=rng,
        )
        for i in range(200)
    ]
    sim.run(until=55.0)
    assert all(c > 0 for c in counts)
    snapshot = list(counts)
    for p in procs:
        p.cancel()
        p.cancel()  # idempotent
    assert sim.pending_events == 0
    sim.run(until=500.0)
    assert counts == snapshot
    assert all(not p.active for p in procs)
