"""Chord DHT (Stoica et al., SIGCOMM 2001).

The paper chooses Chord as the DHT-based overlay and simulates "its routing
and churn stabilization protocols" (section 6.1).  This package implements
Chord from scratch:

- :mod:`repro.dht.idspace` -- m-bit ring arithmetic (intervals, distances,
  hashing);
- :mod:`repro.dht.node` -- the per-node protocol state machine: successor
  list, predecessor, finger table, periodic stabilization / finger repair /
  predecessor check, and recursive (forwarded) ``find_successor`` lookups
  with per-hop acks, reroute around dead hops and per-hop latency
  accounting;
- :mod:`repro.dht.ring` -- ring-wide configuration, the bootstrap service,
  and an instant "warm start" constructor used to stand up the initial
  D-ring population (the paper starts its experiments from a formed ring of
  k x |W| = 600 directory peers).

Two consumers sit on top: the D-ring of Flower-CDN / PetalUp-CDN (directory
peers only, with assigned -- not hashed -- identifiers) and the Squirrel
baseline (every peer joins, identifiers hashed from addresses).
"""
