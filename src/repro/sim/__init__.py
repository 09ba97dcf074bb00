"""Discrete-event simulation engine.

This package is the reproduction's substitute for PeerSim's event-driven
framework (paper, section 6.1).  It provides:

- :mod:`repro.sim.clock` -- time-unit helpers (the simulator's clock counts
  milliseconds, the paper's parameters are given in minutes and hours).
- :mod:`repro.sim.events` -- the event heap's entry format and cancellable
  event handles.
- :mod:`repro.sim.engine` -- the :class:`~repro.sim.engine.Simulator` that
  owns the clock, the event heap with its one dispatch loop, and the named
  random-number streams.
- :mod:`repro.sim.process` -- periodic processes (gossip rounds, keepalive
  timers, Chord stabilization, ...).
- :mod:`repro.sim.rng` -- deterministic named random streams so that a whole
  experiment is a pure function of ``(config, seed)``.
- :mod:`repro.sim.trace` -- lightweight structured tracing used by tests and
  by the metrics collector.

Like PeerSim's event-driven mode, the engine models per-link latency but not
bandwidth or CPU contention.
"""
