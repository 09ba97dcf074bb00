"""Network substrate: synthetic latency topologies and message transport.

The paper's simulation "generate[s] an underlying topology of peers connected
with links of variable latencies between 10 and 500 ms" and bins peers into
k = 6 localities with a landmark technique (section 6.1, citing Ratnasamy et
al.).  This package reproduces both:

- :mod:`repro.net.topology` -- latency models (clustered Euclidean space,
  uniform random pairwise latencies, explicit matrices);
- :mod:`repro.net.landmarks` -- landmark-based locality binning;
- :mod:`repro.net.transport` -- a :class:`~repro.net.transport.Network` that
  delivers messages through the event engine with per-link latency, models
  node liveness, and offers RPC-with-timeout semantics (how peers *detect*
  failures in the maintenance protocols of section 5).
"""
