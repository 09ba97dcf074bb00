"""The CDN protocols: Flower-CDN, PetalUp-CDN and the Squirrel baseline.

This is the paper's contribution layer, built on the substrates:

- :mod:`repro.cdn.storage` -- per-peer content stores with the push-threshold
  change tracking of section 5.1;
- :mod:`repro.cdn.server` -- origin web servers (the fallback on a miss);
- :mod:`repro.cdn.base` -- the protocol-independent system interface the
  experiment runner drives (arrivals, departures, query issuing);
- :mod:`repro.cdn.flower` -- Flower-CDN: petals, D-ring, directory peers,
  content peers, and the maintenance protocols of section 5.  PetalUp-CDN
  (section 4) is Flower-CDN configured with a finite directory load limit
  and more than one directory instance per petal;
- :mod:`repro.cdn.squirrel` -- the Squirrel baseline (Iyer, Rowstron &
  Druschel, PODC 2002), directory ("redirection") variant over one global
  Chord ring.
"""
