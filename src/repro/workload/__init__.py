"""Synthetic workload and churn models (paper section 6.1).

The paper uses "synthetically generated data because available web traces
reflect object accesses while we are interested in website accesses":

- :mod:`repro.workload.catalog` -- the universe of websites and their
  objects (|W| = 100 websites x 500 requestable, cacheable objects);
- :mod:`repro.workload.zipf` -- Zipf-distributed object popularity within
  each website (Breslau et al., INFOCOM 1999);
- :mod:`repro.workload.queries` -- per-peer query streams: one query every
  6 minutes, never repeating an object the peer already holds;
- :mod:`repro.workload.churn` -- the Stutzbach-Rejaie-style churn process:
  Poisson arrivals at rate P/m, exponential session lengths with mean
  m = 60 min, a population converging to P, identities (1.3 x P of them)
  re-joining repeatedly with fresh uptimes;
- :mod:`repro.workload.openloop` -- the open-loop overload workload:
  Poisson arrivals with diurnal cycles and regionally-correlated flash
  crowds, issued on top of (not instead of) the closed-loop streams so
  directories can actually saturate.
"""
