"""Evaluation metrics (paper section 6).

The paper evaluates with three metrics:

1. **Hit ratio** -- "the fraction of queries successfully served from the
   P2P system";
2. **Lookup latency** -- "the latency taken to resolve a query and reach
   the destination that will provide the requested object";
3. **Transfer distance** -- "the network distance, in latency, from the
   querying peer to the peer that will provide the requested object".

:mod:`repro.metrics.collector` records every query as one row of typed
columns (``RecordColumns``), read back as ``QueryRecord`` rows;
:mod:`repro.metrics.timeseries` produces the hit-ratio-over-time curve of
Figure 3; :mod:`repro.metrics.distribution` produces the bucketed latency /
distance distributions of Figures 4 and 5; :mod:`repro.metrics.report`
renders Table-2-style text tables; :mod:`repro.metrics.recovery` measures
availability and time-to-recover in fault-injection experiments;
:mod:`repro.metrics.loadbalance` summarises how evenly load spreads
(Gini coefficient) for the overload reports.
"""
