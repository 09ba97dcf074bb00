"""Gossip substrate: partial views, Cyclon-style shuffles, content summaries.

Petals -- the unstructured half of Flower-CDN -- are maintained "via low-cost
gossip techniques which are inspired of P2P membership protocols [Cyclon]
proven to be highly robust in face of churn" (paper section 3).  This package
provides the reusable pieces:

- :mod:`repro.gossip.view` -- the age-annotated partial view each content
  peer keeps of its petal, with the paper's eviction rule (contacts found
  unavailable are removed, which "naturally bounds the view size");
- :mod:`repro.gossip.cyclon` -- the shuffle protocol driver, generic over
  the extra data CDN peers piggyback on each exchange (content summaries
  and dir-info, sections 3.1 and 5.1);
- :mod:`repro.gossip.summaries` -- the exact set-based content summary.
"""
