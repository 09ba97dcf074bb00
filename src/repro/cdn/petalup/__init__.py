"""PetalUp-CDN (paper section 4).

PetalUp-CDN is Flower-CDN with elastic directory capacity: each petal may
be served by up to ``2**m`` directory-peer instances at successive D-ring
identifiers; an instance whose member view exceeds the load limit steers
new clients to the next instance, and -- when it is the last one -- selects
one of its content peers to join D-ring as the next instance.

All of that behaviour lives in :mod:`repro.cdn.flower` (the scan in
``QueryPaths._contact_directory``, the split in
``LoadRelief.maybe_promote_next``); this package contributes the system
class that requires it on: the run's
:class:`~repro.experiments.config.ExperimentConfig` must set
``directory_load_limit`` and ``max_instances >= 2``.
"""
