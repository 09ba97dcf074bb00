"""Flower-CDN: a locality- and interest-aware hybrid P2P CDN (paper §3-5).

Architecture (Figure 1): gossip-based *petals* -- one per (website,
locality) couple -- linked by *D-ring*, a Chord overlay whose members are
the petals' directory peers, placed at identifiers assigned by the novel
key-management service of :mod:`repro.cdn.flower.dring`.

Module map:

- :mod:`repro.cdn.flower.dring` -- (website, locality, instance) -> D-ring
  identifier assignment;
- :mod:`repro.cdn.flower.peer` -- ``FlowerPeer``: state, session
  lifecycle, message dispatch and the transitions between the content
  role and the directory role.  The content role is mixed in from:

  - :mod:`repro.cdn.flower.queries` -- the query paths of new clients,
    content peers and directory peers; the one reader of a
    ``flower.query`` reply;
  - :mod:`repro.cdn.flower.hints` -- queue-aware redirect hints;
  - :mod:`repro.cdn.flower.petal` -- ``DirInfo``, gossip, keepalive,
    push, the one "follow this directory" step, suspect-directory
    degradation and failure detection (section 5);
  - :mod:`repro.cdn.flower.search_client` -- keyword search with replica
    failover (section 5.4);
  - :mod:`repro.cdn.flower.swarm_holder` -- chunk serving and placement;

- the directory role, present only while a peer joins or serves a slot:

  - :mod:`repro.cdn.flower.directory` -- ``DirectoryRole``, its
    state: directory-index, member view, load accounting, version journal;
  - :mod:`repro.cdn.flower.service` -- ``DirectoryService``, its
    behaviour: ring join, start/stop serving, admission and query
    serving, member traffic, the expiry sweep, search serving;
  - :mod:`repro.cdn.flower.relief` -- PetalUp split, member shedding and
    hot-key rebalancing of a served slot;
  - :mod:`repro.cdn.flower.failover` -- ``DirectoryReplicator``, the
    replication plane of a served slot (only while ``directory_replication_k > 0``):
    replica syncs, warm takeover, provisional serving, split-brain
    resolution;

- :mod:`repro.cdn.flower.replication` -- sync payloads and the per-peer
  ``ReplicaStore``;
- :mod:`repro.cdn.flower.search` -- keyword space, search engine, probes;
- :mod:`repro.cdn.flower.stats` -- the versioned ``system.stats()``;
- :mod:`repro.cdn.flower.system` / :mod:`repro.cdn.flower.sharded` --
  ``FlowerSystem``: initial population, churn hooks, D-ring bootstrap
  (single simulator / one shard of the sharded engine).

PetalUp-CDN (section 4) is this same code with a finite
``directory_load_limit`` and ``max_instances > 1``; see
:mod:`repro.cdn.petalup`.
"""
