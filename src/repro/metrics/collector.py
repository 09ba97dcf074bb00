"""Per-query measurement records.

Every query issued in an experiment produces exactly one record, stamped
with how it was served.  Records are *stored* as typed columns
(:class:`RecordColumns`, about 40 bytes a query) and *read* either column
by column or as :class:`QueryRecord` rows built on access:

==================  ============================================== =========
outcome             meaning                                        P2P hit?
==================  ============================================== =========
``hit_local``       found in the peer's own cache (never counted
                    as a query by the paper's workload -- peers
                    only query what they lack -- but kept for
                    completeness and examples)                     yes
``hit_summary``     served by a petal neighbour known through
                    gossip content summaries (Flower)              yes
``hit_directory``   a directory peer redirected to a provider
                    (Flower D-ring or Squirrel home node)          yes
``hit_transfer``    directory peers of the same website
                    collaborated (Flower, section 3.2)             yes
``hit_home``        served by a home-node replica (Squirrel's
                    home-store strategy, section 2)                yes
``hit_swarm``       chunked multi-source transfer completed
                    entirely from petal holders (swarming
                    extension; only occurs with ``swarming``)      yes
``miss_server``     no copy found: fetched from the origin server  no
``miss_failed``     routing failed (lookup error / timeout);
                    fetched from the origin server                 no
``miss_degraded``   a chunked transfer lost its P2P sources and
                    fetched the *remaining* chunks (or, cold,
                    the whole object again) from the origin
                    (swarming extension)                           no
``failed_crash``    the querier crashed before the query could
                    terminate; finalized by the crash sweep so
                    the lifecycle ledger never leaks              n/a
``failed_unreach.`` even the origin server was unreachable
                    (partition / loss burst exhausted the fetch
                    retry budget)                                 n/a
``shed_overload``   the directory's bounded admission queue was
                    full and the query was explicitly shed
                    (overload robustness extension; only occurs
                    with ``directory_queue_limit > 0``)           n/a
==================  ============================================== =========

Failed and shed outcomes are *terminal but not served*: they close the
query's lifecycle (every query terminates exactly once -- the chaos
auditor's ledger invariant) without entering the paper's hit/miss
economy.  The hit ratio and the latency/transfer distributions are
computed over served queries only, so fault-free runs are numerically
unchanged.  Shed queries are kept distinct from failures because they
are a deliberate *admission decision* under overload, not a fault: the
overload benches report them as lost goodput, the auditor checks every
one of them is terminally accounted.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from itertools import compress, starmap
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

from repro.errors import CDNError
from repro.types import LocalityId, ObjectKey, WebsiteId

#: Outcomes counted as "served from the P2P system".
HIT_OUTCOMES = frozenset(
    {
        "hit_local",
        "hit_summary",
        "hit_directory",
        "hit_transfer",
        "hit_home",
        "hit_swarm",
    }
)

#: Outcomes served (at least partly) by the origin web server.
MISS_OUTCOMES = frozenset({"miss_server", "miss_failed", "miss_degraded"})

#: Terminal-but-not-served outcomes (crash sweeps, unreachable origin).
#: They close the query-lifecycle ledger without counting as served
#: queries: excluded from the hit-ratio denominator and from the
#: latency/transfer distributions.
FAILED_OUTCOMES = frozenset({"failed_crash", "failed_unreachable"})

#: Queries explicitly rejected by a full directory admission queue
#: (overload extension).  Terminal but neither served nor failed: a shed
#: is a deliberate load-control decision, accounted separately.
SHED_OUTCOMES = frozenset({"shed_overload"})

#: Outcomes that entered the paper's hit/miss economy (served queries).
SERVED_OUTCOMES = HIT_OUTCOMES | MISS_OUTCOMES

ALL_OUTCOMES = SERVED_OUTCOMES | FAILED_OUTCOMES | SHED_OUTCOMES

#: Outcome names by their one-byte column code.  Sorted, so codes order
#: like the names do and column tuples sort exactly like ``QueryRecord``s.
OUTCOME_NAMES: Tuple[str, ...] = tuple(sorted(ALL_OUTCOMES))
OUTCOME_CODES: Dict[str, int] = {name: code for code, name in enumerate(OUTCOME_NAMES)}


def outcome_table(outcomes: Iterable[str]) -> bytes:
    """``table[code]`` is 1 for the codes of *outcomes*, else 0.

    Also a ``bytes.translate`` table: it turns the outcome column into a
    0/1 row mask without a Python-level loop.  Names that are no outcome
    select nothing.
    """
    codes = {OUTCOME_CODES.get(name) for name in outcomes}
    return bytes(1 if code in codes else 0 for code in range(256))


HIT_TABLE = outcome_table(HIT_OUTCOMES)
SERVED_TABLE = outcome_table(SERVED_OUTCOMES)


class QueryRecord(NamedTuple):
    """The measured life of one query: the *row type* of the record store.

    No row is kept per query -- :class:`RecordColumns` stores the fields
    and builds a ``QueryRecord`` when one is read.

    Attributes:
        time: simulation time the query completed (ms).
        website / object_key / locality: what was asked, from where.
        outcome: how it was served (see module docstring).
        lookup_latency_ms: time from issuing the query to reaching the
            destination that provides the object.
        transfer_ms: one-way network latency from the querier to that
            provider (the paper's transfer distance).
        hops: DHT hops used, if the query was routed over a ring.
    """

    time: float
    website: WebsiteId
    object_key: ObjectKey
    locality: LocalityId
    outcome: str
    lookup_latency_ms: float
    transfer_ms: float
    hops: int = 0


def _row(
    time, website, object_index, locality, code, lookup_latency_ms, transfer_ms, hops
) -> QueryRecord:
    """The row of one value from each column, in column order."""
    return QueryRecord(
        time,
        website,
        (website, object_index),
        locality,
        OUTCOME_NAMES[code],
        lookup_latency_ms,
        transfer_ms,
        hops,
    )


class RecordColumns:
    """Every query record of a run: eight typed columns, readable as rows.

    One ``array`` per :class:`QueryRecord` field, 41 bytes a query instead
    of a tuple, three boxed floats and a key tuple (about 215).  The
    ``object_key`` field is stored as ``object_index`` alone, its website
    being the ``website`` column; ``outcome`` holds the one-byte codes of
    :data:`OUTCOME_NAMES`.

    Two ways to read it, and no way to write it except
    :meth:`MetricsCollector.record`:

    - **by column** -- ``records.time``, ``records.outcome``, ... are the
      arrays themselves (read them, never change them); :meth:`mask`
      selects rows by outcome.  Whatever scans a whole run reads these;
    - **by row** -- an iterable of ``QueryRecord``: ``len``, iteration and
      ``==`` against any sequence of records build rows on access and keep
      none.  Unhashable, like a list.  For a tail, ``itertools.islice``.

    Pickles as the eight raw buffers.
    """

    def __init__(self) -> None:
        self.time = array("d")
        self.website = array("i")
        self.object_index = array("i")
        self.locality = array("i")
        self.outcome = array("B")
        self.lookup_latency_ms = array("d")
        self.transfer_ms = array("d")
        self.hops = array("i")

    def columns(self) -> Tuple[array, ...]:
        """The columns in ``QueryRecord`` field order."""
        return (
            self.time,
            self.website,
            self.object_index,
            self.locality,
            self.outcome,
            self.lookup_latency_ms,
            self.transfer_ms,
            self.hops,
        )

    def mask(self, table: bytes) -> bytes:
        """One 0/1 byte per row: whether *table* (see :func:`outcome_table`)
        selects the row's outcome.  Feed it to ``itertools.compress``."""
        return self.outcome.tobytes().translate(table)

    # --------------------------------------------------------------- as rows
    def __len__(self) -> int:
        return len(self.time)

    def __iter__(self) -> Iterator[QueryRecord]:
        return starmap(_row, zip(*self.columns()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordColumns):
            return self.columns() == other.columns()
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented


class MetricsCollector:
    """Accumulates query records and answers the paper's three metrics."""

    def __init__(self) -> None:
        #: Read-only to everyone else; :meth:`record` is its one writer.
        self.records = RecordColumns()
        self._outcome_counts: Dict[str, int] = dict.fromkeys(OUTCOME_NAMES, 0)

    def record(
        self,
        time: float,
        object_key: ObjectKey,
        locality: LocalityId,
        outcome: str,
        lookup_latency_ms: float,
        transfer_ms: float,
        hops: int = 0,
    ) -> None:
        """Store one terminal query: the fields of a :class:`QueryRecord`
        (``website`` is ``object_key[0]``), appended to the columns."""
        try:
            code = OUTCOME_CODES[outcome]
        except KeyError:
            raise CDNError(f"unknown query outcome {outcome!r}") from None
        website, object_index = object_key
        rows = self.records
        try:
            rows.time.append(time)
            rows.website.append(website)
            rows.object_index.append(object_index)
            rows.locality.append(locality)
            rows.outcome.append(code)
            rows.lookup_latency_ms.append(lookup_latency_ms)
            rows.transfer_ms.append(transfer_ms)
            rows.hops.append(hops)
        except (OverflowError, TypeError) as error:
            # A value its column cannot hold: drop the half-written row, so
            # the columns stay one length, and say so rather than wrap.
            columns = rows.columns()
            whole = min(map(len, columns))
            for column in columns:
                del column[whole:]
            raise CDNError(
                f"query record does not fit its columns: {error}"
            ) from error
        self._outcome_counts[outcome] += 1

    # ------------------------------------------------------------- summaries
    def __len__(self) -> int:
        return len(self.records)

    def outcome_count(self, outcome: str) -> int:
        return self._outcome_counts.get(outcome, 0)

    def outcome_counts(self) -> Dict[str, int]:
        """Queries per outcome that occurred, in outcome-name order."""
        return {
            outcome: count for outcome, count in self._outcome_counts.items() if count
        }

    @property
    def hits(self) -> int:
        return sum(self._outcome_counts[o] for o in HIT_OUTCOMES)

    @property
    def misses(self) -> int:
        return sum(self._outcome_counts[o] for o in MISS_OUTCOMES)

    @property
    def sheds(self) -> int:
        """Queries explicitly shed by a full directory admission queue."""
        return sum(self._outcome_counts[o] for o in SHED_OUTCOMES)

    def hit_ratio(self) -> float:
        """Fraction of *served* queries answered from the P2P system.

        Failed (terminal-but-not-served) queries are excluded from the
        denominator, so this is numerically identical to the historical
        ``hits / len(records)`` on any run without failures.
        """
        served = self.hits + self.misses
        return self.hits / served if served else 0.0

    def mean_lookup_latency_ms(self, hits_only: bool = False) -> float:
        values = self.lookup_latencies(hits_only=hits_only)
        return sum(values) / len(values) if values else 0.0

    def mean_transfer_ms(self, hits_only: bool = False) -> float:
        values = self.transfer_distances(hits_only=hits_only)
        return sum(values) / len(values) if values else 0.0

    # ----------------------------------------------------------- projections
    #
    # Failed records carry no meaningful latency/transfer measurements
    # (there was no provider), so the distributions cover served queries.
    def _served(self, column: array, hits_only: bool) -> List[float]:
        mask = self.records.mask(HIT_TABLE if hits_only else SERVED_TABLE)
        return list(compress(column, mask))

    def lookup_latencies(self, hits_only: bool = False) -> List[float]:
        return self._served(self.records.lookup_latency_ms, hits_only)

    def transfer_distances(self, hits_only: bool = False) -> List[float]:
        return self._served(self.records.transfer_ms, hits_only)
