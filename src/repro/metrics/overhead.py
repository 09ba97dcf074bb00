"""Message-overhead accounting.

The paper's design goal is "an acceptable level of performance ... while
minimizing the incurred overhead" (section 1).  This module classifies
every message kind the protocols send into three categories and reports
maintenance cost per query -- the number the goal is about:

- **maintenance**: ring stabilization, gossip shuffles, keepalives, pushes,
  liveness hints -- traffic that flows even when nobody queries;
- **query**: routing, directory questions and fetch traffic caused by
  queries;
- **other**: anything unclassified (should stay empty; the tests check).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.metrics.report import render_table

#: message-kind prefix -> category.
_PREFIX_CATEGORIES = (
    ("chord.", "maintenance"),
    ("gossip.", "maintenance"),
    ("flower.keepalive", "maintenance"),
    ("flower.push", "maintenance"),
    ("flower.dead_provider", "maintenance"),
    ("flower.promote", "maintenance"),
    ("flower.register", "maintenance"),
    ("flower.query", "query"),
    ("flower.fetch", "query"),
    ("squirrel.dead", "maintenance"),
    ("squirrel.query", "query"),
    ("squirrel.fetch", "query"),
    ("squirrel.homefetch", "query"),
    ("squirrel.store", "query"),
    ("server.fetch", "query"),
)


def classify(kind: str) -> str:
    """Category of one message kind."""
    for prefix, category in _PREFIX_CATEGORIES:
        if kind.startswith(prefix):
            return category
    return "other"


class OverheadReport:
    """Aggregated view over a network's per-kind message counters.

    Args:
        kind_counts: per-message-kind send counters (``Network.kind_counts``).
        queries: number of queries served.
        drop_counts: optional per-cause drop breakdown
            (``Network.drop_counts``: loss / dead_dst / partition), so fault
            experiments can attribute where their traffic went.
    """

    def __init__(
        self,
        kind_counts: Mapping[str, int],
        queries: int,
        drop_counts: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.kind_counts = dict(kind_counts)
        self.queries = queries
        self.drop_counts: Dict[str, int] = dict(drop_counts or {})
        self.categories: Dict[str, int] = {"maintenance": 0, "query": 0, "other": 0}
        for kind, count in self.kind_counts.items():
            self.categories[classify(kind)] += count

    @property
    def total_dropped(self) -> int:
        return sum(self.drop_counts.values())

    @property
    def total(self) -> int:
        return sum(self.kind_counts.values())

    @property
    def maintenance_per_query(self) -> float:
        """Maintenance messages paid per query served."""
        if self.queries == 0:
            return float(self.categories["maintenance"])
        return self.categories["maintenance"] / self.queries

    @property
    def query_messages_per_query(self) -> float:
        if self.queries == 0:
            return 0.0
        return self.categories["query"] / self.queries

    def top_kinds(self, count: int = 10) -> Dict[str, int]:
        """The heaviest message kinds, descending."""
        ordered = sorted(self.kind_counts.items(), key=lambda kv: -kv[1])
        return dict(ordered[:count])

    def render(self) -> str:
        rows = [
            [category, total, f"{total / max(self.total, 1):.1%}"]
            for category, total in sorted(
                self.categories.items(), key=lambda kv: -kv[1]
            )
            if total
        ]
        summary = render_table(
            ["category", "messages", "share"],
            rows,
            title=f"message overhead ({self.total:,} messages, "
            f"{self.queries:,} queries)",
        )
        detail = render_table(
            ["message kind", "count"],
            [[kind, count] for kind, count in self.top_kinds().items()],
            title="heaviest message kinds",
        )
        footer = (
            f"maintenance messages per query: {self.maintenance_per_query:.1f}; "
            f"query-path messages per query: {self.query_messages_per_query:.1f}"
        )
        report = summary + "\n\n" + detail + "\n" + footer
        if self.total_dropped:
            drops = render_table(
                ["drop cause", "messages", "share"],
                [
                    [cause, count, f"{count / self.total_dropped:.1%}"]
                    for cause, count in sorted(
                        self.drop_counts.items(), key=lambda kv: -kv[1]
                    )
                    if count
                ],
                title=f"dropped messages ({self.total_dropped:,})",
            )
            report += "\n\n" + drops
        return report
