"""One path from an A/B's arms to its verdict.

The four A/B scripts -- ``bench_fault_recovery.py`` (warm failover),
``bench_search_availability.py``, ``bench_cloud_heavy.py`` and
``bench_swarming.py`` -- each run their arms once and describe every
committed artifact as a :class:`Comparison`: the rendered table, the JSON
payload (configuration and per-arm measurements) and the named gates the
comparison must pass.  :func:`report` is what follows for all of them:
print each table and any failed gate by name, write the ``X.json`` +
``X.txt`` pair when a path is given (the JSON records every gate and the
verdict, the ``.txt`` is the table), and return the exit code.

Each script's ``main(argv)`` is its CLI front door and its pytest test
alike (the test calls ``main([])``), so what the tests check is what the
artifact records.
"""

import argparse
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Comparison:
    """One A/B artifact: its table, its payload and its named gates."""

    table: str
    payload: Dict[str, Any]
    #: gate name -> whether it holds, in the order they are printed.
    gates: Dict[str, bool]

    @property
    def failed(self) -> List[str]:
        return [name for name, holds in self.gates.items() if not holds]


def parser(description: str, seed: int) -> argparse.ArgumentParser:
    """The options every A/B script takes: ``--seed`` and ``--output``."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="write the A/B comparison as JSON, and its table beside it",
    )
    return parser


def report(*artifacts: Tuple[Comparison, Optional[str]]) -> int:
    """Print, and write where a path is given, each comparison; 0 when
    every gate of every comparison holds, else 1."""
    failed = 0
    for comparison, output in artifacts:
        print(comparison.table)
        for name in comparison.failed:
            print(f"GATE FAILED: {name}")
        failed += len(comparison.failed)
        if output:
            payload = dict(
                comparison.payload,
                gates=comparison.gates,
                verdict=not comparison.failed,
            )
            path = pathlib.Path(output)
            path.write_text(json.dumps(payload, indent=2))
            path.with_suffix(".txt").write_text(comparison.table + "\n")
            print(f"wrote {output} and its table")
    gates = sum(len(comparison.gates) for comparison, _ in artifacts)
    print(f"{gates - failed} of {gates} gates hold")
    return 1 if failed else 0
