"""One benchmark for the whole simulator (see ``README.md`` here).

``python -m benchmarks.e2e`` runs six workloads in fresh subprocesses,
prints twelve end-to-end metrics and a per-layer ledger for each, checks
that the simulated results are correct and repeatable, and writes the
numbers under ``results/``.  ``BENCHMARK.json`` at the repository root
names the same command.
"""
